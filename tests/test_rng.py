import numpy as np

from guidedretrain.rng import Pcg32

# Reference outputs of the standard PCG32 (XSH-RR) generator for
# initstate=42, initseq=54, as published with the generator itself.
REFERENCE_42_54 = [0xA15C02B7, 0x7B47F409, 0xBA1D3330, 0x83D2F293, 0xBFA4784B, 0xCBED606E]


def _reference_pcg32(seed, stream, n):
    """Independent step-by-step transcription of the PCG32 recurrence."""
    mult = 6364136223846793005
    mask64 = (1 << 64) - 1
    inc = ((stream << 1) | 1) & mask64
    state = 0
    state = (state * mult + inc) & mask64
    state = (state + seed) & mask64
    state = (state * mult + inc) & mask64
    out = []
    for _ in range(n):
        old = state
        state = (state * mult + inc) & mask64
        xorshifted = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
        rot = old >> 59
        out.append(((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & 0xFFFFFFFF)
    return out


def test_reference_vector():
    g = Pcg32(42, 54)
    assert [g.next_u32() for _ in range(6)] == REFERENCE_42_54
    assert _reference_pcg32(42, 54, 6) == REFERENCE_42_54


def test_block_matches_sequential():
    for n in (1, 2, 1023, 1024, 1025, 5000):
        a = Pcg32(7, 3)
        b = Pcg32(7, 3)
        blk = a.u32_block(n)
        seq = np.array([b.next_u32() for _ in range(n)], dtype=np.uint32)
        assert np.array_equal(blk, seq)
        # generator state continues identically after the block
        assert a.next_u32() == b.next_u32()


# (seed, stream) pairs including a stream >= 2^62 and seeds >= 2^63
PAIRS = [(7, 3), (0, 0), (42, 54), (2**63 + 5, 1), (123, 2**62 + 9), (2**64 - 1, 2**63 + 7)]
# mixed sizes whose running total crosses several 1024-output boundaries
SIZES = (1, 10, 1023, 1024, 1025, 5000, 3, 2048, 700)


def test_blocks_with_interleaved_steps_match_reference():
    for seed, stream in PAIRS:
        g = Pcg32(seed, stream)
        ref = _reference_pcg32(seed, stream, sum(SIZES) + len(SIZES))
        pos = 0
        for n in SIZES:
            assert g.u32_block(n).tolist() == ref[pos:pos + n], (seed, stream, n)
            pos += n
            # the state after a block continues the sequence exactly
            assert g.next_u32() == ref[pos], (seed, stream, n)
            pos += 1


def test_back_to_back_blocks_match_reference():
    for seed, stream in PAIRS:
        g = Pcg32(seed, stream)
        got = np.concatenate([g.u32_block(n) for n in SIZES]).tolist()
        assert got == _reference_pcg32(seed, stream, sum(SIZES)), (seed, stream)


def test_streams_are_distinct():
    a = Pcg32(11, 0).u32_block(100)
    b = Pcg32(11, 1).u32_block(100)
    assert not np.array_equal(a, b)


def test_uniforms_range_and_determinism():
    u = Pcg32(5).uniforms(10000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert np.array_equal(u, Pcg32(5).uniforms(10000))
    assert abs(u.mean() - 0.5) < 0.02


def test_normals_moments():
    z = Pcg32(9).normals(20001)  # odd n exercises the pair trim
    assert len(z) == 20001
    assert np.all(np.isfinite(z))
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03


def test_permutation_is_permutation():
    for n in (1, 2, 17, 1000):
        p = Pcg32(3).permutation(n)
        assert sorted(p.tolist()) == list(range(n))
    p1 = Pcg32(3).permutation(500)
    p2 = Pcg32(3).permutation(500)
    p3 = Pcg32(4).permutation(500)
    assert np.array_equal(p1, p2)
    assert not np.array_equal(p1, p3)


def test_choice_without_replacement():
    idx = Pcg32(21).choice(100, 30)
    assert len(idx) == 30
    assert len(set(idx.tolist())) == 30
    assert all(0 <= i < 100 for i in idx)
