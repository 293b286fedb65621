"""PCG32 random streams.

All randomness in the package flows through explicitly seeded PCG32
generators (64-bit state, 32-bit output, XSH-RR output function). Distinct
purposes use distinct (seed, stream) pairs, which keeps every stage of the
pipeline reproducible and lets independent retraining points draw from
isolated streams.
"""

from __future__ import annotations

import numpy as np

_MULT = 6364136223846793005
_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# chunk length for vectorised block generation
_BLOCK = 1024


def _jump_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """MULT^r and sum_{k<r} MULT^k (mod 2^64) for r = 0..n.

    r steps take state s to MULT^r * s + (sum_{k<r} MULT^k) * inc.
    """
    mult = np.empty(n + 1, dtype=np.uint64)
    total = np.empty(n + 1, dtype=np.uint64)
    a, c = 1, 0
    for r in range(n + 1):
        mult[r], total[r] = a, c
        a, c = (a * _MULT) & _MASK64, (c * _MULT + 1) & _MASK64
    return mult, total


_JUMP_MULT, _JUMP_SUM = _jump_tables(_BLOCK)


class Pcg32:
    """PCG32 generator (XSH-RR variant) with selectable stream."""

    def __init__(self, seed: int, stream: int = 0):
        self.inc = (((stream << 1) | 1)) & _MASK64
        self.state = 0
        self._step()
        self.state = (self.state + (seed & _MASK64)) & _MASK64
        self._step()

    def _step(self) -> None:
        self.state = (self.state * _MULT + self.inc) & _MASK64

    def next_u32(self) -> int:
        old = self.state
        self._step()
        xorshifted = (((old >> 18) ^ old) >> 27) & _MASK32
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & _MASK32

    def u32_block(self, n: int) -> np.ndarray:
        """n outputs as uint32, identical to n calls of next_u32."""
        if n < 0:
            raise ValueError("n must be non-negative")
        if n == 0:
            return np.zeros(0, dtype=np.uint32)
        width = min(n, _BLOCK)
        nblocks = -(-n // width)
        # affine jump by _BLOCK steps: s -> a_blk*s + c_blk (mod 2^64)
        a_blk = int(_JUMP_MULT[_BLOCK])
        c_blk = (int(_JUMP_SUM[_BLOCK]) * self.inc) & _MASK64
        starts = np.empty(nblocks, dtype=np.uint64)
        s = self.state
        for q in range(nblocks):
            starts[q] = s
            s = (a_blk * s + c_blk) & _MASK64
        # column r holds each block's state after r steps; uint64 wraps mod 2^64
        offsets = _JUMP_SUM[:width] * np.uint64(self.inc)
        states = starts[:, None] * _JUMP_MULT[:width] + offsets
        flat = states.reshape(-1)[:n]
        # XSH-RR output from each pre-step state
        xorshifted = (((flat >> np.uint64(18)) ^ flat) >> np.uint64(27)) & np.uint64(_MASK32)
        rot = flat >> np.uint64(59)
        out = (xorshifted >> rot) | (
            (xorshifted << ((np.uint64(32) - rot) & np.uint64(31))) & np.uint64(_MASK32)
        )
        self.state = (int(flat[-1]) * _MULT + self.inc) & _MASK64
        return out.astype(np.uint32)

    def uniforms(self, n: int) -> np.ndarray:
        """n float64 samples uniform on [0, 1)."""
        return self.u32_block(n).astype(np.float64) * 2.0**-32

    def normals(self, n: int) -> np.ndarray:
        """n float64 standard-normal samples (Box-Muller on paired uniforms)."""
        pairs = -(-n // 2)
        u = self.u32_block(2 * pairs).astype(np.float64)
        u1 = (u[0::2] + 1.0) * 2.0**-32  # (0, 1], keeps log finite
        u2 = u[1::2] * 2.0**-32
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.empty(2 * pairs, dtype=np.float64)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return z[:n]

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n): indices sorted by random u32 keys.

        Key ties (astronomically rare) break by index, so the result is
        deterministic for a fixed stream position.
        """
        keys = self.u32_block(n)
        return np.lexsort((np.arange(n), keys))

    def choice(self, n: int, k: int) -> np.ndarray:
        """k indices drawn uniformly without replacement from range(n)."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot choose {k} of {n}")
        return self.permutation(n)[:k]
