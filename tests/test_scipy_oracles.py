"""metrics.cdist and metrics._logsumexp against SciPy, bit for bit.

SciPy is a test-only dependency: these tests skip without it.
"""

import numpy as np
import pytest

from guidedretrain import metrics
from guidedretrain.metrics import LsaEstimator, _logsumexp, cdist

distance = pytest.importorskip("scipy.spatial.distance")
special = pytest.importorskip("scipy.special")

SATURATED_LSA = float(-np.log(1e-300))  # 690.775528: density below the floor


def bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def assert_cdist_bits(XA, XB):
    for metric in ("sqeuclidean", "euclidean"):
        got = cdist(XA, XB, metric)
        want = distance.cdist(XA, XB, metric)
        assert got.shape == want.shape
        assert np.array_equal(bits(got), bits(want)), metric


def assert_logsumexp_bits(a):
    a = np.asarray(a, dtype=np.float64)
    assert np.array_equal(bits(_logsumexp(a)), bits(special.logsumexp(a, axis=1)))


# (rows of XA, rows of XB, columns): both sides of the column-loop threshold,
# short rows and DSA-wide ones
@pytest.mark.parametrize("na, nb, d", [(1, 3, 3108), (1, 1, 500), (7, 9, 40),
                                       (40, 40, 12), (33, 31, 64), (60, 70, 3)])
def test_cdist_bits_random(na, nb, d):
    rng = np.random.default_rng(na * 1000 + nb + d)
    assert_cdist_bits(rng.normal(size=(na, d)) * 3.0, rng.normal(size=(nb, d)) * 3.0)


def test_cdist_bits_differ_from_a_pairwise_sum():
    # the in-order sum is what makes these bits; numpy's pairwise sum gives others
    rng = np.random.default_rng(5)
    for na, nb in ((1, 4), (40, 40)):
        XA, XB = rng.normal(size=(na, 200)), rng.normal(size=(nb, 200))
        pairwise = ((XA[:, None, :] - XB[None, :, :]) ** 2).sum(axis=2)
        assert not np.array_equal(bits(pairwise), bits(cdist(XA, XB, "sqeuclidean")))
        assert_cdist_bits(XA, XB)


def test_cdist_bits_one_column_and_one_reference():
    rng = np.random.default_rng(2)
    assert_cdist_bits(rng.normal(size=(5, 1)), rng.normal(size=(1, 1)))
    assert_cdist_bits(rng.normal(size=(50, 1)), rng.normal(size=(40, 1)))
    assert_cdist_bits(rng.normal(size=(1, 300)), rng.normal(size=(1, 300)))
    assert_cdist_bits(rng.normal(size=(1200, 16)), rng.normal(size=(1, 16)))


def test_cdist_bits_ulp_neighbours_and_zero_distances():
    rng = np.random.default_rng(3)
    XA = rng.normal(size=(6, 50)) * 1e3
    up = np.nextafter(XA, np.inf)
    down = np.nextafter(XA, -np.inf)
    XB = np.vstack([XA, up, down, XA[:2]])
    got = cdist(XA, XB, "euclidean")
    assert (np.diag(got[:, :6]) == 0).all()
    assert (got[:, 6:12].diagonal() > 0).all()
    assert_cdist_bits(XA, XB)
    assert_cdist_bits(np.zeros((3, 4)), np.zeros((2, 4)))
    many = np.repeat(XA[:1], 40, axis=0)
    assert_cdist_bits(many, np.vstack([many, np.nextafter(many, 0.0)]))


def test_cdist_rejects_other_metrics_and_shapes():
    with pytest.raises(ValueError, match="cityblock"):
        cdist(np.zeros((2, 3)), np.zeros((2, 3)), "cityblock")
    with pytest.raises(ValueError, match="columns"):
        cdist(np.zeros((2, 3)), np.zeros((2, 4)), "euclidean")


def test_logsumexp_bits_random_rows():
    rng = np.random.default_rng(4)
    for scale in (1.0, 30.0, 1e3):
        assert_logsumexp_bits(-rng.random((50, 80)) * scale)
    assert_logsumexp_bits(rng.normal(size=(20, 1)))  # one term: the maximum itself


def test_logsumexp_bits_repeated_maxima():
    rng = np.random.default_rng(6)
    a = -rng.random((12, 30)) * 20.0
    a[:, 3] = a[:, 17] = 1.5  # two maxima per row
    a[5, [0, 9, 22]] = 1.5  # five in one row
    assert_logsumexp_bits(a)
    assert_logsumexp_bits(np.full((3, 7), -2.25))  # every term a maximum


def test_logsumexp_bits_small_and_underflowing_tails():
    # s = exp(-30): log1p(s) keeps it, log(1 + s) would round it differently;
    # exp(-1000) underflows, so the sum after taking out the maximum is 0
    assert_logsumexp_bits([[0.0, -30.0, -35.0],
                           [4.0, 4.0 - 1e-14, -9.0],
                           [0.0, -1000.0, -2000.0],
                           [-700.0, -1800.0, -1750.0]])


def test_logsumexp_bits_non_finite_rows():
    assert_logsumexp_bits([[-np.inf, -np.inf, -np.inf],
                           [np.inf, 1.0, 2.0],
                           [np.nan, 1.0, 2.0],
                           [-np.inf, 0.5, -np.inf]])


def test_lsa_bits_match_the_scipy_pipeline_down_to_saturation(monkeypatch):
    rng = np.random.default_rng(8)
    refs = {0: rng.normal(size=(30, 6)), 1: rng.normal(size=(25, 6)) + 2.0}
    est = LsaEstimator(layer="d1", retained=np.arange(6), class_traces=refs,
                       bandwidths={c: metrics.scott_bandwidths(r) for c, r in refs.items()})
    near = rng.normal(size=(40, 6))
    far = rng.normal(size=(10, 6)) + 60.0  # log-kernels of about -1e3 and below
    traces = np.vstack([near, far, refs[0][:3]])
    classes = np.array([0, 1] * 20 + [0] * 10 + [0] * 3)
    got = metrics._lsa_from_traces(est, traces, classes)
    monkeypatch.setattr(metrics, "cdist", distance.cdist)
    monkeypatch.setattr(metrics, "_logsumexp", lambda a: special.logsumexp(a, axis=1))
    want = metrics._lsa_from_traces(est, traces, classes)
    assert np.array_equal(bits(got), bits(want))
    assert (got[40:50] == SATURATED_LSA).all()
    assert (got[:40] < SATURATED_LSA).all()
