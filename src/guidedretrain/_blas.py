"""Scoped OpenBLAS thread count for the CLI's numerics.

The pipeline's GEMMs are small. At batch 32 only the conv backward products
pass OpenBLAS's threading threshold, and the extra worker then spin-waits
between training steps: with default threads a run burns about twice its
wall time in CPU. `one_blas_thread` pins BLAS to one thread for a block and
restores the caller's count afterwards. OpenBLAS splits a GEMM along M and
N, never along K, so every output element keeps its summation order and
results are bit-identical at any thread count. Retraining workers, each one
process per core, pin their own OpenBLAS to one thread for the same reason.

NumPy's OpenBLAS is reached through NumPy's core extension, since dlsym on
it also searches the libraries it links. Where no OpenBLAS symbol resolves
(MKL, Accelerate), nothing is pinned and the runtime reads "unknown".
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import cache

# symbol patterns of the OpenBLAS builds NumPy ships (scipy-openblas, 64-bit
# integer interface) or links from the system
_SYMBOLS = ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}")


@cache
def _openblas():
    """(get_num_threads, set_num_threads, get_config) of NumPy's OpenBLAS, or None."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for pattern in _SYMBOLS:
        try:
            get, put, config = (getattr(lib, pattern.format(name))
                                for name in ("get_num_threads", "set_num_threads", "get_config"))
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        config.argtypes, config.restype = [], ctypes.c_char_p
        return get, put, config
    return None


def blas_runtime() -> dict:
    """{"blas_config", "blas_threads"} now in effect, "unknown" without OpenBLAS."""
    lib = _openblas()
    if lib is None:
        return {"blas_config": "unknown", "blas_threads": "unknown"}
    return {"blas_config": " ".join(lib[2]().decode("ascii", "replace").split()),
            "blas_threads": str(lib[0]())}


def pin_one_blas_thread() -> int | None:
    """Set OpenBLAS to one thread; returns the previous count, None without OpenBLAS."""
    lib = _openblas()
    if lib is None:
        return None
    saved = lib[0]()
    lib[1](1)
    return saved


@contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the caller's count."""
    saved = pin_one_blas_thread()
    try:
        yield
    finally:
        if saved is not None:
            _openblas()[1](saved)
