"""The thread count of numpy's bundled OpenBLAS, through ctypes.

numpy's wheels ship OpenBLAS in `numpy.libs/` (`numpy/.dylibs/` on macOS)
and offer no call of their own that sizes its thread pool. Opening that file
again returns the handle numpy already holds, so a setter found there acts on
numpy's own matrix products. Where no such library or setter is found, numpy
built against a system BLAS say, `set_threads` does nothing and `threads`
returns None.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

# thread setters of scipy-openblas's 64-bit and 32-bit integer builds, then of
# a plain OpenBLAS; each one's getter has "get" in place of "set"
SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
           "openblas_set_num_threads")


def _openblas_calls():
    """(setter, getter) of numpy's bundled OpenBLAS, or None if not found."""
    package = Path(np.__file__).parent
    for folder in (package.parent / "numpy.libs", package / ".dylibs"):
        for path in sorted(folder.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for name in SETTERS:
                getter = name.replace("_set_", "_get_")
                if hasattr(lib, name) and hasattr(lib, getter):
                    setter, getter = getattr(lib, name), getattr(lib, getter)
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    return setter, getter
    return None


def threads() -> int | None:
    """numpy's BLAS thread count, or None if its OpenBLAS is not found."""
    calls = _openblas_calls()
    return None if calls is None else calls[1]()


def set_threads(count: int) -> None:
    """Cap numpy's BLAS at `count` threads, if its OpenBLAS is found."""
    calls = _openblas_calls()
    if calls is not None:
        calls[0](count)
