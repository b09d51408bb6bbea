"""One thread for numpy's and scipy's OpenBLAS while the library computes.

OpenBLAS rounds some products, and scipy's Schur form, by its thread
count, which follows the usable cores.  So every public call of the
library that factors, multiplies or evaluates, and whose result can reach
a path, certificate or other written file, runs under ``_one_blas_thread``,
applied as a decorator: its results are those of one thread on any host,
inside or outside the CLI.  The caller's thread counts are given back when
the call returns or raises.

Only an OpenBLAS loaded from numpy's or scipy's own wheel, on Linux, is
held.  Where none is found (another BLAS, another platform) nothing is
held, and results may depend on the thread count.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from contextlib import contextmanager

import numpy as np
import scipy.linalg  # loads scipy's OpenBLAS, which only then can be found


def _blas_threads(package):
    """(get, set) of the thread count of the OpenBLAS ``package`` runs on, or None.

    Only a library the package has already loaded from its wheel's
    ``<package>.libs`` counts; its functions are ``scipy_openblas_*64_``
    in numpy 2 wheels, ``scipy_openblas_*`` in scipy's and ``openblas_*``
    (maybe with the ``64_`` suffix) in older ones.  Looked for on Linux
    only, where the usable cores can be read.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None
    root = os.path.dirname(os.path.dirname(package.__file__))
    libs = os.path.join(root, f"{package.__name__}.libs")
    for name in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(name, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for prefix, suffix in (
            ("scipy_openblas", "64_"),
            ("scipy_openblas", ""),
            ("openblas", "64_"),
            ("openblas", ""),
        ):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


_BLAS = _blas_threads(np)
# scipy's wheel brings an OpenBLAS of its own, which scipy.linalg.schur
# (the rotation planes of a connect) runs on
_SCIPY_BLAS = _blas_threads(scipy)

_hold_lock = threading.Lock()
_holds = 0  # holds open in the process, on any thread
_held_counts = []  # (set, thread count before the first open hold)


@contextmanager
def _one_blas_thread():
    """Hold numpy's and scipy's OpenBLAS to one thread while any thread holds them.

    The thread counts are the process's, so the holds are counted
    process-wide: the first saves the counts and sets one thread, and the
    last to end restores the saved counts, in whatever order threads end
    them.  Holds nest, and threads a holder starts (the certifier's pool)
    compute under its hold.  As a decorator, ``@_one_blas_thread()`` holds
    for each call of the function.
    """
    global _holds
    with _hold_lock:
        if not _holds:
            _held_counts[:] = [(put, get()) for get, put in filter(None, (_BLAS, _SCIPY_BLAS))]
            for put, _ in _held_counts:
                put(1)
        _holds += 1
    try:
        yield
    finally:
        with _hold_lock:
            _holds -= 1
            if not _holds:
                for put, before in _held_counts:
                    put(before)
