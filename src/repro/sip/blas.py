"""Per-rank sizing of the OpenBLAS thread pool.

OpenBLAS starts a pool of one thread per core in every process.  The mp
backend forks one process per SIP rank, so with more ranks than cores
the pools oversubscribe the machine and GEMM time turns erratic (two
forked workers on two cores run four BLAS threads).  Each forked rank
therefore runs with its pool capped at its share of the usable cores.

The library is reached through ctypes, so no ``threadpoolctl`` is
needed.  The parent looks its functions up once and holds the cap
while its ranks run, so every child starts with it: resizing the pool
inside a freshly forked child can stall that rank's start by
milliseconds, which skews how the first pardo chunks are handed out.
Each resize restarts the pool's threads, which spin briefly before
sleeping, so the parent restores its own size only once the ranks have
exited.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from typing import Callable, Iterator, Optional

__all__ = ["forking_ranks", "openblas_threads", "rank_blas_threads"]

# (set, get) thread-count symbols across OpenBLAS builds: the plain and
# 64-bit-interface names, and the scipy-openblas build numpy wheels bundle
_SYMBOLS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


@functools.cache
def openblas_threads() -> Optional[tuple[Callable[[int], None], Callable[[], int]]]:
    """``(set_num_threads, get_num_threads)`` of the loaded OpenBLAS.

    None when numpy links against another BLAS, or the loaded libraries
    cannot be listed (no ``/proc/self/maps``).
    """
    import numpy  # noqa: F401 -- loads the BLAS numpy links against

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted(
                {ln.split()[-1] for ln in maps if "openblas" in ln.lower()}
            )
    except OSError:
        return None
    for path in paths:
        if not path.startswith("/"):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


def rank_blas_threads(ranks: int) -> int:
    """One rank's share of the usable cores when ``ranks`` share them."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return max(1, cpus // ranks)


@contextlib.contextmanager
def forking_ranks(ranks: int) -> Iterator[Optional[int]]:
    """Cap this process's OpenBLAS pool at :func:`rank_blas_threads`
    for the duration of the block, then restore it.

    Processes forked inside the block inherit the cap.  Yields the
    cap, or None when no OpenBLAS is loaded.
    """
    api = openblas_threads()
    if api is None:
        yield None
        return
    set_threads, get_threads = api
    previous = get_threads()
    threads = rank_blas_threads(ranks)
    if threads == previous:
        # nothing to change; resizing would only wake the pool
        yield threads
        return
    set_threads(threads)
    try:
        yield threads
    finally:
        set_threads(previous)
