"""Worker processes and the OpenBLAS thread budget.

The process's OpenBLAS thread count is its CPU budget.  A pool of k workers
spends it on k independent tasks instead: each worker is capped to
``cpus // k`` BLAS threads (at least one), so the workers do not
oversubscribe the CPUs, and the calling process keeps its own thread count.
Workers are forked, so they start with the caller's modules loaded;
OpenBLAS stops its threads across a fork.
"""

import ctypes
import os
from concurrent.futures import ProcessPoolExecutor


def _openblas_symbol(kind):
    """The ``openblas_{kind}_num_threads`` function of the OpenBLAS that
    numpy loaded, or None where it cannot be found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (f"scipy_openblas_{kind}_num_threads64_", f"openblas_{kind}_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)
    return None


def blas_threads():
    """Current OpenBLAS thread count of this process, or None."""
    getter = _openblas_symbol("get")
    if getter is None:
        return None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter()


def _cap_blas_threads(count):
    setter = _openblas_symbol("set")
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(count)


def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_size(tasks):
    """Workers for ``tasks`` independent tasks: one per BLAS thread of this
    process, at most one per task and per CPU; 1 (run in-process) where
    OpenBLAS is not found."""
    threads = blas_threads()
    if threads is None:
        return 1
    return max(1, min(tasks, threads, _cpu_count()))


def worker_blas_threads(workers):
    """BLAS threads of each of ``workers`` pool workers: their share of the
    CPUs, at least one."""
    return max(1, _cpu_count() // workers)


def worker_pool(workers):
    """Process pool of ``workers`` workers, each capped to its share of the
    CPUs in BLAS threads.  Use it as a context manager, so that no worker
    outlives the block."""
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_cap_blas_threads,
        initargs=(worker_blas_threads(workers),),
    )
