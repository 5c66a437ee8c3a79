"""Independent tasks on worker processes, and the OpenBLAS thread budget.

:func:`map_tasks` is the one place that starts processes.  The process's
OpenBLAS thread count is its CPU budget; k workers spend it on k
independent tasks instead, each capped to ``cpus // k`` BLAS threads (at
least one), while the calling process keeps its own count.
:func:`pool_size` also sizes the pool by the work, one worker per
POOL_MIN_WORK multiply-adds, so a job shorter than a worker's start-up runs
in this process.  Workers are forked whatever the default start method, so
they start with the caller's modules and their state; OpenBLAS stops its
threads across a fork.
"""

import ctypes
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np


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


# Complex multiply-adds of work per pool worker: about 40 ms of the dense
# kick's zgemms on two threads at N = 16, the order of the 60-100 ms that
# forking and joining a pool takes on a 2-vCPU host.  Less work runs in
# process.
POOL_MIN_WORK = 2**27


def pool_size(tasks, work):
    """Workers for ``tasks`` independent tasks of ``work`` complex
    multiply-adds in all: one per BLAS thread of this process, at most one
    per task, per CPU and per POOL_MIN_WORK of the work; 1 (run in-process)
    where OpenBLAS is not found."""
    threads = blas_threads()
    if threads is None:
        return 1
    return max(1, min(tasks, threads, _cpu_count(), work // POOL_MIN_WORK))


def worker_blas_threads(workers):
    """BLAS threads of each of ``workers`` workers: their share of the
    CPUs, at least one.  One worker is this process, with its own count."""
    if workers <= 1:
        return blas_threads()
    return max(1, _cpu_count() // workers)


def map_tasks(fn, tasks, workers):
    """``[fn(t) for t in tasks]`` for a sequence ``tasks``, in task order,
    on ``min(workers, len(tasks))`` forked processes, each capped to
    :func:`worker_blas_threads` of that count; in this process where the
    count is one.  A task's exception reaches the caller with its type and
    message, and no worker outlives the call."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_cap_blas_threads,
        initargs=(worker_blas_threads(workers),),
    ) as pool:
        return list(pool.map(fn, tasks))


def task_rng(seed, k):
    """Generator of substream ``k`` of ``seed``: a task that draws from it
    gets the same numbers in whichever process runs it."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
