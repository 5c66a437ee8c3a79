import multiprocessing

import numpy as np
import pytest

from otoclab import parallel
from otoclab.operators import gue_observable
from otoclab.parallel import POOL_MIN_WORK, map_tasks, pool_size, task_rng, worker_blas_threads

MARK = "imported"


def _read_mark(_):
    return MARK


def _square(t):
    return t * t


class TestMapTasks:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_in_task_order(self, workers):
        assert map_tasks(_square, [3, 0, 2], workers) == [9, 0, 4]

    def test_workers_are_forked_under_any_default(self, monkeypatch):
        # spawned or forkserver workers would import this module afresh
        # and read MARK as "imported"
        monkeypatch.setattr(f"{__name__}.MARK", "set by the parent")
        default = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("spawn", force=True)
        try:
            marks = map_tasks(_read_mark, range(2), 2)
        finally:
            multiprocessing.set_start_method(default, force=True)
        assert marks == ["set by the parent"] * 2

    def test_never_more_workers_than_tasks(self, monkeypatch):
        pools = []
        real = parallel.ProcessPoolExecutor

        def recording_pool(**kwargs):
            pools.append(kwargs)
            return real(**kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", recording_pool)
        assert map_tasks(_square, [2], 3) == [4]
        assert pools == []  # one task runs in this process
        assert map_tasks(_square, [2, 3], 3) == [4, 9]
        (pool,) = pools
        assert pool["max_workers"] == 2
        assert pool["initargs"] == (worker_blas_threads(2),)


class TestPoolSize:
    def test_one_worker_per_min_work(self, monkeypatch):
        monkeypatch.setattr(parallel, "blas_threads", lambda: 4)
        monkeypatch.setattr(parallel, "_cpu_count", lambda: 4)
        assert pool_size(10, POOL_MIN_WORK - 1) == 1
        assert pool_size(10, 3 * POOL_MIN_WORK) == 3
        assert pool_size(2, 100 * POOL_MIN_WORK) == 2  # one per task
        assert pool_size(10, 100 * POOL_MIN_WORK) == 4  # one per thread

    def test_in_process_without_openblas(self, monkeypatch):
        monkeypatch.setattr(parallel, "blas_threads", lambda: None)
        assert pool_size(10, 100 * POOL_MIN_WORK) == 1


class TestTaskRng:
    def test_substream_of_seed(self):
        expected = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(3,)))
        assert np.array_equal(task_rng(7, 3).random(5), expected.random(5))
        assert not np.array_equal(task_rng(7, 3).random(5), task_rng(7, 4).random(5))

    def test_gue_draws_unchanged(self):
        # gue_observable passes a Generator through default_rng unaltered
        seq = np.random.SeedSequence(0, spawn_key=(1,))
        assert np.array_equal(
            gue_observable(8, task_rng(0, 1)).entries, gue_observable(8, seq).entries
        )
