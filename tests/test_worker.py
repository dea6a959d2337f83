import importlib.util
import os
import subprocess
import time

import numpy as np
import pytest

import topofuse
from topofuse import worker
from topofuse.errors import OutOfRange, WorkerLost
from topofuse.topology import auto_epsilon


class TestAnalysisJobs:
    @pytest.mark.parametrize(
        "threads, cpus, starts_worker",
        [(None, 8, False), (1, 1, False), (1, 2, True), (2, 3, False), (2, 4, True), (0, 4, False)],
    )
    def test_a_worker_only_when_two_processes_fit(self, monkeypatch, threads, cpus, starts_worker):
        monkeypatch.setattr(worker, "Worker", lambda: "worker")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        jobs = worker.analysis_jobs(threads)
        assert (jobs == "worker") == starts_worker

    def test_inline_when_no_process_can_start(self, monkeypatch):
        def no_process(*args, **kwargs):
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(subprocess, "Popen", no_process)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert type(worker.analysis_jobs(1)) is worker.Inline


class TestWorker:
    def test_same_package_and_thread_pin(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        with worker.Worker() as jobs:
            jobs.submit("pin", os.getenv, "OPENBLAS_NUM_THREADS")
            jobs.submit("spec", importlib.util.find_spec, "topofuse")
            done = jobs.results()
        assert done["pin"] == "3"
        assert os.path.realpath(done["spec"].origin) == os.path.realpath(topofuse.__file__)

    @pytest.mark.parametrize("make", [worker.Inline, worker.Worker])
    def test_results_by_name_in_submission_order(self, make):
        with make() as jobs:
            jobs.submit("b", sorted, [3, 1, 2])
            jobs.submit("a", max, 4, 9)
            assert list(jobs.results().items()) == [("b", [1, 2, 3]), ("a", 9)]

    def test_package_error_comes_back_as_itself(self):
        with worker.Worker() as jobs:
            jobs.submit("radius", auto_epsilon, [[0.0, 0.0]])
            with pytest.raises(OutOfRange, match="need at least 2 spots"):
                jobs.results()

    def test_other_failures_carry_the_worker_traceback(self):
        with worker.Worker() as jobs:
            jobs.submit("number", int, "x")
            with pytest.raises(RuntimeError, match="(?s)the number failed in the worker process.*ValueError"):
                jobs.results()

    def test_a_worker_that_dies_is_named_with_its_job(self):
        with worker.Worker() as jobs:
            jobs.submit("exit", os._exit, 3)
            with pytest.raises(WorkerLost, match="exited with status 3 before returning the exit$"):
                jobs.results()

    def test_submit_does_not_wait_for_the_worker(self):
        big = np.arange(2**18, dtype=np.float64)  # 2 MB, far more than a pipe holds
        with worker.Worker() as jobs:
            jobs.submit("sleep", time.sleep, 0.3)
            start = time.perf_counter()
            jobs.submit("sum", np.sum, big)
            took = time.perf_counter() - start
            big[:] = 0.0  # the job was pickled when submitted
            done = jobs.results()
        assert took < 0.05
        assert list(done) == ["sleep", "sum"]
        assert done["sum"] == float(np.arange(2**18).sum())
