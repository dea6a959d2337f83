import importlib.util
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import topofuse
from topofuse import worker
from topofuse.errors import OutOfRange, WorkerLost
from topofuse.topology import auto_epsilon


def _sum_after(seconds, a):
    time.sleep(seconds)
    return float(a.sum())


class Unpicklable(OutOfRange):
    def __init__(self):
        super().__init__("no pickle")
        self.hook = lambda: None  # a lambda cannot be pickled


def _raise_unpicklable():
    raise Unpicklable()


@pytest.fixture
def forked(monkeypatch):
    """The pid of every child forked during the test."""
    pids, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


class TestAnalysisJobs:
    @pytest.mark.parametrize(
        "threads, cpus, starts_worker",
        [(None, 8, False), (1, 1, False), (1, 2, True), (2, 3, False), (2, 4, True), (0, 4, False)],
    )
    def test_a_worker_only_when_two_processes_fit(self, monkeypatch, threads, cpus, starts_worker):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert worker.analysis_jobs(threads).fork == starts_worker

    def test_inline_when_no_process_can_start(self, monkeypatch):
        tried = []

        def no_process():
            tried.append(True)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_process)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        fds = len(os.listdir("/proc/self/fd"))
        with worker.analysis_jobs(1) as jobs:
            jobs.submit("pid", os.getpid)
            jobs.submit("sorted", sorted, [3, 1, 2])
            assert len(os.listdir("/proc/self/fd")) == fds  # the pipes of the failed forks are closed
            assert jobs.results() == {"pid": os.getpid(), "sorted": [1, 2, 3]}
        assert tried == [True, True]


class TestWorker:
    def test_same_package_and_thread_pin(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        with worker.Jobs() as jobs:
            jobs.submit("pin", os.getenv, "OPENBLAS_NUM_THREADS")
            jobs.submit("spec", importlib.util.find_spec, "topofuse")
            jobs.submit("pid", os.getpid)
            done = jobs.results()
        assert done["pin"] == "3"
        assert os.path.realpath(done["spec"].origin) == os.path.realpath(topofuse.__file__)
        assert done["pid"] != os.getpid()

    @pytest.mark.parametrize("fork", [False, True], ids=["Inline", "Worker"])
    def test_results_by_name_in_submission_order(self, fork):
        with worker.Jobs(fork) as jobs:
            jobs.submit("b", sorted, [3, 1, 2])
            jobs.submit("a", max, 4, 9)
            assert list(jobs.results().items()) == [("b", [1, 2, 3]), ("a", 9)]

    def test_package_error_comes_back_as_itself(self):
        with worker.Jobs() as jobs:
            jobs.submit("radius", auto_epsilon, [[0.0, 0.0]])
            with pytest.raises(OutOfRange, match="need at least 2 spots"):
                jobs.results()

    def test_other_failures_carry_the_worker_traceback(self):
        with worker.Jobs() as jobs:
            jobs.submit("number", int, "x")
            with pytest.raises(RuntimeError, match="(?s)the number failed in the worker process.*ValueError"):
                jobs.results()

    def test_a_worker_that_dies_is_named_with_its_job(self):
        with worker.Jobs() as jobs:
            jobs.submit("exit", os._exit, 3)
            with pytest.raises(WorkerLost, match="exited with status 3 before returning the exit$"):
                jobs.results()

    def test_submit_does_not_wait_for_the_worker(self):
        # the CLI's heap policy puts these 1 MB blocks on the heap: the fork copies the page
        # tables of 64 MB live, and the trim hands back the 64 MB freed among them
        worker.keep_freed_memory()
        heap = [np.ones(2**17) for _ in range(128)]
        del heap[::2]
        big = np.arange(2**18, dtype=np.float64)  # 2 MB, far more than a pipe holds
        with worker.Jobs() as jobs:
            start = time.perf_counter()
            jobs.submit("sum", _sum_after, 0.3, big)
            took = time.perf_counter() - start
            big[:] = 0.0  # the child sees the array as it was at submit
            done = jobs.results()
        assert took < 0.05
        assert done == {"sum": float(np.arange(2**18).sum())}

    def test_one_child_at_a_time(self, forked):
        big = np.arange(2**18, dtype=np.float64)
        with worker.Jobs() as jobs:
            jobs.submit("sum", _sum_after, 0.2, big)
            start = time.perf_counter()
            jobs.submit("pid", os.getpid)  # waits for the first child, then forks its own
            waited = time.perf_counter() - start
            big[:] = 0.0
            done = jobs.results()
        assert waited > 0.1 and len(forked) == 2
        assert done == {"sum": float(np.arange(2**18).sum()), "pid": forked[1]}

    def test_an_unpicklable_package_error_carries_the_worker_traceback(self):
        with worker.Jobs() as jobs:
            jobs.submit("check", _raise_unpicklable)
            with pytest.raises(RuntimeError, match="(?s)the check failed in the worker process.*Unpicklable: no pickle"):
                jobs.results()

    def test_leaving_early_kills_and_reaps_the_child(self, forked):
        start = time.perf_counter()
        with pytest.raises(KeyError):
            with worker.Jobs() as jobs:
                jobs.submit("sleep", time.sleep, 60)
                raise KeyError("the caller failed")
        assert time.perf_counter() - start < 5
        assert len(forked) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forked[0], os.WNOHANG)

    def test_text_buffered_before_submit_is_written_once(self):
        # stdout is a buffered pipe, so the print stays in the process's buffer until a flush
        code = (
            "import sys\n"
            "from topofuse import worker\n"
            "print('before submit')\n"
            "with worker.Jobs() as jobs:\n"
            "    jobs.submit('flush', sys.stdout.flush)\n"
            "    jobs.results()\n"
        )
        pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(worker.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p)}
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "before submit\n"
