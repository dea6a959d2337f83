import contextlib
import importlib.util
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import topofuse
from topofuse import worker
from topofuse.errors import OutOfRange, ShapeMismatch, WorkerLost
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


class TestAnalysisJobs:
    @pytest.mark.parametrize(
        "threads, cpus, starts_worker",
        [(None, 8, False), (1, 1, False), (1, 2, True), (2, 3, False), (2, 4, True), (0, 4, False)],
    )
    def test_a_worker_only_when_two_processes_fit(self, monkeypatch, threads, cpus, starts_worker):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert worker.can_fork(threads) == starts_worker

    def test_inline_when_no_process_can_start(self, monkeypatch):
        tried = []

        def no_process():
            tried.append(True)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_process)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        fds = len(os.listdir("/proc/self/fd"))
        with worker.Jobs(worker.can_fork(1)) as jobs:
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


def _counting_draw(fail_at=None, action=None):
    """A draw of a float and an int array from a seeded generator; call `fail_at` runs `action` instead."""
    rng, calls = np.random.default_rng(3), []

    def draw():
        calls.append(len(calls) + 1)
        if len(calls) == fail_at:
            action()
        return [rng.normal(size=(5, 3)), rng.integers(0, 9, size=7)]

    return draw, calls


def _take(draws, count):
    """Copies of the first `count` results, the generator closed after."""
    with contextlib.closing(draws):
        return [[a.copy() for a in next(draws)] for _ in range(count)]


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _gone(pid):
    """True once `pid` has exited: no such process, or a zombie its new parent has yet to reap."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def _fail():
    raise OutOfRange("the third draw failed")


class TestFeed:
    @pytest.mark.parametrize("count", [1, 2, 3, 7])
    def test_forked_and_inline_results_are_the_same(self, forked, count):
        runs = [_take(worker.feed(_counting_draw()[0], count, fork), count) for fork in (False, True)]
        assert len(forked) == (count > 1)
        _assert_reaped(forked)
        for inline, remote in zip(*runs):
            assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(inline, remote))

    def test_the_first_is_drawn_here_and_the_rest_in_the_child(self, forked):
        draw, calls = _counting_draw()
        assert len(_take(worker.feed(draw, 6), 6)) == 6
        assert calls == [1] and len(forked) == 1
        _assert_reaped(forked)

    def test_a_draw_error_comes_back_as_itself(self, forked):
        draw, calls = _counting_draw(3, _fail)
        with pytest.raises(OutOfRange, match="the third draw failed"):
            _take(worker.feed(draw, 5), 5)
        assert calls == [1] and len(forked) == 1
        _assert_reaped(forked)

    def test_a_feeder_that_dies_is_named_with_its_draw(self, forked):
        draw, _ = _counting_draw(3, lambda: os._exit(3))
        with pytest.raises(WorkerLost, match="exited with status 3 before returning the feed's draw 3$"):
            _take(worker.feed(draw, 5), 5)
        _assert_reaped(forked)

    def test_a_draw_of_another_layout_raises(self, forked):
        calls = []

        def other_shape():
            calls.append(len(calls) + 1)
            return [np.zeros((5, 3) if calls == [1] else (5, 4)), np.zeros(7, dtype=np.int64)]

        with pytest.raises(ShapeMismatch, match="draw 2 does not fit the layout of the first"):
            _take(worker.feed(other_shape, 3), 3)
        _assert_reaped(forked)

    def test_closing_early_kills_and_reaps_the_child(self, forked):
        draw, _ = _counting_draw(4, lambda: time.sleep(60))
        start = time.perf_counter()
        assert len(_take(worker.feed(draw, 10), 2)) == 2
        assert time.perf_counter() - start < 5
        assert len(forked) == 1
        _assert_reaped(forked)

    def test_inline_when_no_process_can_start(self, monkeypatch):
        def no_process():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_process)
        fds = len(os.listdir("/proc/self/fd"))
        draw, calls = _counting_draw()
        assert len(_take(worker.feed(draw, 4), 4)) == 4
        assert calls == [1, 2, 3, 4]
        assert len(os.listdir("/proc/self/fd")) == fds  # the pipes are closed

    def test_an_orphaned_feeder_exits_on_its_own(self):
        # the caller takes two results, then dies without closing anything
        code = (
            "import os, signal\n"
            "import numpy as np\n"
            "from topofuse import worker\n"
            "fork = os.fork\n"
            "def recorded():\n"
            "    pid = fork()\n"
            "    if pid:\n"
            "        print(pid, flush=True)\n"
            "    return pid\n"
            "os.fork = recorded\n"
            "rng = np.random.default_rng(0)\n"
            "draws = worker.feed(lambda: [rng.normal(size=4)], 10)\n"
            "next(draws)\n"
            "next(draws)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(worker.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        feeder = int(proc.stdout)
        deadline = time.perf_counter() + 10
        while not _gone(feeder) and time.perf_counter() < deadline:
            time.sleep(0.05)
        assert _gone(feeder)
