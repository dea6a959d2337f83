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
        [(1, 1, False), (1, 2, True), (2, 3, False), (2, 4, True)],
    )
    def test_allow_spares_a_cpu_only_when_two_processes_fit(self, monkeypatch, forked, threads, cpus, starts_worker):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        worker.allow(threads)
        with worker.Fork("pid", os.getpid) as job:
            assert (job.result() != os.getpid()) == starts_worker
        assert len(forked) == starts_worker
        _assert_reaped(forked)

    def test_inline_when_no_process_can_start(self, monkeypatch, spare_cpu):
        tried = []

        def no_process():
            tried.append(True)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_process)
        fds = len(os.listdir("/proc/self/fd"))
        with worker.Fork("pid", os.getpid) as pid:
            assert len(os.listdir("/proc/self/fd")) == fds  # the pipe of the failed fork is closed
            assert pid.result() == os.getpid()
        with worker.Fork("sorted", sorted, [3, 1, 2]) as ordered:  # the failed fork gave the CPU back
            assert ordered.result() == [1, 2, 3]
        assert tried == [True, True]


@pytest.mark.usefixtures("spare_cpu")
class TestWorker:
    def test_same_package_and_thread_pin(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        done = {}
        for name, fn, *args in (
            ("pin", os.getenv, "OPENBLAS_NUM_THREADS"),
            ("spec", importlib.util.find_spec, "topofuse"),
            ("pid", os.getpid),
        ):
            with worker.Fork(name, fn, *args) as job:
                done[name] = job.result()
        assert done["pin"] == "3"
        assert os.path.realpath(done["spec"].origin) == os.path.realpath(topofuse.__file__)
        assert done["pid"] != os.getpid()

    @pytest.mark.parametrize("fork", [False, True], ids=["Inline", "Worker"])
    def test_the_result_forked_or_inline(self, forked, fork):
        worker.allow(1 if fork else 2)  # two threads a process do not fit twice into two CPUs
        with worker.Fork("sorted", sorted, [3, 1, 2]) as job:
            assert job.result() == [1, 2, 3]
        assert len(forked) == fork
        _assert_reaped(forked)

    def test_package_error_comes_back_as_itself(self, forked):
        with worker.Fork("radius", auto_epsilon, [[0.0, 0.0]]) as job:
            with pytest.raises(OutOfRange, match="need at least 2 spots"):
                job.result()
        _assert_reaped(forked)

    def test_other_failures_carry_the_worker_traceback(self):
        with worker.Fork("number", int, "x") as job:
            with pytest.raises(RuntimeError, match="(?s)the number failed in the worker process.*ValueError"):
                job.result()

    def test_a_worker_that_dies_is_named_with_its_job(self, forked):
        with worker.Fork("exit", os._exit, 3) as job:
            with pytest.raises(WorkerLost, match="exited with status 3 before returning the exit$"):
                job.result()
        _assert_reaped(forked)

    def test_submit_does_not_wait_for_the_worker(self):
        # the CLI's heap policy puts these 1 MB blocks on the heap: the fork copies the page
        # tables of 64 MB live, and the trim hands back the 64 MB freed among them
        worker.keep_freed_memory()
        heap = [np.ones(2**17) for _ in range(128)]
        del heap[::2]
        big = np.arange(2**18, dtype=np.float64)  # 2 MB, far more than a pipe holds
        start = time.perf_counter()
        with worker.Fork("sum", _sum_after, 0.3, big) as job:
            took = time.perf_counter() - start
            big[:] = 0.0  # the child sees the array as it was at the fork
            assert job.result() == float(np.arange(2**18).sum())
        assert took < 0.05

    def test_an_unpicklable_package_error_carries_the_worker_traceback(self):
        with worker.Fork("check", _raise_unpicklable) as job:
            with pytest.raises(RuntimeError, match="(?s)the check failed in the worker process.*Unpicklable: no pickle"):
                job.result()

    def test_leaving_early_kills_and_reaps_the_child(self, forked):
        start = time.perf_counter()
        with pytest.raises(KeyError):
            with worker.Fork("sleep", time.sleep, 60):
                raise KeyError("the caller failed")
        assert time.perf_counter() - start < 5
        assert len(forked) == 1
        _assert_reaped(forked)

    def test_text_buffered_before_submit_is_written_once(self):
        # stdout is a buffered pipe, so the print stays in the process's buffer until a flush
        code = (
            "import os, sys\n"
            "from topofuse import worker\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "worker.allow(1)\n"
            "print('before the fork')\n"
            "with worker.Fork('flush', sys.stdout.flush) as job:\n"
            "    job.result()\n"
        )
        pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(worker.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p)}
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "before the fork\n"


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


@pytest.mark.usefixtures("two_cpus")
class TestFeed:
    @pytest.mark.parametrize("count", [1, 2, 3, 7])
    def test_forked_and_inline_results_are_the_same(self, forked, count):
        inline = _take(worker.feed(_counting_draw()[0], count), count)
        worker.allow(1)
        runs = [inline, _take(worker.feed(_counting_draw()[0], count), count)]
        assert len(forked) == (count > 1)
        _assert_reaped(forked)
        for inline, remote in zip(*runs):
            assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(inline, remote))

    def test_the_first_is_drawn_here_and_the_rest_in_the_child(self, spare_cpu, forked):
        draw, calls = _counting_draw()
        assert len(_take(worker.feed(draw, 6), 6)) == 6
        assert calls == [1] and len(forked) == 1
        _assert_reaped(forked)

    def test_a_draw_error_comes_back_as_itself(self, spare_cpu, forked):
        draw, calls = _counting_draw(3, _fail)
        with pytest.raises(OutOfRange, match="the third draw failed"):
            _take(worker.feed(draw, 5), 5)
        assert calls == [1] and len(forked) == 1
        _assert_reaped(forked)

    def test_a_feeder_that_dies_is_named_with_its_draw(self, spare_cpu, forked):
        draw, _ = _counting_draw(3, lambda: os._exit(3))
        with pytest.raises(WorkerLost, match="exited with status 3 before returning the feed's draw 3$"):
            _take(worker.feed(draw, 5), 5)
        _assert_reaped(forked)

    def test_a_draw_of_another_layout_raises(self, spare_cpu, forked):
        calls = []

        def other_shape():
            calls.append(len(calls) + 1)
            return [np.zeros((5, 3) if calls == [1] else (5, 4)), np.zeros(7, dtype=np.int64)]

        with pytest.raises(ShapeMismatch, match="draw 2 does not fit the layout of the first"):
            _take(worker.feed(other_shape, 3), 3)
        _assert_reaped(forked)

    def test_closing_early_kills_and_reaps_the_child(self, spare_cpu, forked):
        draw, _ = _counting_draw(4, lambda: time.sleep(60))
        start = time.perf_counter()
        assert len(_take(worker.feed(draw, 10), 2)) == 2
        assert time.perf_counter() - start < 5
        assert len(forked) == 1
        _assert_reaped(forked)

    def test_inline_when_no_process_can_start(self, spare_cpu, monkeypatch):
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
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "worker.allow(1)\n"
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


def _inline_in_the_child():
    """This process's pid, and those a `Fork` and a 3-draw `feed` made here ran in."""
    with worker.Fork("pid", os.getpid) as job:
        pids = [job.result()]
    with contextlib.closing(worker.feed(lambda: [np.array([os.getpid()])], 3)) as draws:
        pids += [int(a[0]) for a, in draws]
    return os.getpid(), pids


def _read_the_result(forked, monkeypatch):
    with worker.Fork("pid", os.getpid) as job:
        assert job.result() != os.getpid()


def _leave_early(forked, monkeypatch):
    with pytest.raises(KeyError):
        with worker.Fork("sleep", time.sleep, 60):
            raise KeyError("the caller failed")


def _child_error(forked, monkeypatch):
    with worker.Fork("radius", auto_epsilon, [[0.0, 0.0]]) as job:
        with pytest.raises(OutOfRange):
            job.result()


def _child_killed(forked, monkeypatch):
    with worker.Fork("sleep", time.sleep, 60) as job:
        os.kill(forked[-1], signal.SIGKILL)
        with pytest.raises(WorkerLost):
            job.result()


def _fork_fails(forked, monkeypatch):
    fork = os.fork

    def fail_once():
        monkeypatch.setattr(os, "fork", fork)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fail_once)
    with worker.Fork("pid", os.getpid) as job:
        assert job.result() == os.getpid()


def _feed_closed_early(forked, monkeypatch):
    assert len(_take(worker.feed(_counting_draw()[0], 5), 2)) == 2


@pytest.mark.usefixtures("spare_cpu")
class TestOneChildAtATime:
    def test_a_child_forks_nothing(self, forked):
        with worker.Fork("nested", _inline_in_the_child) as job:
            child, pids = job.result()
        assert child != os.getpid() and pids == [child] * 4
        assert len(forked) == 1
        _assert_reaped(forked)

    def test_nothing_forks_while_a_feed_is_live(self, forked):
        draw, calls = _counting_draw()
        inner, inner_calls = _counting_draw()
        with contextlib.closing(worker.feed(draw, 5)) as draws:
            next(draws)
            with worker.Fork("pid", os.getpid) as job:
                assert job.result() == os.getpid()
            assert len(_take(worker.feed(inner, 3), 3)) == 3
        assert calls == [1] and inner_calls == [1, 2, 3]
        assert len(forked) == 1
        _assert_reaped(forked)

    @pytest.mark.parametrize(
        "end, children",
        [
            (_read_the_result, 1),
            (_leave_early, 1),
            (_child_error, 1),
            (_child_killed, 1),
            (_fork_fails, 0),
            (_feed_closed_early, 1),
        ],
        ids=["result", "left-early", "child-error", "child-killed", "fork-fails", "feed-closed-early"],
    )
    def test_the_spare_cpu_comes_back(self, forked, monkeypatch, end, children):
        end(forked, monkeypatch)
        assert len(forked) == children
        with worker.Fork("pid", os.getpid) as job:
            assert job.result() != os.getpid()
        assert len(forked) == children + 1
        _assert_reaped(forked)
