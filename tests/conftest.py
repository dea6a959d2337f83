import contextlib
import os
import signal
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from topofuse import worker

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def no_spare_cpu(monkeypatch):
    """Each test starts as library use does, with no spare CPU, whatever a `cli.run` before it allowed."""
    monkeypatch.setattr(worker, "_spare", False)


@pytest.fixture
def two_cpus(monkeypatch):
    """This process on two CPUs, so `worker.allow(1)` spares one for a child."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def spare_cpu(two_cpus):
    """`worker.allow(1)` on two CPUs: the first `Fork` or `feed` that asks gets a child."""
    worker.allow(1)


WATCHDOG_S = 60


@pytest.fixture
def forked(monkeypatch):
    """The pid of every child forked during the test.

    A watchdog kills those not yet reaped after WATCHDOG_S, so a run that
    would wait on a child forever fails the test instead of hanging it.
    """
    started, fired, fork = [], [], os.fork

    def recorded():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    def kill_all():
        fired.append(True)
        for pid in started:
            # waitid (WNOWAIT: no reaping) raises for a reaped pid, which may name another process by now
            with contextlib.suppress(ChildProcessError):
                os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
                os.kill(pid, signal.SIGKILL)

    monkeypatch.setattr(os, "fork", recorded)
    watchdog = threading.Timer(WATCHDOG_S, kill_all)
    watchdog.start()
    yield started
    watchdog.cancel()
    assert not fired, f"a child was still running after {WATCHDOG_S} s"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
