"""Analyses that run beside the caller's own work, each in a forked child (`Jobs`) or inline.

`keep_freed_memory()` sets the heap policy the CLI runs under.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys

from .errors import TopofuseError, WorkerLost

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt(3) parameters
MMAP_THRESHOLD = 32 * 1024 * 1024  # the ceiling of glibc's own adaptive threshold


def _libc(name, *argtypes):
    """The C library's int function `name` on the named ctypes `argtypes`; where it has none, a no-op."""
    import ctypes

    try:
        fn = getattr(ctypes.CDLL(None), name)
    except (AttributeError, OSError, TypeError):  # no such function, or no C library to load
        return lambda *args: 0
    fn.argtypes, fn.restype = [getattr(ctypes, t) for t in argtypes], ctypes.c_int
    return fn


def keep_freed_memory():
    """Keep freed memory in this process's heap instead of handing it back to the kernel.

    Training allocates its temporaries, mostly 100-700 KB arrays, afresh each
    epoch. By glibc's defaults a block over 128 KB is mmap'ed and freed heap is
    trimmed, so every epoch would fault those pages in again. Here blocks up to
    MMAP_THRESHOLD come from the heap, and the heap is never trimmed. Does
    nothing where the C library has no mallopt.
    """
    mallopt = _libc("mallopt", "c_int", "c_int")
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, -1)


def analysis_jobs(threads):
    """Jobs that fork when `threads` BLAS threads fit twice into this process's CPUs, else run inline."""
    affinity = getattr(os, "sched_getaffinity", None)
    return Jobs(fork=bool(threads) and affinity is not None and len(affinity(0)) // threads >= 2)


class Jobs:
    """Named jobs, each run in a forked child while the caller goes on, or inline by `results()`.

    `submit(name, fn, *args)` waits for the earlier child, if any, then forks
    one that runs `fn(*args)` on this process's memory as it is at that moment;
    the job runs inline when forking is off or a fork or pipe fails. Stdout and
    stderr are flushed before the fork, so text buffered here is written once.
    The child first trims its heap (glibc's malloc_trim), so this process
    reuses the freed memory `keep_freed_memory` keeps without copying it.
    `results()` returns every result by name, in submission order.
    """

    def __init__(self, fork=True):
        self.fork = fork
        self._jobs = {}  # name -> a function returning its result
        self._child = None  # (name, pid, the read end of its pipe) of the child not yet reaped

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._child:
            _, pid, fd = self._child
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
            self._child = None

    def submit(self, name, fn, *args):
        if self._child:  # one child at a time
            earlier, value = self._child[0], self._wait()
            self._jobs[earlier] = lambda: value
        self._jobs[name] = lambda: fn(*args)
        if self.fork:
            with contextlib.suppress(OSError):  # no process or memory left
                self._start(name, fn, args)

    def _start(self, name, fn, args):
        sys.stdout.flush()
        sys.stderr.flush()
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if pid == 0:
            _run_child(fn, args, w)
        os.close(w)
        self._child, self._jobs[name] = (name, pid, r), self._wait

    def results(self) -> dict:
        return {name: job() for name, job in self._jobs.items()}

    def _wait(self):
        name, pid, fd = self._child
        with open(fd, "rb", closefd=False) as pipe:
            data = pipe.read()
        status = os.waitpid(pid, 0)[1]
        os.close(fd)
        self._child = None
        try:
            kind, value = pickle.loads(data)
        except (EOFError, pickle.UnpicklingError):
            code = os.waitstatus_to_exitcode(status)
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise WorkerLost(f"the worker process {how} before returning the {name}") from None
        if kind == "error":
            raise value
        if kind == "crash":
            raise RuntimeError(f"the {name} failed in the worker process:\n{value}")
        return value


def _run_child(fn, args, fd):
    """Trim the heap, write ("ok", fn(*args)), ("error", a TopofuseError) or ("crash", a traceback) to `fd`; exit."""
    try:
        import traceback

        _libc("malloc_trim", "c_size_t")(0)
        try:
            try:
                data = pickle.dumps(("ok", fn(*args)), protocol=pickle.HIGHEST_PROTOCOL)
            except TopofuseError as e:
                data = pickle.dumps(("error", e))
        except Exception:  # any other failure, or one to pickle a result or an error (traced from the error)
            data = pickle.dumps(("crash", traceback.format_exc()))
        with open(fd, "wb") as pipe:
            pipe.write(data)
        os._exit(0)
    finally:
        os._exit(1)  # reached only when no reply could be written
