"""Analyses that run beside the caller's own work, in one second process or inline.

`analysis_jobs(threads)` returns a `Worker` when `--threads` was given and the
CPUs this process may run on hold two processes of that many BLAS threads,
and `Inline` otherwise. Both take `submit(name, fn, *args)` in the order the
jobs should run and return every result by name from `results()`. `fn` is a
module-level function, pickled by reference, and its arguments, arrays
included, are pickled with it: a worker gets its data from the caller and
reads no input file itself. Use either as a context manager: leaving it early
stops the worker at once.

`keep_freed_memory()` sets the heap policy the CLI and the worker run under.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import sys

from .errors import TopofuseError, WorkerLost

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt(3) parameters
MMAP_THRESHOLD = 32 * 1024 * 1024  # the ceiling of glibc's own adaptive threshold


def keep_freed_memory():
    """Keep freed memory in this process's heap instead of handing it back to the kernel.

    Training allocates its temporaries, mostly 100-700 KB arrays, afresh each
    epoch. By glibc's defaults a block over 128 KB is mmap'ed and freed heap is
    trimmed, so every epoch would fault those pages in again. Here blocks up to
    MMAP_THRESHOLD come from the heap, and the heap is never trimmed. Does
    nothing where the C library has no mallopt.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to load
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, -1)


def analysis_jobs(threads):
    """A Worker when `threads` BLAS threads fit twice into this process's CPUs, else Inline.

    A worker that cannot be started (no process or memory left) also means Inline.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if threads and affinity is not None and len(affinity(0)) // threads >= 2:
        try:
            return Worker()
        except OSError:
            pass
    return Inline()


class Inline:
    """Runs every job in this process, in submission order, when `results()` is called."""

    def __init__(self):
        self._jobs = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def submit(self, name, fn, *args):
        self._jobs[name] = (fn, args)

    def results(self) -> dict:
        return {name: fn(*args) for name, (fn, args) in self._jobs.items()}


class Worker:
    """One Python process that runs the jobs while the caller goes on.

    Started by fork-exec, so it shares no memory with this process. It puts the
    directory of this package first on its path, inherits the environment (and
    with it the BLAS thread pins), reads pickled jobs from its stdin and writes
    one pickled result per job to its stdout, in order. It imports numpy
    before it reads a job, so the first job's arrays do not wait on that import.
    `submit` pickles the job at once and hands the bytes to a feeder thread that
    writes them, so the caller never waits on the pipe while the worker starts.
    """

    def __init__(self):
        import queue
        import subprocess
        import threading

        self._jobs = []
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = f"import sys; sys.path.insert(0, {root!r}); import numpy; from topofuse.worker import serve; serve()"
        self._proc = subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._feed = queue.SimpleQueue()
        self._feeder = threading.Thread(target=self._write_jobs, daemon=True)
        self._feeder.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._proc.returncode is None:
            self._proc.kill()
        self._proc.wait()
        self._stop_feeder()
        for pipe in (self._proc.stdin, self._proc.stdout):
            with contextlib.suppress(OSError):
                pipe.close()

    def submit(self, name, fn, *args):
        self._jobs.append(name)
        # pickled now: a later change to the caller's arrays cannot reach the worker
        self._feed.put(pickle.dumps((fn, args), protocol=pickle.HIGHEST_PROTOCOL))

    def _write_jobs(self):
        # a dead worker breaks the pipe; results() then names the first job it did not answer
        with contextlib.suppress(BrokenPipeError):
            for data in iter(self._feed.get, None):
                self._proc.stdin.write(data)
                self._proc.stdin.flush()
                del data  # freed now, not when the next job comes: the caller trains meanwhile

    def _stop_feeder(self):
        self._feed.put(None)
        self._feeder.join()

    def results(self) -> dict:
        self._stop_feeder()
        with contextlib.suppress(BrokenPipeError):
            self._proc.stdin.close()  # no more jobs: the worker exits after the last one
        out = {}
        for name in self._jobs:
            try:
                status, value = pickle.load(self._proc.stdout)
            except (EOFError, pickle.UnpicklingError):
                code = self._proc.wait()
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise WorkerLost(f"the worker process {how} before returning the {name}") from None
            if status == "error":
                raise value
            if status == "crash":
                raise RuntimeError(f"the {name} failed in the worker process:\n{value}")
            out[name] = value
        self._proc.wait()
        return out


def serve():
    """Worker entry point: run each (fn, args) job from stdin, write (status, value) to stdout.

    A reader thread drains stdin and a writer thread fills stdout, so neither
    side blocks on a full pipe while the other computes. The first failing job
    ends the worker: a TopofuseError goes back as "error" with the exception,
    anything else as "crash" with its traceback.
    """
    keep_freed_memory()
    import queue
    import threading
    import traceback

    results = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # whatever an analysis prints goes to stderr, not into the results
    jobs, done = queue.SimpleQueue(), queue.SimpleQueue()

    def read():
        try:
            while True:
                jobs.put(pickle.load(sys.stdin.buffer))
        except EOFError:
            pass
        except Exception as e:  # a job that cannot be read fails in its turn
            jobs.put((_fail, (e,)))
        jobs.put(None)

    def write():
        for item in iter(done.get, None):
            try:
                data = pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:
                data = pickle.dumps(("crash", traceback.format_exc()))
            results.write(data)
            results.flush()

    threading.Thread(target=read, daemon=True).start()
    writer = threading.Thread(target=write)
    writer.start()
    for fn, args in iter(jobs.get, None):
        try:
            done.put(("ok", fn(*args)))
        except TopofuseError as e:
            done.put(("error", e))
            break
        except Exception:
            done.put(("crash", traceback.format_exc()))
            break
    done.put(None)
    writer.join()


def _fail(error):
    raise error
