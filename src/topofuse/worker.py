"""Work that runs beside the caller's own, in forked children or inline.

`Jobs` runs named analyses, one child at a time; `feed` draws a sequence of
array lists one ahead of the caller. `keep_freed_memory()` sets the heap
policy the CLI runs under.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import pickle
import signal
import sys

from .errors import ShapeMismatch, TopofuseError, WorkerLost

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


def can_fork(threads) -> bool:
    """Whether `threads` BLAS threads fit twice into this process's CPUs: the rule for any fork, `Jobs` or `feed`."""
    affinity = getattr(os, "sched_getaffinity", None)
    return bool(threads) and affinity is not None and len(affinity(0)) // threads >= 2


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
            _kill(pid, fd)
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
        r, w = os.pipe()
        try:
            pid = _fork()
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
        self._child = None
        return _reply(name, pid, fd)


def feed(draw, count, fork=True):
    """Yield `count` results of `draw()`, each a new list of arrays shaped like the first.

    The first is drawn here. Forked, its arrays lay out two slots of shared
    memory and it is copied into slot 0, so this process holds no draw of its
    own; a child, continuing from this process's state at that moment, draws
    the others one ahead of the caller: each into the slot the caller is not
    reading, then one byte with the slot's index on a pipe. A result stays
    valid until the next is asked for, when its slot goes back to the child;
    a child's failure is raised here as `Jobs` raises it. Inline (`fork` off,
    or a mapping, pipe or fork that fails) each is drawn here when asked for.
    Close the generator (`contextlib.closing`) on every exit: that kills and
    reaps the child. A child whose caller died reads the end of its pipe and
    exits.
    """
    arrays = draw()
    child = None
    if fork and count > 1:
        with contextlib.suppress(OSError):  # no process, memory or descriptor left
            child = _start_feeder(draw, arrays, count)
    try:
        if child is None:
            yield arrays
            del arrays
            for _ in range(count - 1):
                yield draw()
            return
        del arrays
        pid, ready, free, slots = child
        for k in range(count):
            token = bytes([k % 2])
            got = os.read(ready, 1) if k else token
            if got != token:  # the child's reply instead: it failed
                child = None
                os.close(free)
                _reply(f"feed's draw {k + 1}", pid, ready, got)
            yield slots[k % 2]
            if k + 2 < count:  # the child draws into this slot again
                with contextlib.suppress(BrokenPipeError):  # it ended: the next read gives its reply
                    os.write(free, token)
    finally:
        if child is not None:
            _kill(*child[:3])


def _start_feeder(draw, first, count):
    """Lay out the slots after `first`, copy it into slot 0 and fork `feed`'s child.

    Returns the child's pid, the read end of its slot tokens, the write end of
    freed slots and the slots.
    """
    import numpy as np  # not at import: the CLI pins the BLAS threads before numpy loads

    offsets, size = [], 0
    for a in first:
        offsets.append(size)
        size += -(-a.nbytes // 64) * 64  # each array starts 64-byte aligned, as numpy allocates
    shared = mmap.mmap(-1, 2 * max(size, 1))  # anonymous and shared with the child
    slots = [
        [np.ndarray(a.shape, a.dtype, buffer=shared, offset=s * size + off) for a, off in zip(first, offsets)]
        for s in (0, 1)
    ]
    for a, v in zip(first, slots[0]):
        v[...] = a
    fds = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = _fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    ready_r, ready_w, free_r, free_w = fds
    if pid == 0:
        os.close(ready_r)
        os.close(free_w)
        first.clear()  # slot 0 holds it: dropped here, the trim leaves its pages to the caller alone
        _run_child(_feeder, (draw, slots, count, ready_w, free_r), ready_w)
    os.close(ready_w)
    os.close(free_r)
    return pid, ready_r, free_w, slots


def _feeder(draw, slots, count, ready, free):
    """Draw results 2..`count` into alternate slots, announcing each on `ready`; a slot is reused once `free` returns it."""
    for k in range(1, count):
        if k >= 2 and not os.read(free, 1):
            return  # the caller is gone
        slot = slots[k % 2]
        arrays = draw()
        if [(a.shape, a.dtype) for a in arrays] != [(v.shape, v.dtype) for v in slot]:
            raise ShapeMismatch(f"draw {k + 1} does not fit the layout of the first")
        for a, v in zip(arrays, slot):
            v[...] = a
        del arrays
        os.write(ready, bytes([k % 2]))


def _fork():
    """os.fork, with stdout and stderr flushed first so text buffered here is written once."""
    sys.stdout.flush()
    sys.stderr.flush()
    return os.fork()


def _kill(pid, *fds):
    """Kill and reap child `pid`, then close its pipe ends `fds`."""
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    for fd in fds:
        os.close(fd)


def _reply(name, pid, fd, head=b""):
    """Return the result in child `pid`'s `_run_child` reply on `fd`, or raise the error it sent.

    `head` holds the reply's bytes already read; `fd` is closed and the child reaped.
    """
    with open(fd, "rb") as pipe:
        data = head + pipe.read()
    status = os.waitpid(pid, 0)[1]
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
