"""Work that runs beside the caller's own, in a forked child or inline.

`Fork` runs one call in a child; `feed` draws a sequence of array lists one
ahead of the caller. At most one child runs at a time, for the first that
asks, once `allow` spares a CPU for it. `keep_freed_memory()` sets the heap
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
_spare = False  # whether a child may start: set by `allow`, taken by `_start`, given back when it is reaped


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


def allow(threads: int):
    """Spare one CPU for a child when `threads` BLAS threads fit twice into this process's CPUs."""
    global _spare
    affinity = getattr(os, "sched_getaffinity", None)
    _spare = affinity is not None and len(affinity(0)) // threads >= 2


class Fork:
    """`fn(*args)` run in a forked child while the caller goes on; `result()` returns it or raises its error.

    The child runs on this process's memory as it is when the `Fork` is made.
    The call runs inline in `result()` instead when `_start` forks no child. A
    child's error is raised as `_reply` raises it, naming the call by `name`.
    Leaving the `with` block before `result()` kills and reaps the child.
    """

    def __init__(self, name, fn, *args):
        self.name, self._call = name, lambda: fn(*args)
        self._child = _start(fn, args)  # (pid, the read end of its reply pipe) until its result is read

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._child:
            _kill(*self._child)
            self._child = None

    def result(self):
        if self._child is None:
            return self._call()
        child, self._child = self._child, None
        return _reply(self.name, *child)


def feed(draw, count):
    """Yield `count` results of `draw()`, each a new list of arrays shaped like the first.

    The first is drawn here. Forked, its arrays lay out two slots of shared
    memory and it is copied into slot 0, so this process holds no draw of its
    own; a child, continuing from this process's state at that moment, draws
    the others one ahead of the caller: each into the slot the caller is not
    reading, then one byte with the slot's index on a pipe. A result stays
    valid until the next is asked for, when its slot goes back to the child;
    a child's failure is raised here as `Fork` raises it. Inline (no spare CPU,
    or a mapping, pipe or fork that fails) each is drawn here when asked for.
    Close the generator (`contextlib.closing`) on every exit: that kills and
    reaps the child. A child whose caller died reads the end of its pipe and
    exits.
    """
    arrays, child = draw(), None
    if count > 1 and _spare and (slots := _slots(arrays)):
        arrays = slots[0]  # the draw is freed before the fork: the child's trim leaves its pages to this process
        child = _start(_feeder, (draw, slots, count), inbound=True)
    try:
        if child is None:
            yield arrays
            del arrays
            for _ in range(count - 1):
                yield draw()
            return
        del arrays
        pid, ready, free = child
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
            _kill(*child)


def _slots(first):
    """Two slots of shared memory, each laid out like the arrays `first`, with `first` copied into slot 0; or None."""
    import numpy as np  # not at import: the CLI pins the BLAS threads before numpy loads

    offsets, size = [], 0
    for a in first:
        offsets.append(size)
        size += -(-a.nbytes // 64) * 64  # each array starts 64-byte aligned, as numpy allocates
    try:
        shared = mmap.mmap(-1, 2 * max(size, 1))  # shared with a child forked later
    except OSError:  # no memory left to map
        return None
    slots = [
        [np.ndarray(a.shape, a.dtype, buffer=shared, offset=s * size + off) for a, off in zip(first, offsets)]
        for s in (0, 1)
    ]
    for a, v in zip(first, slots[0]):
        v[...] = a
    return slots


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


def _start(fn, args, inbound=False):
    """Fork a child on the spare CPU that runs `fn(*args)` under `_run_child`, which replies on a new pipe.

    Returns the child's pid and the pipe's read end, or None, forking nothing,
    when the CPU is taken or a pipe or fork fails. With `inbound`, a second
    pipe runs from this process to the child: `fn` also gets the reply pipe's
    write end and this pipe's read end, and the pipe's write end is returned
    third. The child holds the CPU until `_reply` or `_kill` reaps it, and
    forks nothing itself. It trims its heap first, so this process reuses the
    freed memory `keep_freed_memory` keeps without copying it.
    """
    global _spare
    if not _spare:
        return None
    fds, _spare = [], False
    try:
        for _ in range(1 + inbound):
            fds += os.pipe()
        pid = _fork()
    except OSError:  # no process, memory or descriptor left
        for fd in fds:
            os.close(fd)
        _spare = True
        return None
    r, w, *back = fds
    mine, theirs = [r, *back[1:]], [w, *back[:1]]  # this process's ends and the child's
    for fd in theirs if pid else mine:
        os.close(fd)  # a child whose caller died then reads the end of the inbound pipe
    if pid == 0:
        _run_child(fn, (*args, *theirs) if inbound else args, w)
    return (pid, *mine)


def _fork():
    """os.fork, with stdout and stderr flushed first so text buffered here is written once."""
    sys.stdout.flush()
    sys.stderr.flush()
    return os.fork()


def _kill(pid, *fds):
    """Kill and reap child `pid`, giving its CPU back, then close its pipe ends `fds`."""
    global _spare
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    _spare = True
    for fd in fds:
        os.close(fd)


def _reply(name, pid, fd, head=b""):
    """Return the result in child `pid`'s `_run_child` reply on `fd`, or raise the error it sent.

    `head` holds the reply's bytes already read; `fd` is closed and the child
    reaped, giving its CPU back.
    """
    global _spare
    with open(fd, "rb") as pipe:
        data = head + pipe.read()
    status = os.waitpid(pid, 0)[1]
    _spare = True
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
