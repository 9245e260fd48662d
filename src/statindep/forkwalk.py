"""A chunk walk shared with one forked worker process.

:func:`steps` hands out the steps of a :func:`sequences.walk`: this
process computes the even steps and a worker made by ``os.fork`` the odd
ones, each with the same ``compute`` function on the same values, and every
step comes back here in step order.  The worker sends each step's output
through a pipe straight into this process's step buffers, so no value is
held twice and no bit depends on which process computed it.  Plain
``fork`` and ``pipe``: no pool and no helper process.

For the walk, the two processes are pinned to two different CPUs and the
pipe is widened to hold whole steps.  Otherwise, on a 2-CPU host, each
handoff through a 64 KiB pipe wakes the other process onto the waker's
CPU, and the two share one CPU a scheduler tick at a time: a 32-step walk
of two Kronecker sequences took 145 ms against 127 ms in one process,
and 104 ms against 144 ms once pinned and widened.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import threading
import time
from typing import Callable, Iterator, Sequence

import numpy as np

from .sequences import BoundedSequence, walk


# Bytes a walk's pipe may buffer: /proc/sys/fs/pipe-max-size by default,
# room for a step of four sequences' values.
PIPE_BYTES = 1 << 20

# A worker is made only when the rest of the walk, projected from its first
# step, would take this long in one process.  After a fork this process
# takes a page fault at its first write to each page it had, and it writes
# nearly all of them again by the time it exits: on a 2-CPU host a CLI run
# of about 40 MB spends about 30 ms more, against about half the walk that
# the worker saves: a 7-step walk of two Kronecker sequences (the
# benchmark's pair-family) lost 27 ms end to end.
FORK_MIN_S = 0.1


def usable_cpus() -> list[int]:
    """The CPUs this process may run on, sorted (none where it cannot
    tell)."""
    if not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def steps(seqs: Sequence[BoundedSequence], depth: int, width: int,
          compute: Callable, layout: Callable,
          send_values: bool) -> Iterator[tuple[int, list | None, list]]:
    """``(start, values, parts)`` of every step of the walk of ``seqs`` to
    ``depth``, ``width`` indices a step, in step order.

    ``compute(start, values)`` returns a step's ``(parts, out)``: its
    parts, as views of ``out``, one contiguous float64 array.
    ``layout(start)`` returns the same views, unfilled, so a worker's
    ``out`` is read into them.  ``values`` are the walk's (None for a
    worker's step unless ``send_values``); values and parts are
    overwritten by the next step.

    Step 0 is computed here.  A worker then computes the odd steps when at
    least two CPUs are usable, no other thread is alive, SIGCHLD is not
    ignored and the rest of the walk, at step 0's time a step, would take
    ``FORK_MIN_S`` or more; otherwise every step is computed here.  During
    the walk this process runs on the first usable CPU and the worker on
    the second; this process's CPU mask is restored after.
    SequenceExhausted is raised before any fork.  A worker's exception is
    raised here, with its type and message, at its step, and the worker
    is killed and reaped however the walk ends.
    """
    m = len(seqs)
    count = -(-depth // width)
    buffers = np.empty((m, width))
    took = time.perf_counter()
    for start, values in walk(seqs, [depth] * m, width, steps=range(1),
                              buffers=buffers):
        yield start, values, compute(start, values)[0]
    took = time.perf_counter() - took
    pid, cpus = None, usable_cpus()
    # where SIGCHLD is ignored the kernel reaps the worker, and its pid
    # could name another process by the time it is killed
    if count > 1 and (count - 1) * took >= FORK_MIN_S \
            and hasattr(os, "fork") and len(cpus) > 1 \
            and threading.active_count() == 1 \
            and signal.getsignal(signal.SIGCHLD) != signal.SIG_IGN:
        read, write = os.pipe()
        import fcntl  # Linux, as sched_getaffinity is
        try:
            fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        except OSError:  # over this host's limit: the default size
            pass
        mask = os.sched_getaffinity(0)
        try:
            pid = os.fork()
        except OSError:  # no process to spare: walk alone
            os.close(read)
            os.close(write)
    if pid is None:
        for start, values in walk(seqs, [depth] * m, width,
                                  steps=range(1, count), buffers=buffers):
            yield start, values, compute(start, values)[0]
        return
    if pid == 0:  # the worker: never returns
        os.close(read)
        _worker(seqs, depth, width, compute, buffers, send_values, write,
                cpus[1])
    try:
        os.sched_setaffinity(0, cpus[:1])
        os.close(write)
        own = walk(seqs, [depth] * m, width, steps=range(2, count, 2),
                   buffers=buffers)
        header = np.zeros(1, dtype=np.int64)
        for k in range(1, count):
            if k % 2 == 0:
                start, values = next(own)
                yield start, values, compute(start, values)[0]
                continue
            start = k * width
            parts, out = layout(start)
            _read_exactly(read, header)
            if header[0]:
                raise pickle.loads(_read_exactly(read, bytearray(
                    int(header[0]))))
            if send_values:
                _read_exactly(read, buffers)
            _read_exactly(read, out)
            stop = min(width, depth - start)
            yield start, [b[:stop] for b in buffers] if send_values \
                else None, parts
    finally:
        try:
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        finally:
            os.sched_setaffinity(0, mask)


def _worker(seqs, depth, width, compute, buffers, send_values, fd,
            cpu) -> None:
    """On ``cpu``, compute every odd step and write each to ``fd``: a zero
    int64, the step's values when ``send_values``, and its ``out``; or,
    at the first exception, its pickle's length and the pickle.  Exits
    through ``os._exit``, so nothing inherited from the parent runs or
    flushes."""
    code = 1
    try:
        gc.disable()  # collect none of the parent's garbage here
        os.sched_setaffinity(0, [cpu])
        odd = range(1, -(-depth // width), 2)
        own = walk(seqs, [depth] * len(seqs), width, steps=odd,
                   buffers=buffers)
        ok = np.zeros(1, dtype=np.int64)
        for _ in odd:
            try:
                start, values = next(own)
                out = compute(start, values)[1]
            except Exception as exc:
                try:
                    error = pickle.dumps(exc)
                    pickle.loads(error)
                except Exception:
                    error = pickle.dumps(RuntimeError(
                        f"{type(exc).__name__}: {exc}"))
                _write_all(fd, [np.array([len(error)], dtype=np.int64),
                                error])
                break
            _write_all(fd, [ok] + ([buffers] if send_values else []) + [out])
        code = 0
    finally:
        os._exit(code)


def _write_all(fd: int, chunks: list) -> None:
    for chunk in chunks:
        view = memoryview(chunk).cast("B")
        while view.nbytes:
            view = view[os.write(fd, view):]


def _read_exactly(fd: int, buffer):
    """Fill ``buffer`` from ``fd``, in place; return it."""
    view = memoryview(buffer).cast("B")
    while view.nbytes:
        got = os.readv(fd, [view])
        if not got:
            raise ChildProcessError(
                "walk worker ended before sending its steps")
        view = view[got:]
    return buffer
