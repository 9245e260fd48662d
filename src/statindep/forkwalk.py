"""The one chunk walk driver, shared with one forked worker process.

:func:`steps` walks several sequences in step, each step reading one
aligned chunk of each sequence's :meth:`~sequences.BoundedSequence.chunks`
whichever process walks it: this process walks the even steps and a
worker made by ``os.fork`` the odd ones, each computed by the same
``compute`` function on the same values and counted into every tally.
Each step's output, one array of the same shape at every step, comes back
here in step order, through a pipe straight into one array like it, and
the worker's counts once, after its last step, so no bit depends on which
process walked a step.  Plain ``fork`` and ``pipe``: no pool and no
helper process.

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

from .sequences import _CHUNK, BoundedSequence


# Bytes a walk's pipe may buffer: /proc/sys/fs/pipe-max-size by default,
# room for whole steps of block sums.
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


def steps(seqs: Sequence[BoundedSequence], depth: int,
          compute: Callable | None,
          tallies: Sequence) -> Iterator[tuple[int, np.ndarray | None]]:
    """``(start, out)`` of every step of one walk of ``seqs``, one aligned
    chunk of ``_CHUNK`` indices a step, in step order, each step counted
    into every tally.

    Each sequence is walked to its reach: ``depth``, or deeper to the
    deepest checkpoint of the tallies that count it.  A step reads one
    aligned chunk of each sequence, so each index is generated once
    however the steps are shared out.  The step from ``start`` has
    ``values[r]``: the chunk v_r(start+1) ... up to v_r(start+_CHUNK) or
    the reach of sequence r, as :meth:`~sequences.BoundedSequence.chunks`
    yields it, or None once ``start`` is past that reach.
    ``compute(start, values)`` returns a step's ``out``: a float64 array
    of the same shape at every step, overwritten by the next one.  A step
    at or past ``depth`` has none (None), so a counting-only walk has
    depth 0 and no ``compute``.

    Step 0 is walked here.  A worker then walks the odd steps when at
    least two CPUs are usable, no other thread is alive, SIGCHLD is not
    ignored and the rest of the walk, at step 0's time a step, would take
    ``FORK_MIN_S`` or more; otherwise every step is walked here.  The
    worker's ``out`` is read into one array like step 0's.  The worker
    counts its steps into zeroed tables of its own, so the two processes
    together hold the table pages it touches twice (this process's peak
    does not grow), and sends them after its last step, to be added in
    here before the walk ends.  During the walk this process runs on the
    first usable CPU and the worker on the second; this process's CPU
    mask is restored after.  SequenceExhausted is raised before any fork.
    A worker's exception is raised here, with its type and message, at
    its step, and the worker is killed and reaped however the walk ends.
    """
    reach = [max([depth] + [t.depth for t in tallies if r in t.members])
             for r in range(len(seqs))]
    for s, stop in zip(seqs, reach):
        s.chunks(0, stop)  # SequenceExhausted now, not at some step
    count = -(-max(reach, default=0) // _CHUNK)

    def walked(ks):
        """``(start, out)`` of each step k in ``ks``."""
        for k in ks:
            start = k * _CHUNK
            values = [None if stop <= start else next(
                s.chunks(start, min(start + _CHUNK, stop)))
                for s, stop in zip(seqs, reach)]
            out = compute(start, values) if start < depth else None
            for tally in tallies:
                tally.add(start, values)
            yield start, out

    took = time.perf_counter()
    theirs = None  # the worker's steps are read into it
    for start, out in walked(range(min(count, 1))):
        theirs = None if out is None else np.empty_like(out)
        yield start, out
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
        yield from walked(range(1, count))
        return
    if pid == 0:  # the worker: never returns
        os.close(read)
        _worker(walked(range(1, count, 2)), tallies, write, cpus[1])
    try:
        os.sched_setaffinity(0, cpus[:1])
        os.close(write)
        own = walked(range(2, count, 2))
        header = np.zeros(1, dtype=np.int64)
        for k in range(1, count):
            if k % 2 == 0:
                yield next(own)
                continue
            start = k * _CHUNK
            _read_exactly(read, header)
            if header[0]:
                raise pickle.loads(_read_exactly(read, bytearray(
                    int(header[0]))))
            yield start, (None if start >= depth
                          else _read_exactly(read, theirs))
        piece = np.empty(_CHUNK, dtype=np.int64)
        for tally in tallies:
            for at in range(0, tally.counts.size, _CHUNK):
                got = _read_exactly(read, piece[:tally.counts.size - at])
                tally.counts[at:at + got.size] += got
    finally:
        try:
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        finally:
            os.sched_setaffinity(0, mask)


def _worker(own, tallies, fd, cpu) -> None:
    """On ``cpu``, walk the steps of ``own`` into zeroed tallies and write
    each step to ``fd``: a zero int64 and its ``out`` (none past the
    walk's depth); or, at the first exception, its pickle's length and
    the pickle.  After the last step, write every tally's counts.  Exits
    through ``os._exit``, so nothing inherited from the parent runs or
    flushes."""
    code = 1
    try:
        gc.disable()  # collect none of the parent's garbage here
        os.sched_setaffinity(0, [cpu])
        for tally in tallies:  # step 0 is counted in the parent
            tally.counts = np.zeros_like(tally.counts)
        ok = np.zeros(1, dtype=np.int64)
        try:
            for _, out in own:
                _write_all(fd, [ok] if out is None else [ok, out])
        except Exception as exc:
            try:
                error = pickle.dumps(exc)
                pickle.loads(error)
            except Exception:
                error = pickle.dumps(RuntimeError(
                    f"{type(exc).__name__}: {exc}"))
            _write_all(fd, [np.array([len(error)], dtype=np.int64), error])
        else:
            _write_all(fd, [tally.counts for tally in tallies])
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
