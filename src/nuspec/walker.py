"""Orbit walks on a second CPU.

A Walker is a forked child that walks orbits while the parent computes on
them.  It walks at most two, in order: first a streamed orbit, whose rows
it writes to a pipe as raw float64 pairs, BLOCK rows a write, then an
orbit kept whole in a shared anonymous mapping, after which it writes the
kept orbit's row count, 8 bytes, to the same pipe.  A full pipe blocks the
child, so a stream of any length keeps no more than the pipe's buffer (64
KiB on Linux by default).  The parent reads at most BLOCK rows at a time
and keeps whole rows only.  The child steps the same Python floats the
parent would, so every row is bitwise the inline one.

While the walker lives the parent's thread is pinned to the CPU it runs on
and the child to the other usable CPUs: a scheduler that does not balance
load would otherwise run both on one CPU.  The parent's affinity is
restored when the walker closes.

Every failure falls back to an inline walk: no os.fork, no process or
mapping to spare, or one usable CPU walk everything inline from the start.
A child that exits early leaves the stream to be continued inline from its
last whole row, since a walk depends only on its current point, and the
kept orbit, unless its row count came, to be walked inline.  The child
leaves by os._exit, so it writes nothing to the stdout or stderr it
inherits and runs no exit handler; the walker kills and reaps it if it is
still running at close.
"""

from __future__ import annotations

import gc
import mmap
import os
import signal
from collections import deque
from contextlib import suppress
from itertools import islice
from typing import NamedTuple

import numpy as np

from .dynamics import SystemSpec, orbit_array, walk, walk_rows

# rows of a streamed block
BLOCK = 2048


class Orbit(NamedTuple):
    """Rows skip .. skip + count - 1 of the orbit of (x, y), folded into
    the map's space as orbit_array folds it."""

    system: SystemSpec
    x: float
    y: float
    skip: int
    count: int

    def first_row(self) -> list:
        """Row skip as a [x, y] list of Python floats, walked and not kept."""
        row = self.system.space.fold(np.array([self.x, self.y], dtype=float)).tolist()
        if self.skip:
            row = list(deque(islice(walk(self.system, *row), 2 * self.skip), maxlen=2))
        return row


def _after(system: SystemSpec, row: list, count: int):
    """The count rows that follow row on its orbit, in blocks of at most BLOCK rows."""
    return walk_rows(walk(system, *row), count, BLOCK)


def _stream(orbit: Orbit):
    """The orbit's rows, walked inline: its first row as a block of one,
    then blocks of at most BLOCK rows."""
    row = orbit.first_row()
    yield np.array([row])
    yield from _after(orbit.system, row, orbit.count - 1)


def _pin_plan():
    """(usable CPUs, the parent's CPU), or None with fewer than two usable CPUs."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if len(cpus) < 2:
        return None
    try:
        # field 39 of the thread's stat line, the CPU it last ran on
        with open("/proc/thread-self/stat", "rb") as fh:
            mine = int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        mine = None
    return cpus, mine if mine in cpus else min(cpus)


def _set_affinity(cpus):
    # pinning only places the work: a host that refuses it runs it unpinned
    with suppress(OSError):
        os.sched_setaffinity(0, cpus)


def _write(fd, data):
    # a signal can cut a write to a pipe short; the rest follows it
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view) :]


class Walker:
    """A walker for the with-block: it walks stream, then kept, in a forked
    child, or inline.  blocks() serves stream, array() serves kept."""

    def __init__(self, stream: Orbit | None = None, kept: Orbit | None = None):
        self.stream, self.kept = stream, kept
        self.pid = None
        plan = _pin_plan() if hasattr(os, "fork") else None
        if plan is None or any(o.count < 1 for o in (stream, kept) if o):
            return  # one CPU, no fork, or an empty orbit, whose inline walk says why
        try:
            self.shared = mmap.mmap(-1, 16 * kept.count) if kept else None
        except (OSError, ValueError, OverflowError):
            return  # an oversized orbit: the inline walk says why
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            if self.shared is not None:
                self.shared.close()
            return
        cpus, mine = plan
        if pid == 0:
            status = 1
            try:
                gc.disable()  # no finalizer of the parent's garbage runs twice
                os.close(read_fd)
                _set_affinity(cpus - {mine})
                self._child(write_fd)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        self.pid, self.fd = pid, read_fd
        self.cpus, self.reaped, self.handed = cpus, False, False
        _set_affinity({mine})
        self._piped = self._piped_blocks()

    def _child(self, fd):
        if self.stream:
            for block in _stream(self.stream):
                _write(fd, block)
        if self.kept:
            count = self.kept.count
            rows = np.ndarray((count, 2), buffer=self.shared)
            rows[0] = row = self.kept.first_row()
            rows[1:] = np.fromiter(walk(self.kept.system, *row), float, 2 * (count - 1)).reshape(-1, 2)
            _write(fd, count.to_bytes(8, "little"))

    def _reap(self):
        os.waitpid(self.pid, 0)
        self.reaped = True

    def _piped_blocks(self):
        """The streamed rows the child writes, at most BLOCK rows a read and
        whole rows only; ends early, with the child reaped, at end of file."""
        left, torn = self.stream.count if self.stream else 0, b""
        while left:
            got = torn + os.read(self.fd, 16 * min(BLOCK, left) - len(torn))
            if len(got) == len(torn):
                self._reap()
                return
            whole = len(got) - len(got) % 16
            got, torn = got[:whole], got[whole:]
            if got:
                left -= whole // 16
                yield np.frombuffer(got).reshape(-1, 2)

    def blocks(self):
        """The stream's rows in blocks, from the child and, if it fails,
        walked inline from the last whole row it wrote."""
        if self.pid is None:
            yield from _stream(self.stream)
            return
        got, last = 0, None
        for block in self._piped:
            got, last = got + len(block), block[-1]
            yield block
        if last is None:
            yield from _stream(self.stream)
        else:
            yield from _after(self.stream.system, last.tolist(), self.stream.count - got)

    def array(self) -> np.ndarray:
        """The kept orbit, as the mapped rows the child wrote, with no copy,
        or walked inline.  Rows of the stream not read yet are passed over."""
        o = self.kept
        if self.pid is not None:
            for _ in self._piped:
                pass
            if not self.reaped:
                post = os.read(self.fd, 8)
                self._reap()
                if post == o.count.to_bytes(8, "little"):
                    self.handed = True
                    return np.ndarray((o.count, 2), buffer=self.shared)
        # first_row is folded already, and a second fold leaves it as it is
        return orbit_array(o.system, *o.first_row(), n_fwd=o.count - 1)

    def __enter__(self) -> "Walker":
        return self

    def __exit__(self, *exc):
        if self.pid is None:
            return
        try:
            if not self.reaped:
                os.kill(self.pid, signal.SIGKILL)
                self._reap()
        finally:
            os.close(self.fd)
            if self.shared is not None and not self.handed:
                self.shared.close()
            _set_affinity(self.cpus)
