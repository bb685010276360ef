"""Orbit walks on a second CPU.

A walker is a forked child that walks orbits while the parent computes on
them.  It walks at most two, in order: first a streamed orbit, whose rows it
posts in blocks of at most BLOCK rows through a ring of _SLOTS blocks, then
an orbit kept whole.  Both live in one shared anonymous mapping, the ring
first.  The child posts, on a pipe, the stream's row count after each block
and the kept orbit's row count once every row is written, 8 bytes a post;
the parent frees a ring slot with one byte on a second pipe as soon as it
has copied the block out, so the child runs at most _SLOTS blocks ahead and
a stream of any length keeps _SLOTS * BLOCK rows.  The child steps the same
Python floats the parent would, so every row is bitwise the inline one.

While the walker lives the parent's thread is pinned to the CPU it runs on
and the child to the other usable CPUs: a scheduler that does not balance
load would otherwise run both on one CPU.  The parent's affinity is
restored when the walker closes.

Every failure falls back to an inline walk: no os.fork, no process or
mapping to spare, or one usable CPU walk everything inline from the start.
A child that exits without a post leaves the stream to be continued inline
from its last posted row, since a walk depends only on its current point,
and the kept orbit to be walked inline.  The child leaves by os._exit, so
it writes nothing to the stdout or stderr it inherits and runs no exit
handler; the walker kills and reaps it if it is still running at close.
"""

from __future__ import annotations

import contextvars
import gc
import mmap
import os
import signal
from collections import deque
from contextlib import contextmanager, suppress
from itertools import islice
from typing import NamedTuple

import numpy as np

from .dynamics import SystemSpec, orbit_array, walk

# rows of a streamed block, and blocks the ring holds
BLOCK = 2048
_SLOTS = 8

_live = contextvars.ContextVar("nuspec_walker", default=None)


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
    w = walk(system, *row)
    while count > 0:
        k = min(BLOCK, count)
        yield np.fromiter(w, float, 2 * k).reshape(k, 2)
        count -= k


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


class Walker:
    """The parent's side of a walker; walker() makes one."""

    def __init__(self, stream: Orbit | None, kept: Orbit | None):
        self.stream, self.kept = stream, kept
        self.pid = None
        self.claimed = False
        plan = _pin_plan() if hasattr(os, "fork") else None
        if plan is None or any(o.count < 1 for o in (stream, kept) if o):
            return  # one CPU, no fork, or an empty orbit, whose inline walk says why
        self.ring_bytes = 16 * BLOCK * _SLOTS if stream else 0
        try:
            self.shared = mmap.mmap(-1, self.ring_bytes + (16 * kept.count if kept else 0))
        except (OSError, ValueError, OverflowError):
            return  # an oversized orbit: the inline walk says why
        post_r, post_w = os.pipe()
        free_r, free_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (post_r, post_w, free_r, free_w):
                os.close(fd)
            self.shared.close()
            return
        cpus, mine = plan
        if pid == 0:
            status = 1
            try:
                gc.disable()  # no finalizer of the parent's garbage runs twice
                os.close(post_r)
                os.close(free_w)
                _set_affinity(cpus - {mine})
                self._child(post_w, free_r)
                status = 0
            finally:
                os._exit(status)
        os.close(post_w)
        os.close(free_r)
        self.pid, self.post_r, self.free_w = pid, post_r, free_w
        self.cpus, self.reaped, self.handed = cpus, False, False
        _set_affinity({mine})
        self._ring = self._ring_blocks()

    def _child(self, post_w, free_r):
        if self.stream:
            ring = np.ndarray((_SLOTS, BLOCK, 2), buffer=self.shared)
            free, posted = _SLOTS, 0
            for i, block in enumerate(_stream(self.stream)):
                if not free:
                    got = os.read(free_r, 4096)  # one byte per slot the parent freed
                    if not got:
                        return  # the parent is gone
                    free += len(got)
                ring[i % _SLOTS, : len(block)] = block
                posted += len(block)
                os.write(post_w, posted.to_bytes(8, "little"))
                free -= 1
        if self.kept:
            count = self.kept.count
            rows = np.ndarray((count, 2), buffer=self.shared, offset=self.ring_bytes)
            rows[0] = row = self.kept.first_row()
            rows[1:] = np.fromiter(walk(self.kept.system, *row), float, 2 * (count - 1)).reshape(-1, 2)
            os.write(post_w, count.to_bytes(8, "little"))

    def _reap(self):
        os.waitpid(self.pid, 0)
        self.reaped = True

    def _ring_blocks(self):
        """The streamed rows the child posts, copied out of the ring; ends
        early, with the child reaped, when it exits without a post."""
        got, i = 0, 0
        while self.stream and got < self.stream.count:
            post = os.read(self.post_r, 8)  # one post, or none after the child's exit
            if len(post) != 8:
                self._reap()
                return
            n = int.from_bytes(post, "little")
            at = 16 * BLOCK * (i % _SLOTS)
            block = np.frombuffer(self.shared[at : at + 16 * (n - got)]).reshape(-1, 2)
            with suppress(BrokenPipeError):  # a child past its last block reads no more
                os.write(self.free_w, b"\1")
            got, i = n, i + 1
            yield block

    def blocks(self):
        """The stream's rows in blocks, from the child and, if it fails,
        walked inline from the last row it posted."""
        if self.pid is None:
            yield from _stream(self.stream)
            return
        got, last = 0, None
        for block in self._ring:
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
            for _ in self._ring:
                pass
            if not self.reaped:
                post = os.read(self.post_r, 8)
                self._reap()
                if post == o.count.to_bytes(8, "little"):
                    self.handed = True
                    return np.ndarray((o.count, 2), buffer=self.shared, offset=self.ring_bytes)
        # first_row is folded already, and a second fold leaves it as it is
        return orbit_array(o.system, *o.first_row(), n_fwd=o.count - 1)

    def close(self):
        if self.pid is None:
            return
        try:
            if not self.reaped:
                os.kill(self.pid, signal.SIGKILL)
                self._reap()
        finally:
            os.close(self.post_r)
            os.close(self.free_w)
            if not self.handed:
                self.shared.close()
            _set_affinity(self.cpus)


@contextmanager
def walker(stream: Orbit | None = None, kept: Orbit | None = None):
    """A walker for the with-block: it walks stream, then kept, in a forked
    child, or inline.  Inside the block streamed() serves stream from it."""
    w = Walker(stream, kept)
    token = _live.set(w)
    try:
        yield w
    finally:
        _live.reset(token)
        w.close()


@contextmanager
def streamed(orbit: Orbit):
    """The orbit's rows in blocks, for the with-block: from the live walker
    if it streams this orbit, else from a walker of its own, or walked
    inline while a walker for other orbits lives."""
    live = _live.get()
    if live is not None and live.stream == orbit and not live.claimed:
        live.claimed = True
        yield live.blocks()
    elif live is None:
        with walker(stream=orbit) as w:
            yield w.blocks()
    else:
        yield _stream(orbit)
