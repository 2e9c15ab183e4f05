"""Host-speed calibration of the benchmark's timings.

The CPU of a shared host runs in regimes that change every few seconds: a
fixed pure-Python loop took 24 ms in one and 41 ms in the next, with wall
time equal to CPU time in both.  Medians of raw times over repetitions then
spread by 15% to 45% between runs of the same code.  While a repetition's
operations run, a helper thread therefore times a short calibration slice
every EVERY_S seconds, and each operation's latency, less the slices that
ran inside it, is scaled by REFERENCE_S over the mean time of the slices
during and around it.  The slice shares no code with noethkit but does what
it does most: builds frozen dataclass trees, hashes them into a memo and
dispatches on their types.  Scaled this way, the time of a noethkit loop
varied by 3.5% where the raw time varied by 21%.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
from dataclasses import dataclass

# Seconds one slice takes at the reference speed; scaled latencies are the
# seconds an operation would take on a host that runs the slice this fast.
REFERENCE_S = 0.003
EVERY_S = 0.1
# Long enough that a slice, once it holds the interpreter lock, finishes
# before the operation thread asks for it back.
SWITCH_INTERVAL_S = 0.05


@dataclass(frozen=True)
class _Leaf:
    value: int


@dataclass(frozen=True)
class _Node:
    left: object
    right: object


def _tree(depth: int, k: int):
    if depth == 0:
        return _Leaf(k)
    return _Node(_tree(depth - 1, k), _tree(depth - 1, k + depth))


def _fold(t, memo) -> int:
    if isinstance(t, _Leaf):
        return t.value
    if t not in memo:
        memo[t] = _fold(t.left, memo) + 2 * _fold(t.right, memo)
    return memo[t]


def slice_seconds() -> float:
    """Time of one calibration slice, with the collector held off so that a
    collection of the program's heap is not charged to the host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        memo = {}
        for k in range(4):
            _fold(_tree(7, k), memo)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Context manager that times a slice on entry, on exit, and every
    EVERY_S seconds in between from a helper thread.  `slices` holds
    (start, seconds) pairs in time order."""

    def __init__(self):
        self.slices = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._interval = sys.getswitchinterval()

    def _take(self) -> None:
        start = time.perf_counter()
        self.slices.append((start, slice_seconds()))

    def _run(self) -> None:
        while not self._stop.wait(EVERY_S):
            self._take()

    def __enter__(self):
        self._take()
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._interval)
        self._take()


def split(starts, latencies, slices) -> list:
    """(own seconds, slice seconds) per operation.  An operation's own time
    is its latency less the slices that started inside it; its slice time
    is the mean of those slices and of the last slice before it and the
    first after it."""
    out = []
    j = 0  # first slice starting at or after the current operation
    for start, latency in zip(starts, latencies):
        end = start + latency
        while j < len(slices) and slices[j][0] < start:
            j += 1
        k = j
        while k < len(slices) and slices[k][0] < end:
            k += 1
        inside = [s for _, s in slices[j:k]]
        around = inside + [s for _, s in slices[max(j - 1, 0):j]] \
            + [s for _, s in slices[k:k + 1]]
        out.append((max(latency - sum(inside), 0.0), sum(around) / len(around)))
    return out


def scaled(starts, latencies, slices) -> list:
    """Operation latencies at the reference speed."""
    return [own * REFERENCE_S / speed
            for own, speed in split(starts, latencies, slices)]


def scaled_span(seconds, slices) -> float:
    """A span of `seconds` during which all of `slices` ran, at the
    reference speed."""
    inside = [s for _, s in slices]
    own = max(seconds - sum(inside), 0.0)
    return own * REFERENCE_S / (sum(inside) / len(inside))
