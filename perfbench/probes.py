"""Measurement helpers: outside-in layer timers and process resource readers.

Layers are timed from outside the program by wrapping calls into their
public methods, so the benchmark measures the code as shipped and adds no
spans inside it.
"""

from __future__ import annotations

import os
import resource
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class LayerClock:
    """Charges the time of wrapped calls to named layers.

    Wrapped calls nest: time a call spends inside another wrapped call is
    that inner layer's, so ``self_s[layer]`` is the layer's duration minus
    the part its wrapped children cover, and the self times of all layers
    add up to the time spent under the outermost wrapped call.  Single
    threaded: one clock times one thread of calls.
    """

    def __init__(self) -> None:
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self._children: List[float] = []  # child time of each open call
        self._patched: list = []

    def wrap(
        self,
        owner,
        attr: str,
        layer: str,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Time ``owner.attr`` as ``layer`` until :meth:`restore`.

        ``owner`` is an instance (only that object is timed) or a class
        (every instance is, for objects the program builds per call).
        """
        original = getattr(owner, attr)
        self._patched.append((owner, attr, vars(owner).get(attr)))
        children = self._children
        total_s, self_s = self.total_s, self.self_s

        def timed(*args, **kwargs):
            children.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = children.pop()
                total_s[layer] += elapsed
                self_s[layer] += elapsed - inner
                if children:
                    children[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, timed)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        for owner, attr, previous in reversed(self._patched):
            if previous is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._patched.clear()


def self_cpu_s() -> float:
    """User + system CPU of this process (all its threads) so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_cpu_s(pids: Iterable[int]) -> float:
    """User + system CPU of live child processes, from ``/proc/<pid>/stat``."""
    total_ticks = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as handle:
            # fields after the parenthesised command name; utime and stime
            # are fields 14 and 15 of the whole line
            fields = handle.read().rsplit(")", 1)[1].split()
        total_ticks += int(fields[11]) + int(fields[12])
    return total_ticks / _CLOCK_TICKS


def child_peak_rss_mb(pids: Iterable[int]) -> float:
    """Summed peak resident set size (``VmHWM``) of live child processes."""
    total_kib = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
                    break
    return total_kib / 1024.0

