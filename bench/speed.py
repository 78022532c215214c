"""The machine's speed, to scale the benchmark's timings by.

The speed of the machine this benchmark was built on drifts: the same call
runs up to 1.9 times slower for stretches of seconds to minutes, and process
CPU time slows with it.  A fixed pure-Python probe, which shares no code with
the program, is timed between the program's calls.  Its slowdown against a
reference time is the factor each call's time is divided by, so that times
read as on the machine at its reference speed.

A change to the program does not move the probe: the probe's inputs are fixed,
and the garbage collector is off while it runs, so the size of the program's
heap does not enter it.

A set-up runs in a fresh process, whose start and first allocations slow down
apart from the harness's loop.  Its probe is a fresh process too, which runs
the same tasks once each:

    python3 bench/speed.py TASK...
"""

from __future__ import annotations

import gc
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

PROBE_EVERY_S = 0.5  # seconds between probes, at least
PROBE_REPS = 3  # runs of each task per probe; the median counts
START_REF_S = 0.065  # start, import of this module and exit, at the reference speed

_EDGES = [((i * 7919) % 1500, (i * 104729 + 13) % 1500) for i in range(5000)]
_ROWS = [((i * 7919) % 3000, (i * 104729 + 13) % 3000) for i in range(14000)]


def _sets() -> int:
    """Integer arithmetic, then sets and dicts of small ints: the search's kind of work."""
    s = 0
    for i in range(40000):
        s += i * i % 7
    adj: dict = {}
    for x, y in _EDGES:
        adj.setdefault(x, set()).add(y)
        adj.setdefault(y, set()).add(x)
    seen = set()
    for v in adj:
        if v in seen:
            continue
        stack = [v]
        seen.add(v)
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return s + len(seen) + len({frozenset(n) for n in adj.values()})


def _join() -> int:
    """A hash join of tuples into a set of tuples: evaluation's kind of work."""
    index: dict = {}
    for x, y in _ROWS:
        index.setdefault(x, []).append((x, y))
    out = set()
    for x, y in _ROWS[:5000]:
        for _, z in index.get(y, ()):
            out.add((x, z))
    return len(out)


# task -> (function, median seconds per run at the reference speed: a fast
# stretch of the 2-core Xeon VM at 2.0 GHz with Python 3.11 named in README.md)
TASKS = {"sets": (_sets, 0.0055), "join": (_join, 0.0070)}
# the tasks probed for each workload, of the kind of work its calls do
WORKLOAD_TASKS = {
    "search_x3c": ("sets",),
    "width_families": ("sets",),
    "eval_joins": ("sets", "join"),
}


def slowdown(tasks) -> float:
    """Geometric mean, over ``tasks``, of each task's median time over its
    reference time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        logs = []
        for name in tasks:
            fn, ref = TASKS[name]
            times = []
            for _ in range(PROBE_REPS):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            logs.append(math.log(statistics.median(times) / ref))
    finally:
        if enabled:
            gc.enable()
    return math.exp(sum(logs) / len(logs))


def fresh_slowdown(tasks) -> float:
    """Seconds of a fresh process that runs each task once, over the same
    at the reference speed."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__)), *tasks], check=True)
    t1 = time.perf_counter()
    return (t1 - t0) / (START_REF_S + sum(TASKS[name][1] for name in tasks))


class Speed:
    """Probes of the slowdown, one at most every ``PROBE_EVERY_S``.  A call
    is scaled by the geometric mean of the probes before and after it."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.at = -math.inf
        self.probes: list[float] = []

    def probe(self, fresh: bool = False) -> int:
        """The index of the latest probe, taken anew if it is old or ``fresh``."""
        if fresh or time.perf_counter() - self.at >= PROBE_EVERY_S:
            self.probes.append(slowdown(self.tasks))
            self.at = time.perf_counter()
        return len(self.probes) - 1

    def factor(self, i: int) -> float:
        """The slowdown of a call made between probe ``i`` and the next."""
        after = self.probes[i + 1] if i + 1 < len(self.probes) else self.probes[i]
        return math.sqrt(self.probes[i] * after)

if __name__ == "__main__":
    for name in sys.argv[1:]:
        TASKS[name][0]()
