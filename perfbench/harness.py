"""Measurement plumbing shared by every workload of the benchmark.

A workload's fixed work is a *round*: a list of named steps, each timed
on its own.  A run repeats whole rounds until its time budget is spent
and reports, for the workload's wall time, the sum over steps of each
step's least time across the run's last ``WINDOW`` rounds (a constant of
each workload).  The reference host shares its cores with other tenants;
their load only ever adds time to a step, in bursts from a fraction of a
second to about a minute, so the least time follows the program and the
median follows the neighbours.  A fixed window keeps the figure from
depending on how many rounds a faster or slower build fits into the
budget, and leaves the first rounds, which warm caches, out of it.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Iterations of the host-speed probe loop (0.08-0.1 s on the reference host).
PROBE_ITERS = 1_000_000
#: Probe samples taken before set-up and again after tear-down.
PROBE_SAMPLES = 7
#: Fresh-interpreter imports and in-process builds timed for ``setup_s``.
SETUP_REPEATS = 9


def probe_loop() -> int:
    """A fixed pure-Python loop: integer arithmetic, no allocation growth."""
    acc = 0
    for i in range(PROBE_ITERS):
        acc = (acc + i * 7) % 1_000_003
    return acc


def probe(samples: int = PROBE_SAMPLES) -> List[float]:
    """Seconds per probe loop, one value per sample."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        probe_loop()
        times.append(time.perf_counter() - start)
    return times


def import_seconds(modules: Sequence[str], repeats: int = SETUP_REPEATS) -> float:
    """Median wall time of a fresh interpreter importing ``modules``.

    Imports happen once per process, so they are timed in child
    interpreters (interpreter start-up included, as a user pays it).
    """
    code = "import " + ", ".join(modules)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        # No timeout: waiting with one polls in sleeps of up to 50 ms,
        # which would round every time up to the next poll.
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                       check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any waited-for child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def seeded(workload: str, seed: int) -> random.Random:
    """The input generator for one (workload, seed) pair."""
    return random.Random(f"{workload}:{seed}")


def canonical(record: Any) -> str:
    """Byte form used to compare records."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@dataclass
class Round:
    """One execution of a workload's fixed work: the wall seconds each
    step took and what each step produced."""

    steps: Dict[str, float] = field(default_factory=dict)
    outputs: Dict[str, Any] = field(default_factory=dict)

    @contextmanager
    def step(self, name: str):
        start = time.perf_counter()
        yield
        self.steps[name] = time.perf_counter() - start


@dataclass
class Verdict:
    """Output checks over all rounds of a run.

    An operation whose own output fails a check counts once in ``failed``
    per round it failed in, and its reason goes to ``failures``;
    ``problems`` name properties of the workload as a whole that failed
    (they make the run incorrect).
    """

    ops_per_round: int
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    def fail(self, reasons: List[str]) -> None:
        """Record one operation's check results (no reasons: it passed)."""
        if reasons:
            self.failed += 1
            self.failures.extend(r for r in reasons if r not in self.failures)


def fixed_work(rounds: Sequence[Round], window: int) -> float:
    """Wall seconds of the round's fixed work: each step's least time
    across the last ``window`` rounds, summed."""
    last = rounds[-window:]
    return sum(min(r.steps[name] for r in last) for name in last[0].steps)


def run_rounds(workload, budget_s: float, window: int) -> List[Round]:
    """Whole rounds until ``budget_s`` is spent (at least ``window``).

    A round starts only if the previous round's length still fits in the
    budget, so a run never stops part-way through a round.
    """
    rounds: List[Round] = []
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        rounds.append(workload.run_round(len(rounds)))
        last = time.perf_counter() - before
        elapsed = time.perf_counter() - start
        if len(rounds) >= window and elapsed + last > budget_s:
            return rounds
