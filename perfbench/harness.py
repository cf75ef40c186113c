"""Statistics, digests and result assembly shared by every workload.

Nothing here imports the program under test, so the unit tests of the
harness itself run without building a lake.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

#: the checkout the benchmark runs from (this file's parent's parent)
ROOT = Path(__file__).resolve().parent.parent
#: the program's sources inside that checkout
SRC = ROOT / "src"
#: scratch space inside the checkout: lake files, child-process stats,
#: the verdict-digest store (listed in the root .gitignore)
WORK = ROOT / ".perfbench_work"

#: a tail percentile needs at least this many samples beyond it
MIN_BEYOND = 10


def program_available() -> bool:
    """Whether the checkout holds the program's sources."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_program_sources() -> None:
    """Put the checkout's ``src`` first on the import path."""
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` percent of the samples at or below it."""
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = _rank(len(ordered), q)
    return ordered[rank - 1]


def _rank(n: int, q: float) -> int:
    # ceil(n * q / 100) without float drift for the ladder's values
    rank = -(-round(n * q * 10) // 1000)
    return max(1, min(n, rank))


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``."""
    return n - _rank(n, q)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: seconds per stretch of host-speed readings
WINDOW = 1.0
#: steps of the probe loop
PROBE_LOOP = 20000
#: CPU seconds of the probe loop on a quiet core of a 2-core x86-64 VM
#: running CPython 3.11: timings are reported as if the host had run at
#: this speed
REFERENCE_READING = 1.2e-3


class SpeedProbe:
    """Readings of how fast the host runs plain Python right now.

    Shared hosts alternate, for seconds at a time and on every CPU at
    once, between a quiet speed and one up to about 1.6 times slower,
    and the quiet speed itself moved by a third between runs.  A reading
    is the thread CPU time of a fixed loop: waiting for the interpreter
    lock or for a CPU does not count, only how fast the CPU executes.
    A sample's slowdown is the median reading of its one-second stretch
    over :data:`REFERENCE_READING`; dividing the sample's time by it
    reports the time the program would have taken on the reference host.
    Per stretch, program and probe speeds moved together (correlation
    0.9 over 45 one-second stretches of campaign rounds), and dividing
    cut the stretch-to-stretch variation of round times from 16% to 7%.
    """

    def __init__(
        self,
        cpu_clock: Callable[[], float] = time.thread_time,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._cpu_clock = cpu_clock
        self._clock = clock
        self._origin = clock()
        #: (wall time, CPU seconds) per reading
        self.readings: List[Tuple[float, float]] = []

    def read(self) -> float:
        start = self._cpu_clock()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i
        cpu = self._cpu_clock() - start
        self.readings.append((self._clock(), cpu))
        return cpu

    def burst(self, count: int = 5) -> float:
        """Read ``count`` times in a row; the slowdown of their median."""
        return statistics.median(
            [self.read() for _ in range(count)]
        ) / REFERENCE_READING

    def slowdowns_at(self, times: Sequence[float]) -> List[float]:
        """The slowdown of the stretch each wall time fell in (of the
        nearest stretch with readings when its own has none)."""
        grouped: Dict[int, List[float]] = {}
        for t, cpu in self.readings:
            grouped.setdefault(self._window(t), []).append(cpu)
        levels = {
            w: statistics.median(v) / REFERENCE_READING
            for w, v in grouped.items()
        }
        windows = sorted(levels)
        out = []
        for t in times:
            w = self._window(t)
            if w not in levels:
                w = min(windows, key=lambda k: (abs(k - w), k))
            out.append(levels[w])
        return out

    def _window(self, t: float) -> int:
        return int((t - self._origin) // WINDOW)


# ----------------------------------------------------------------------
# input identity and verdict digests
# ----------------------------------------------------------------------
def digest(parts: Iterable[object]) -> str:
    """Stable 16-hex digest of a sequence of JSON-able parts."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(json.dumps(part, sort_keys=True).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


class DigestStore:
    """Verdict digests of earlier runs in this checkout, keyed by
    workload, seed and input digest.  The same inputs must give the
    same verdicts every time; a mismatch fails the run."""

    def __init__(self, path: Path) -> None:
        self.path = path

    def _load(self) -> Dict[str, str]:
        try:
            return json.loads(self.path.read_text())
        except FileNotFoundError:
            return {}

    def check(self, key: str, value: str) -> Optional[str]:
        """Record ``value`` under ``key``; return the earlier value when
        it differs, else ``None``."""
        known = self._load()
        earlier = known.get(key)
        if earlier is not None and earlier != value:
            return earlier
        if earlier is None:
            known[key] = value
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(known, sort_keys=True, indent=1))
            os.replace(tmp, self.path)
        return None


# ----------------------------------------------------------------------
# process facts
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
class Result:
    """What one run measured and checked, printed as the last line."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, Dict[str, float]] = {}

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    @property
    def correct(self) -> bool:
        return not self.problems

    def to_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": self.metrics,
        }, sort_keys=True)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def counter_delta(
    before: Mapping[str, float], after: Mapping[str, float], name: str
) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)
