"""Measurement primitives for the repo benchmark.

Everything here observes the program from outside: wall clocks around
calls, the kernel's resident-set accounting, and a fixed numpy kernel
that shows how fast the host is running right now.  Nothing in this
module imports ``repro``, so it can be loaded before the program's
source tree is put on ``sys.path``.
"""

from __future__ import annotations

import ctypes
import gc
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

clock = time.perf_counter


@dataclass
class Rep:
    """One repetition of a workload's operation.

    ``latencies`` holds one entry per request the workload's user waits
    on (a fit, a chunk absorb, a label call, a suite cell).  ``peak_mb``
    is filled by :func:`repeat` with the growth of this process's
    high-water mark, unless the operation measured it itself.
    ``calib_s`` is filled by :func:`repeat` with the median calibration
    time around the repetition.
    """

    seconds: float = 0.0
    points: int = 0
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    peak_mb: float | None = None
    calib_s: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def host_scale(self) -> float:
        """Factor that takes this repetition's times to reference host
        speed (see :class:`Calibration`)."""
        return REFERENCE_CALIB_S / self.calib_s


class Tally:
    """Attempted and failed operations over a whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def count(self, rep: Rep) -> None:
        self.attempted += rep.attempted
        self.failed += rep.failed

    def check(self, ok: bool, reason: str) -> None:
        """Record one checked operation; a false ``ok`` is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)


# -- resident-set accounting -------------------------------------------


def _status_kb(field_name: str) -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field_name + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {field_name}")


_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)


def trim_heap() -> None:
    """Free garbage and hand the allocator's free pages back to the OS.

    Run before each measured repetition, so the RSS baseline holds only
    live data and not what earlier repetitions left in the heap.
    """
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)


def reset_peak_rss() -> float:
    """Reset this process's RSS high-water mark; return current RSS (MB).

    Writing ``5`` to ``/proc/self/clear_refs`` sets ``VmHWM`` back to
    the current RSS, so the next :func:`peak_rss_mb` reads the peak of
    what ran in between, not the input generator's earlier peak.
    """
    with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
        refs.write("5")
    return rss_mb()


def rss_mb() -> float:
    """This process's current RSS (MB)."""
    return _status_kb("VmRSS") / 1024.0


def peak_rss_mb() -> float:
    """This process's RSS high-water mark (MB) since the last reset."""
    return _status_kb("VmHWM") / 1024.0


def children_peak_rss_mb() -> float:
    """Largest RSS (MB) any child this process has reaped reached.

    The kernel keeps this as a running maximum over the process's life,
    so a per-repetition figure needs a fresh process per repetition.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- timing -------------------------------------------------------------


@contextmanager
def timer(sink: dict[str, float], name: str) -> Iterator[None]:
    """Add the wall time of the ``with`` body to ``sink[name]``."""
    start = clock()
    try:
        yield
    finally:
        sink[name] = sink.get(name, 0.0) + (clock() - start)


def repeat(
    operation: Callable[[], Rep],
    seconds: float,
    min_reps: int,
    calibration: Calibration,
) -> list[Rep]:
    """Run ``operation`` until ``seconds`` have passed and at least
    ``min_reps`` repetitions are done.

    Each rep gets its own RSS peak, and the median of the calibration
    sorts timed just before and just after it.
    """
    reps: list[Rep] = []
    before = calibration.sample()
    start = clock()
    while len(reps) < min_reps or clock() - start < seconds:
        trim_heap()
        base = reset_peak_rss()
        rep = operation()
        if rep.peak_mb is None:
            rep.peak_mb = peak_rss_mb() - base
        after = calibration.sample()
        rep.calib_s = median(before + after)
        before = after
        reps.append(rep)
    return reps


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# -- host fingerprint ---------------------------------------------------

REFERENCE_CALIB_S = 0.015
"""The calibration sort's time on an idle host: about what one core of
an Intel Xeon (2 vCPUs, shared) takes when no other tenant is busy."""


class Calibration:
    """A fixed single-threaded numpy sort: how fast the host runs now.

    Other tenants of a shared host slow everything down, in phases from
    seconds to many minutes, by as much as 1.75 times.  The sort slows
    down with the workloads, so the benchmark times it right before and
    after every repetition and reports times at reference host speed:
    a time measured while the sort took ``c`` seconds is scaled by
    ``REFERENCE_CALIB_S / c``.  The program never runs the sort, so no
    change to the program can move it.
    """

    SIZE = 1 << 21
    REPEATS = 5

    def __init__(self) -> None:
        self._data = np.random.default_rng(20100301).random(self.SIZE)

    def sample(self) -> list[float]:
        """Times of ``REPEATS`` sorts (seconds)."""
        times = []
        for _ in range(self.REPEATS):
            start = clock()
            np.sort(self._data, kind="quicksort")
            times.append(clock() - start)
        return times

    def __call__(self) -> float:
        """Median time of ``REPEATS`` sorts (seconds)."""
        return median(self.sample())


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _compiler_version() -> str:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path is None:
            continue
        probe = subprocess.run(
            [path, "--version"], capture_output=True, timeout=30, check=False
        )
        lines = probe.stdout.decode(errors="replace").splitlines()
        return lines[0].strip() if lines else path
    return "none"


def fingerprint(backend: dict[str, object]) -> dict[str, object]:
    """Which host, toolchain and compute backend produced the numbers."""
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "compiler": _compiler_version(),
        "backend": backend,
    }
