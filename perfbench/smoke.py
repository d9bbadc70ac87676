"""Smoke test of the benchmark itself.

Runs every workload at a tiny size, untraced and traced, and checks
that each run prints every metric ``BENCHMARK.json`` names for its mode
with that metric's unit, that no operation failed, and that the
end-to-end metrics are non-zero.  It also checks that the benchmark
refuses to run, without printing a result, in a directory that holds
only ``BENCHMARK.json`` and the benchmark's own files.  Run from the
root of a checkout::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, workload: str, trace: int, size: str | None):
    command = [
        sys.executable,
        "perfbench/run.py",
        "--workload", workload,
        "--seed", "0",
        "--seconds", "1",
        "--trace", str(trace),
    ]
    if size is not None:
        command += ["--size", size]
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=600
    )


def _check_run(spec: dict, workload: str, trace: int) -> list[str]:
    done = _run(ROOT, workload, trace, "tiny")
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr[-2000:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']}/{result['attempted']} failed")
    if not any(line.split()[:2] == ["error_rate", "0"] for line in lines):
        problems.append(f"{where}: error_rate 0 not printed")
    section = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(
            f"{where}: metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(expected))}"
        )
    for name, unit in expected.items():
        metric = metrics.get(name, {})
        value = metric.get("value")
        if metric.get("unit") != unit:
            problems.append(f"{where}: {name} unit {metric.get('unit')} != {unit}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")
        elif not trace and value == 0 and name != "peak_rss_mb":
            # At tiny sizes an operation can fit entirely in memory the
            # allocator already holds, so its RSS growth may read 0.
            problems.append(f"{where}: end-to-end metric {name} is 0")
    return problems


def _check_bare_directory() -> list[str]:
    """Without the program's source the benchmark must fail, silently."""
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as bare:
        bare_root = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare_root)
        shutil.copytree(
            ROOT / "perfbench",
            bare_root / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        done = _run(bare_root, "fit-1m", 0, None)
    if done.returncode == 0:
        return ["bare directory: exit 0"]
    if '"metrics"' in done.stdout:
        return ["bare directory: printed a result"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = _check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = _check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    for problem in problems:
        print(f"  {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
