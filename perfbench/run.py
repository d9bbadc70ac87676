"""The repo benchmark: one workload per run, made from a seed and checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fit-1m --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics.  Human-readable lines come
first, and the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
program is imported from the checkout's ``src`` directory; all scratch
files, including the compiled C kernels, stay under ``.bench_build``.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import shutil
import sys
import tempfile
from pathlib import Path

from harness import (
    REFERENCE_CALIB_S,
    Calibration,
    Tally,
    clock,
    fingerprint,
    median,
    percentile,
    repeat,
)

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
MIN_REPS = 2


def _bootstrap() -> None:
    """Point the process at the checkout's program and scratch space.

    Exits non-zero without a result when the program's source is not in
    the checkout: a benchmark must never measure some other copy.
    """
    for knob in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[knob]
    os.environ["REPRO_BACKEND"] = "cext"
    BUILD.mkdir(parents=True, exist_ok=True)
    # The C backend caches its compiled kernels in the temp directory.
    os.environ["TMPDIR"] = str(BUILD)
    tempfile.tempdir = str(BUILD)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import the program: {error}")
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _setup(workload, tally, calibration, calib_start) -> dict[str, float]:
    """Build and warm the kernels, make the inputs, run the warm-up rep.

    ``setup_s`` is the sum of the three, at reference host speed (the
    calibration taken before the run and after set-up; see
    ``harness.Calibration``).  The kernels load once per process and the
    untimed warm-up repetition is counted here too.
    """
    from repro.core import kernels

    start = clock()
    kernels.reset_backends()
    kernels.warm_up(kernels.active_backend())
    kernel_s = clock() - start

    start = clock()
    setup = workload.prepare()
    inputs_s = clock() - start

    start = clock()
    tally.count(workload.run())
    warmup_s = clock() - start
    setup["kernels.warmup_s"] = kernel_s
    setup_calib = (calib_start + calibration()) / 2.0
    setup_s = kernel_s + inputs_s + warmup_s
    print(f"set-up: {setup_s:.4f} s unscaled, calibration {setup_calib:.5f} s")
    setup["setup_s"] = setup_s * REFERENCE_CALIB_S / setup_calib
    return setup


def _end_to_end(workload, setup, seconds, tally, calibration) -> dict[str, float]:
    """Medians over the timed repetitions, at reference host speed.

    Each repetition's times are scaled by its ``host_scale``.  The
    latency percentiles are taken over one repetition's requests, and
    the run reports their median over its repetitions.
    """
    reps = repeat(workload.run, seconds, MIN_REPS, calibration)
    for rep in reps:
        tally.count(rep)
    print(
        f"timed repetitions: {len(reps)}, median wall "
        f"{median([rep.seconds for rep in reps]):.4f} s unscaled, "
        f"median calibration {median([rep.calib_s for rep in reps]):.5f} s"
    )
    served = [rep for rep in reps if rep.latencies]

    def over_reps(value) -> float:
        return median([value(rep) for rep in served]) if served else 0.0

    return {
        "setup_s": setup["setup_s"],
        "wall_s": median([rep.seconds * rep.host_scale for rep in reps]),
        "peak_rss_mb": median([rep.peak_mb for rep in reps]),
        "quality": workload.quality,
        "points_per_s": median(
            [rep.points / (rep.seconds * rep.host_scale) for rep in reps]
        ),
        "p50_s": over_reps(
            lambda rep: percentile(rep.latencies, 50.0) * rep.host_scale
        ),
        "p99_s": over_reps(
            lambda rep: percentile(rep.latencies, 99.0) * rep.host_scale
        ),
    }


def _per_layer(workload, setup, seconds, tally) -> dict[str, float]:
    """Per-layer pass, untraced and traced repetitions, until time is up.

    The counters come from ``repro.obs.capture()`` around the traced
    repetition; the layer times from the benchmark's own clocks.
    """
    from repro import obs

    samples: dict[str, list[float]] = {}
    start = clock()
    while not samples or clock() - start < seconds:
        untraced = workload.run()
        with obs.capture() as tracer:
            traced = workload.run()
        tally.count(untraced)
        tally.count(traced)
        values = workload.layers(untraced)
        counters = tracer.counters
        pivots = counters.get("search.pivots", 0)
        accepted = counters.get("search.beta_accepted", 0)
        values["search.pivots"] = pivots
        values["search.beta_accepted"] = accepted
        values["search.accept_ratio"] = accepted / pivots if pivots else 0.0
        values["search.excluded_cells"] = counters.get("search.excluded_cells", 0)
        values["obs.trace_overhead"] = traced.seconds / untraced.seconds - 1.0
        for name, value in values.items():
            samples.setdefault(name, []).append(float(value))
    metrics = {name: median(values) for name, values in samples.items()}
    for name in ("store.save_s", "store.load_s", "store.model_bytes"):
        if name in setup:
            metrics[name] = setup[name]
    metrics["kernels.warmup_s"] = setup["kernels.warmup_s"]
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="input sizes; 'tiny' is for the smoke test only",
    )
    args = parser.parse_args(argv)

    spec = _spec()
    _bootstrap()
    from repro.core import kernels
    from workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    calibration = Calibration()
    calib_start = calibration()
    tally = Tally()
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD))
    try:
        workload = WORKLOADS[args.workload](
            SIZES[args.size], args.seed, workdir, tally
        )
        setup = _setup(workload, tally, calibration, calib_start)
        if args.trace:
            measured = _per_layer(workload, setup, args.seconds, tally)
        else:
            measured = _end_to_end(
                workload, setup, args.seconds, tally, calibration
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        for child in multiprocessing.active_children():
            child.join()
    calib_end = calibration()
    if args.trace:
        measured["host.calib_s"] = calib_start
        measured["host.calib_end_s"] = calib_end

    for name, value in measured.items():
        if not math.isfinite(value):
            tally.check(False, f"{name} is not a finite number: {value}")
            measured[name] = 0.0
    unknown = sorted(set(measured) - set(units))
    if unknown:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: {unknown}")
    # A layer this workload bypasses did no work: it reads 0.
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }

    host = fingerprint(kernels.backend_info())
    host["calib_s"] = [calib_start, calib_end]
    print("host " + json.dumps(host, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} size {args.size}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':28s} {tally.failed / tally.attempted:.6g} ratio")
    for reason in tally.reasons:
        print(f"  failure: {reason}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
