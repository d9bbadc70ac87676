"""The benchmark's four workloads.

Each workload owns its inputs (made from the run's seed), one
repetition of the operation its user waits for, the checks on that
operation's output, and a per-layer pass that times the same work by
calling each layer's public function in turn.  See ``README.md`` for
why each workload exists and which layers it loads or bypasses.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
from pathlib import Path
from typing import Any

import numpy as np

from harness import (
    Rep,
    Tally,
    children_peak_rss_mb,
    clock,
    peak_rss_mb,
    rss_mb,
    timer,
)
from repro import obs
from repro.core.beta_cluster import find_beta_clusters
from repro.core.convolution import level_responses
from repro.core.correlation_cluster import label_points, merge_beta_clusters
from repro.core.counting_tree import (
    aggregate_levels,
    bin_points,
    level_arrays,
    tree_from_levels,
)
from repro.core.mrcc import MrCC
from repro.core.streaming import TreeStreamBuilder, assemble_result, label_stream
from repro.data.normalize import apply_minmax, minmax_params
from repro.data.suites import dimensionality_sweep
from repro.data.synthetic import SyntheticDatasetSpec, generate_dataset
from repro.evaluation.quality import quality
from repro.experiments.runner import run_suite
from repro.serve import save_model
from repro.serve.service import BatchLabeller, ModelCache
from repro.types import Dataset, SubspaceCluster

ALPHA = 1e-10
"""The paper's significance level, used by every experiment."""

DATA_SEED = 2010
"""Generator seed of every synthetic input.  A run's ``--seed`` sets
the row order (and serve-batch's request sampling) instead: MrCC's
results do not depend on row order, so every seed does the same work
and reaches the same Quality, and a change in either is the program's."""


@dataclasses.dataclass(frozen=True)
class Size:
    """Input sizes; ``full`` is the benchmark, ``tiny`` the smoke test."""

    fit_points: int
    stream_points: int
    stream_chunk: int
    serve_train: int
    serve_points: int
    serve_request: int
    serve_clients: int
    suite_scale: float
    # Quality floors per workload, recorded from HEAD.
    quality_floor: dict[str, float]


SIZES = {
    "full": Size(
        fit_points=1_000_000,
        stream_points=200_000,
        stream_chunk=10_000,
        serve_train=200_000,
        serve_points=400_000,
        serve_request=2048,
        serve_clients=8,
        suite_scale=1.0,
        # HEAD's Quality, the same on every seed, rounded down at the
        # 6th decimal: any drop in the results fails the check.
        quality_floor={
            "fit-1m": 0.988225,
            "stream-chunks": 0.979399,
            "serve-batch": 0.967342,
            "suite-dims": 0.899990,
        },
    ),
    "tiny": Size(
        fit_points=20_000,
        stream_points=20_000,
        stream_chunk=2_500,
        serve_train=5_000,
        serve_points=12_000,
        serve_request=256,
        serve_clients=4,
        suite_scale=0.05,
        quality_floor={
            "fit-1m": 0.0,
            "stream-chunks": 0.0,
            "serve-batch": 0.0,
            "suite-dims": 0.0,
        },
    ),
}


def _d15(n_points: int):
    """η points in 15 axes, 10 clusters, 15 % noise (the fit/stream data)."""
    return generate_dataset(
        SyntheticDatasetSpec(
            dimensionality=15,
            n_points=n_points,
            n_clusters=10,
            noise_fraction=0.15,
            seed=DATA_SEED,
        )
    )


def _shuffled(dataset: Dataset, rng: np.random.Generator) -> Dataset:
    """The same dataset with its rows in a seeded order (ground truth
    renumbered to match)."""
    order = rng.permutation(dataset.n_points)
    new_index = np.empty_like(order)
    new_index[order] = np.arange(dataset.n_points)
    clusters = [
        SubspaceCluster.from_iterables(
            new_index[np.fromiter(c.indices, dtype=np.int64)], c.relevant_axes
        )
        for c in dataset.clusters
    ]
    return dataclasses.replace(
        dataset,
        points=dataset.points[order],
        labels=dataset.labels[order],
        clusters=clusters,
    )


def _search_layers(levels, d: int, n: int, h_max: int, times: dict) -> list:
    """Time the convolution alone, then the whole β-search, on a tree
    that has never been searched (the search sets ``level.used``)."""
    tree = tree_from_levels(levels, d, n, h_max)
    with timer(times, "search.convolve_s"):
        for h in range(2, h_max):
            level_responses(levels[h])
    with timer(times, "search_s"):
        return find_beta_clusters(tree, ALPHA)


def _assemble_layers(parts: list[np.ndarray], betas: list, times: dict):
    """Label each part of the points, then build the cluster records."""
    groups = merge_beta_clusters(betas)
    with timer(times, "assemble.label_s"):
        labels = np.concatenate([label_points(p, betas, groups) for p in parts])
    with timer(times, "assemble.clusters_s"):
        result = assemble_result(labels, betas, groups)
    return result


def _pipeline_layers(points, h_max: int, normalize: bool, times: dict):
    """One MrCC fit taken apart into its layers, each timed."""
    x = points
    if normalize:
        with timer(times, "data.normalize_s"):
            lo, span = minmax_params(points)
            x = apply_minmax(points, lo, span)
    with timer(times, "tree.bin_s"):
        base = bin_points(x, h_max)
    with timer(times, "tree.group_s"):
        levels = aggregate_levels(base, h_max)
    n, d = x.shape
    times["tree.base_cells_per_point"] = (
        times.get("tree.base_cells_per_point", 0.0)
        + levels[h_max - 1].n_cells / n
    )
    betas = _search_layers(levels, d, n, h_max, times)
    return _assemble_layers([x], betas, times)


class Workload:
    """Common state: inputs, the first repetition's output as reference."""

    name = ""

    def __init__(self, size: Size, seed: int, workdir: Path, tally: Tally):
        self.size = size
        self.seed = seed
        self.workdir = workdir
        self.tally = tally
        self.reference: Any = None
        self.quality = float("nan")

    def prepare(self) -> dict[str, float]:
        """Make the inputs; return any layer timings taken on the way."""
        raise NotImplementedError

    def run(self) -> Rep:
        """One repetition of the operation, with its output checked."""
        raise NotImplementedError

    def layers(self, rep: Rep) -> dict[str, float]:
        """Per-layer timings of the same work; ``rep`` is an untraced
        repetition from the same iteration."""
        raise NotImplementedError

    def _same_labels(self, labels: np.ndarray) -> bool:
        """The first labels seen become the reference for all later ones."""
        if self.reference is None:
            self.reference = labels.copy()
            return True
        return bool(np.array_equal(labels, self.reference))

    def _set_quality(self, value: float) -> None:
        self.quality = float(value)
        floor = self.size.quality_floor[self.name]
        self.tally.check(
            value >= floor, f"{self.name}: quality {value:.4f} < floor {floor}"
        )


class Fit1M(Workload):
    """``MrCC(n_resolutions=5).fit`` on η = 1M, d = 15."""

    name = "fit-1m"
    H = 5

    def prepare(self) -> dict[str, float]:
        rng = np.random.default_rng(self.seed)
        self.dataset = _shuffled(_d15(self.size.fit_points), rng)
        return {}

    def run(self) -> Rep:
        points = self.dataset.points
        start = clock()
        result = MrCC(n_resolutions=self.H).fit(points)
        elapsed = clock() - start
        first = self.reference is None
        ok = self._same_labels(result.labels)
        if first:
            self._set_quality(quality(result.clusters, self.dataset.clusters))
        return Rep(
            seconds=elapsed,
            points=len(points),
            latencies=[elapsed],
            attempted=1,
            failed=0 if ok else 1,
        )

    def layers(self, rep: Rep) -> dict[str, float]:
        times: dict[str, float] = {}
        result = _pipeline_layers(self.dataset.points, self.H, True, times)
        self.tally.check(
            self._same_labels(result.labels), "fit-1m: layer pass labels differ"
        )
        return times


class StreamChunks(Workload):
    """η = 200k absorbed in 10k-point chunks, then search and label."""

    name = "stream-chunks"
    H = 5

    def prepare(self) -> dict[str, float]:
        rng = np.random.default_rng(self.seed)
        self.dataset = _shuffled(_d15(self.size.stream_points), rng)
        step = self.size.stream_chunk
        points = self.dataset.points
        self.chunks = [points[i : i + step] for i in range(0, len(points), step)]
        return {}

    def run(self) -> Rep:
        latencies = []
        start = clock()
        builder = TreeStreamBuilder(self.H)
        for chunk in self.chunks:
            absorb_start = clock()
            builder.absorb(chunk)
            latencies.append(clock() - absorb_start)
        betas = find_beta_clusters(builder.build(), ALPHA)
        result = label_stream(iter(self.chunks), betas)
        elapsed = clock() - start
        first = self.reference is None
        ok = self._same_labels(result.labels)
        if first:
            self._set_quality(quality(result.clusters, self.dataset.clusters))
        return Rep(
            seconds=elapsed,
            points=len(self.dataset.points),
            latencies=latencies,
            attempted=1,
            failed=0 if ok else 1,
        )

    def layers(self, rep: Rep) -> dict[str, float]:
        times: dict[str, float] = {}
        builder = TreeStreamBuilder(self.H)
        for chunk in self.chunks:
            with timer(times, "tree.bin_s"):
                base = bin_points(chunk, self.H)
            with timer(times, "stream.chunk_group_s"):
                arrays = level_arrays(base, self.H)
            with timer(times, "stream.merge_s"):
                builder.absorb_arrays(arrays, n_points=len(chunk))
        levels = builder.build_levels()
        n, d = self.dataset.points.shape
        times["tree.base_cells_per_point"] = levels[self.H - 1].n_cells / n
        betas = _search_layers(levels, d, n, self.H, times)
        result = _assemble_layers(self.chunks, betas, times)
        self.tally.check(
            self._same_labels(result.labels),
            "stream-chunks: layer pass labels differ",
        )
        return times


class ServeBatch(Workload):
    """A saved 14d model served to 8 closed-loop clients."""

    name = "serve-batch"
    H = 5
    MODEL = "bench14d.model"

    def prepare(self) -> dict[str, float]:
        # The defaults of SyntheticDatasetSpec are the paper's 14d base.
        base = SyntheticDatasetSpec(n_points=self.size.serve_train, seed=DATA_SEED)
        rng = np.random.default_rng(self.seed)
        self.dataset = _shuffled(generate_dataset(base), rng)
        estimator = MrCC(n_resolutions=self.H)
        self.fit_labels = estimator.fit(self.dataset.points).labels
        times: dict[str, float] = {}
        path = self.workdir / self.MODEL
        with timer(times, "store.save_s"):
            save_model(estimator, path)
        times["store.model_bytes"] = float(path.stat().st_size)
        self.cache = ModelCache(root=self.workdir, capacity=1)
        with timer(times, "store.load_s"):
            self.model = self.cache.get(self.MODEL)
        self.passes = 0
        return times

    def _requests(self) -> list[np.ndarray]:
        """Row indices of one pass: whole permutations of the training
        rows, cut into fixed-size requests."""
        rng = np.random.default_rng([self.seed, self.passes])
        self.passes += 1
        n = self.size.serve_train
        rounds = -(-self.size.serve_points // n)
        rows = np.concatenate([rng.permutation(n) for _ in range(rounds)])
        rows = rows[: self.size.serve_points]
        step = self.size.serve_request
        return [rows[i : i + step] for i in range(0, len(rows), step)]

    async def _serve(self, requests: list[np.ndarray]):
        latencies: list[float] = []
        served: list[np.ndarray | None] = [None] * len(requests)
        pending = iter(range(len(requests)))
        points = self.dataset.points

        async with BatchLabeller(self.cache) as labeller:

            async def client() -> None:
                for k in pending:
                    query = points[requests[k]]
                    start = clock()
                    try:
                        served[k] = await labeller.label(self.MODEL, query)
                    except Exception as exc:  # counted, the loop goes on
                        self.tally.reasons.append(f"serve-batch: {exc!r}")
                        continue
                    latencies.append(clock() - start)

            await asyncio.gather(
                *(client() for _ in range(self.size.serve_clients))
            )
            stats = labeller.stats()
        return latencies, served, stats

    def run(self) -> Rep:
        requests = self._requests()
        start = clock()
        latencies, served, stats = asyncio.run(self._serve(requests))
        elapsed = clock() - start
        # Serving reuses its buffers, so the growth above the set-up RSS
        # is about zero: report the serving process's whole footprint.
        peak_mb = peak_rss_mb()
        failed = sum(
            1
            for rows, labels in zip(requests, served)
            if labels is None or not np.array_equal(labels, self.fit_labels[rows])
        )
        if self.reference is None and failed == 0:
            labels = np.empty(self.size.serve_train, dtype=np.int64)
            for rows, part in zip(requests, served):
                labels[rows] = part
            self.reference = labels
            clusters = assemble_result(
                labels, self.model.betas, self.model.groups
            ).clusters
            self._set_quality(quality(clusters, self.dataset.clusters))
        return Rep(
            seconds=elapsed,
            points=self.size.serve_points,
            latencies=latencies,
            attempted=len(requests),
            failed=failed,
            peak_mb=peak_mb,
            extra={"service.batches": float(stats["batches"])},
        )

    def layers(self, rep: Rep) -> dict[str, float]:
        times: dict[str, float] = {}
        batches = rep.extra["service.batches"]
        step = max(1, round(rep.points / batches))
        rows = np.concatenate(self._requests())
        queries = [
            self.dataset.points[rows[i : i + step]]
            for i in range(0, len(rows), step)
        ]
        model = self.model
        with timer(times, "model_label_s"):
            served = [model.label(q) for q in queries]
        normalized = []
        with timer(times, "data.normalize_s"):
            for q in queries:
                normalized.append(apply_minmax(q, *model.normalizer))
        with timer(times, "assemble.label_s"):
            for q in normalized:
                label_points(q, model.betas, model.groups)
        self.tally.check(
            np.array_equal(np.concatenate(served), self.fit_labels[rows]),
            "serve-batch: direct model labels differ from fit labels",
        )
        label_s = times.pop("model_label_s")
        times["service.batches"] = batches
        times["service.points_per_batch"] = rep.points / batches
        times["service.label_pts_per_s"] = len(rows) / label_s
        times["service.overhead_frac"] = 1.0 - label_s / rep.seconds
        return times


def _suite_child(send, datasets, jobs: int, journal: Path) -> None:
    """Run the suite and send back its rows, wall time, the largest
    worker's RSS growth over this process's RSS at the start (the
    workers fork from it) and the obs counters it recorded."""
    try:
        base_mb = rss_mb()
        base = obs.mark()
        start = clock()
        rows = run_suite(
            datasets,
            methods=("MrCC",),
            n_jobs=jobs,
            journal=journal,
            track_memory=False,
        )
        elapsed = clock() - start
        peak_mb = children_peak_rss_mb() - base_mb
        outcome = (rows, elapsed, peak_mb, obs.since(base))
    except Exception as exc:  # reported and counted by the parent
        outcome = exc
    send.send(outcome)
    send.close()


class SuiteDims(Workload):
    """Fig. 5m-o: the dimensionality sweep through the job fabric."""

    name = "suite-dims"
    H = 4
    JOBS = 2

    def prepare(self) -> dict[str, float]:
        # The paper's own datasets, as the figure uses them.
        rng = np.random.default_rng(self.seed)
        self.datasets = [
            _shuffled(paper, rng)
            for paper in dimensionality_sweep(scale=self.size.suite_scale)
        ]
        self.runs = 0
        return {}

    def run(self) -> Rep:
        journal = self.workdir / f"suite{self.runs}.jsonl"
        self.runs += 1
        # A fresh process per repetition: the fabric workers are its
        # children, so their RSS high-water mark is this repetition's.
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(
            target=_suite_child, args=(send, self.datasets, self.JOBS, journal)
        )
        start = clock()
        child.start()
        send.close()
        try:
            outcome = receive.recv()
        except EOFError:
            outcome = RuntimeError(f"suite process exited {child.exitcode}")
        finally:
            receive.close()
            child.join()
        if isinstance(outcome, Exception):
            self.tally.reasons.append(f"suite-dims: {outcome!r}")
            elapsed = clock() - start
            return Rep(
                seconds=elapsed, attempted=1, failed=1, latencies=[elapsed]
            )
        rows, elapsed, peak_mb, trace = outcome
        obs.absorb(trace)
        journal_bytes = journal.stat().st_size
        journal.unlink()
        # Rows carry timings; everything else must repeat exactly.
        result = [
            (row["dataset"], row["status"], row["quality"], row["n_found"])
            for row in rows
        ]
        failed = sum(1 for row in rows if row["status"] != "ok")
        if self.reference is None:
            self.reference = result
            self.row_quality = [row["quality"] for row in rows]
            self._set_quality(float(np.mean(self.row_quality)))
        elif result != self.reference:
            failed = max(failed, 1)
        cell_s = [float(row["seconds"]) for row in rows]
        return Rep(
            seconds=elapsed,
            points=sum(ds.n_points for ds in self.datasets),
            latencies=cell_s,
            attempted=len(rows),
            failed=failed,
            peak_mb=peak_mb,
            extra={
                "fabric.cell_s_sum": sum(cell_s),
                "fabric.journal_bytes": float(journal_bytes),
            },
        )

    def layers(self, rep: Rep) -> dict[str, float]:
        times: dict[str, float] = {}
        for dataset, expected in zip(self.datasets, self.row_quality):
            result = _pipeline_layers(dataset.points, self.H, False, times)
            found = quality(result.clusters, dataset.clusters)
            self.tally.check(
                found == expected,
                f"suite-dims: {dataset.name} layer pass quality {found} "
                f"!= suite row {expected}",
            )
        times["tree.base_cells_per_point"] /= len(self.datasets)
        cell_s_sum = rep.extra["fabric.cell_s_sum"]
        times["fabric.cell_s_sum"] = cell_s_sum
        times["fabric.parallel_eff"] = cell_s_sum / (rep.seconds * self.JOBS)
        times["fabric.journal_bytes"] = rep.extra["fabric.journal_bytes"]
        return times


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Fit1M, StreamChunks, ServeBatch, SuiteDims)
}
