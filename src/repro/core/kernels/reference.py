"""The numpy reference backend — the reproduction's bit-identity oracle.

Every kernel here is the vectorised numpy formulation the package ran
before the backend layer existed: integer arithmetic plus sorted-key
lookups (:meth:`Level.rows_of`) for the convolution and the six-region
neighbourhood, the interval test for the box-exclusion scan, and the
scipy binomial inverse survival function for the critical values.  The
compiled backends are validated against these functions — any
disagreement is a bug in the compiled path, never in this one.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from repro.core.counting_tree import Level
from repro.types import FloatArray, IntArray

NAME = "numpy"
COMPILED = False


def version() -> str:
    """Version string recorded in benchmarks (the numpy release)."""
    return str(np.__version__)


def level_responses(level: Level) -> IntArray:
    """Laplacian responses per row (vectorised sorted-key lookups)."""
    m, d = level.coords.shape
    responses = (2 * d) * level.n.astype(np.int64)
    if m <= 1:
        return responses
    shifted = level.coords.copy()
    for axis in range(d):
        column = level.coords[:, axis]
        for delta in (-1, 1):
            # A neighbour off the grid is a miss of the lookup.
            shifted[:, axis] = column + delta
            rows = level.rows_of(shifted)
            found = rows >= 0
            responses[found] -= level.n[rows[found]]
        shifted[:, axis] = column
    return responses


def box_scan(
    level: Level, lo: IntArray, hi: IntArray, start: int, stop: int
) -> IntArray:
    """Rows within ``[start, stop)`` whose cell lies inside the box."""
    block = level.coords[start:stop]
    if block.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    hit = np.all((block >= lo) & (block <= hi), axis=1)
    rows: IntArray = start + np.flatnonzero(hit)
    return rows


def six_region(
    level: Level, row: int, bits: IntArray
) -> tuple[IntArray, IntArray]:
    """Six-region counts ``(cP_j, nP_j)``, all 2d probes in one lookup."""
    d = level.coords.shape[1]
    base = level.coords[row]
    parent_n = int(level.n[row])
    probes = np.tile(base, (2 * d, 1))
    probe_axes = np.repeat(np.arange(d, dtype=np.int64), 2)
    deltas = np.tile(np.array([-1, 1], dtype=np.int64), d)
    probe_index = np.arange(2 * d, dtype=np.int64)
    probes[probe_index, probe_axes] += deltas
    rows = level.rows_of(probes)  # a probe off the grid is a miss
    found = rows >= 0
    neighbors = np.zeros(2 * d, dtype=np.int64)
    neighbors[found] = level.n[rows[found]]
    total = parent_n + neighbors[0::2] + neighbors[1::2]
    half = level.half_counts[row]
    center = np.where(bits == 0, half, parent_n - half).astype(np.int64)
    return center, total.astype(np.int64)


def binom_thetas(
    totals: IntArray, probs: FloatArray, alpha: float
) -> tuple[IntArray, IntArray]:
    """Critical values via the scipy oracle; nothing is ever borderline."""
    totals = np.asarray(totals, dtype=np.int64)
    theta = stats.binom.isf(alpha, np.maximum(totals, 1), probs)
    theta = np.where(np.isnan(theta), totals, theta)
    thetas = np.where(totals == 0, 0, theta.astype(np.int64))
    return thetas, np.zeros(totals.shape[0], dtype=np.uint8)
