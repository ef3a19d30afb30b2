"""Descriptive spatial statistics: Moran's I, sweeps over decay/time and
variance decomposition.

Moran's I uses the classical cross-product form

    I = (n / sum_ij w_ij) * sum_ij w_ij (x_i - xbar)(x_j - xbar) / sum_i (x_i - xbar)^2

with raw (not row-standardized) kernel weights.

``moran_index`` with ``geo.build_weights`` is the one-window API, on sparse
weights. ``moran_sweep`` takes the panel as columns of location codes (into a
sequence of points), day ordinals and values, and evaluates many windows at
once on one location universe, the locations of all evaluated windows in code
order: it averages every (window, location) cell with ``groups.cell_means``.
Each window contributes its centred means, zero at absent locations, and its
presence mask m, as columns of one matrix C = [Z | M]. The sweep walks the
upper triangle of the distance matrix in ``geo.pair_blocks`` row blocks, so
each location pair is evaluated once and memory is O(PAIR_BLOCK * n), never
n x n: per block and d0 one dense ``geo.moran_weights`` block (the weights of
``build_weights``, not made sparse) and one product add the block's share of
C'WC, whose diagonal holds every window's cross product z'Wz and weight sum
s0 = m'Wm. W is symmetric, so a block's square on the diagonal counts once
and the part beyond it twice. The sums run in block order, so a sweep agrees
with the one-window API to rounding, not bit for bit.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyInputError,
    EmptyWeightsError,
    ZeroVarianceError,
)
from .geo import (  # noqa: F401  build_weights + moran_index is the one-window API
    Bandwidth,
    GeoPoint,
    KernelShape,
    SpatialWeights,
    build_weights,
    moran_weights,
    pair_blocks,
)
from .groups import cell_means, group_index, group_means


@dataclass(frozen=True)
class MoranResult:
    index: float
    n: int
    sum_weights: float


@dataclass(frozen=True)
class VarianceDecomposition:
    total: float
    between: float
    within: float
    grouping: str


def moran_index(values, w: SpatialWeights) -> MoranResult:
    """Global Moran's I of ``values`` under weights ``w``."""
    x = np.asarray(values, dtype=float)
    if x.shape[0] != w.n:
        raise ValueError(f"values length {x.shape[0]} != weight dimension {w.n}")
    s0 = w.sum()
    if s0 <= 0:
        raise EmptyWeightsError("all spatial weights are zero")
    z = x - x.mean()
    denom = float(z @ z)
    if denom <= 0:
        raise ZeroVarianceError("constant value vector")
    cross = float(np.sum(w.data * z[w.rows] * z[w.cols]))
    i = (w.n / s0) * cross / denom
    return MoranResult(index=i, n=w.n, sum_weights=s0)


@dataclass(frozen=True)
class SweepRow:
    window_start: dt.date
    window_kind: str
    d0_km: float
    result: MoranResult


@dataclass
class MoranSweep:
    rows: list[SweepRow] = field(default_factory=list)
    skipped: list[tuple[dt.date, str]] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh, lineterminator="\n")
            wr.writerow(["window_start", "window_kind", "d0_km", "moran_i", "n", "sum_weights"])
            for row in self.rows:
                wr.writerow([
                    row.window_start.isoformat(),
                    row.window_kind,
                    f"{row.d0_km:.6g}",
                    f"{row.result.index:.12g}",
                    row.result.n,
                    f"{row.result.sum_weights:.12g}",
                ])


def moran_sweep(observations, points: list[GeoPoint], window_kind: str, d0_list,
                shape: KernelShape = KernelShape.EXPONENTIAL) -> MoranSweep:
    """Moran's I per (time window, decay distance d0).

    ``observations`` is three aligned 1-D columns (location, day, value):
    integer codes indexing ``points``, a sequence of ``GeoPoint``, date
    ordinals and prices. Values are averaged per location within each window,
    locations in code order, before the index is computed. Windows with fewer
    than 3 locations or a constant average are skipped, as is a (window, d0)
    whose weights all fall below ``WEIGHT_FLOOR``. Rows and skipped entries
    come in window order, then ``d0_list`` order.
    """
    location, day, value = (np.asarray(column) for column in observations)
    if not location.shape == day.shape == value.shape == (location.size,):
        raise ValueError("location, day and value must be 1-D columns of one length")
    if not location.size:
        raise EmptyInputError("empty panel")
    if window_kind not in ("daily", "weekly"):
        raise ValueError(f"unknown window kind {window_kind!r}")
    if not (np.issubdtype(location.dtype, np.integer)
            and 0 <= location.min() and location.max() < len(points)):
        raise ValueError(f"location codes must be integers in [0, {len(points)})")
    bandwidths = [Bandwidth.fixed_distance(d0) for d0 in d0_list]

    # One cell per (window, location), a window's cells in code order.
    if window_kind == "weekly":
        day = day.min() + (day - day.min()) // 7 * 7
    ordinals, window = np.unique(day, return_inverse=True)
    starts = [dt.date.fromordinal(int(o)) for o in ordinals]
    (cell_window, cell_loc), means, _ = cell_means(value, window.ravel(), location)
    bounds = np.searchsorted(cell_window, np.arange(len(starts) + 1))

    skipped: dict[int, str] = {}
    evaluated: list[int] = []
    for w in range(len(starts)):
        cells = slice(bounds[w], bounds[w + 1])
        if cells.stop - cells.start < 3:
            skipped[w] = "fewer than 3 locations"
        elif np.ptp(means[cells]) == 0:
            skipped[w] = "constant values"
        else:
            evaluated.append(w)

    # One location universe for the K = n_eval evaluated windows: column k
    # holds window k's centred means, zero where a location is absent, and
    # column K + k its presence mask m_k. Per d0 the diagonal of CᵀWC holds
    # every cross product z_kᵀWz_k and every weight sum s0 = m_kᵀWm_k.
    n_eval = len(evaluated)
    column = {w: k for k, w in enumerate(evaluated)}
    used = np.unique(cell_loc[np.isin(cell_window, evaluated)])
    cols = np.zeros((used.size, 2 * n_eval))
    sizes, denom = [], []
    for k, w in enumerate(evaluated):
        cells = slice(bounds[w], bounds[w + 1])
        rows = np.searchsorted(used, cell_loc[cells])
        z = means[cells] - means[cells].mean()
        cols[rows, k] = z
        cols[rows, n_eval + k] = 1.0
        sizes.append(rows.size)
        denom.append(float(z @ z))
    # Block r0:r1 adds C[r0:r1]ᵀ W[r0:r1, r0:] C[r0:] to CᵀWC. Each pair
    # beyond the block's diagonal square stands for its mirror pair too,
    # so C's rows from r1 on count twice.
    forms = np.zeros((len(bandwidths), 2 * n_eval))
    for r0, r1, dist in pair_blocks([points[i] for i in used]):
        block_cols = cols[r0:r1]
        paired = np.concatenate([block_cols, 2.0 * cols[r1:]])
        for q, bw in zip(forms, bandwidths):
            q += np.einsum("ij,ij->j", block_cols, moran_weights(dist, shape, bw) @ paired)

    sweep = MoranSweep()
    for w, start in enumerate(starts):
        if w in skipped:
            sweep.skipped.append((start, skipped[w]))
            continue
        k = column[w]
        for d0, q in zip(d0_list, forms):
            s0 = float(q[n_eval + k])
            if s0 <= 0:
                sweep.skipped.append((start, f"all weights zero at d0={d0}"))
                continue
            res = MoranResult(index=float((sizes[k] / s0) * q[k] / denom[k]),
                              n=sizes[k], sum_weights=s0)
            sweep.rows.append(SweepRow(start, window_kind, float(d0), res))
    return sweep


def variance_decomposition(values, groups, grouping: str = "group") -> VarianceDecomposition:
    """Split total sum of squares into between-group and within-group parts."""
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise EmptyInputError("empty values")
    labels = np.asarray(groups)
    if labels.shape[0] != x.shape[0]:
        raise ValueError("groups must match values in length")
    codes, counts = group_index(labels)
    grand = x.mean()
    total = float(np.sum((x - grand) ** 2))
    means = group_means(codes, counts, x)
    between = float(counts @ (means - grand) ** 2)
    within = float(np.sum((x - means[codes]) ** 2))
    return VarianceDecomposition(total=total, between=between, within=within,
                                 grouping=grouping)
