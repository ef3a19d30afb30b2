"""Descriptive spatial statistics: Moran's I, sweeps over decay/time, Spearman
rank persistence, variance decomposition and PCA variance-explained.

Moran's I uses the classical cross-product form

    I = (n / sum_ij w_ij) * sum_ij w_ij (x_i - xbar)(x_j - xbar) / sum_i (x_i - xbar)^2

with raw (not row-standardized) kernel weights by default.

``moran_index`` with ``geo.build_weights`` is the one-window API, on sparse
weights. ``moran_sweep`` evaluates many windows at once: it averages every
(window, location) cell in one grouped pass, computes one haversine distance
matrix over the locations of all evaluated windows and slices each window's
block from it. Windows with the same location set share, per d0, one dense
kernel (zero diagonal, entries below ``WEIGHT_FLOOR`` dropped, rows
standardized when asked) and one product W @ Z whose columns give every
window's cross product z'Wz.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyInputError,
    EmptyWeightsError,
    ZeroVarianceColumnError,
    ZeroVarianceError,
)
from .geo import (  # noqa: F401  build_weights + moran_index is the one-window API
    WEIGHT_FLOOR,
    Bandwidth,
    GeoPoint,
    KernelShape,
    SpatialWeights,
    build_weights,
    distance_matrix,
    kernel_weight,
)
from .groups import group_index, group_means


@dataclass(frozen=True)
class MoranResult:
    index: float
    n: int
    sum_weights: float
    window: str | None = None
    d0: float | None = None


@dataclass(frozen=True)
class VarianceDecomposition:
    total: float
    between: float
    within: float
    grouping: str


def moran_index(values, w: SpatialWeights, row_standardize: bool = False,
                window: str | None = None, d0: float | None = None) -> MoranResult:
    """Global Moran's I of ``values`` under weights ``w``."""
    x = np.asarray(values, dtype=float)
    if x.shape[0] != w.n:
        raise ValueError(f"values length {x.shape[0]} != weight dimension {w.n}")
    if row_standardize:
        w = w.row_standardized()
    s0 = w.sum()
    if s0 <= 0:
        raise EmptyWeightsError("all spatial weights are zero")
    z = x - x.mean()
    denom = float(z @ z)
    if denom <= 0:
        raise ZeroVarianceError("constant value vector")
    cross = float(np.sum(w.data * z[w.rows] * z[w.cols]))
    i = (w.n / s0) * cross / denom
    return MoranResult(index=i, n=w.n, sum_weights=s0, window=window, d0=d0)


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


def _cross_products(dist: np.ndarray, z: np.ndarray, d0: float, shape: KernelShape,
                    row_standardize: bool) -> tuple[float, np.ndarray]:
    """Sum of weights and z_kᵀ W z_k for each column z_k of ``z``, where W is
    the dense kernel at d0 with zero diagonal and entries below
    ``WEIGHT_FLOOR`` dropped, as in ``build_weights``."""
    w = kernel_weight(shape, dist, d0)
    np.fill_diagonal(w, 0.0)
    w[w < WEIGHT_FLOOR] = 0.0
    if row_standardize:
        sums = w.sum(axis=1)
        w /= np.where(sums > 0, sums, 1.0)[:, None]
    return float(w.sum()), np.einsum("ij,ij->j", z, w @ z)


def moran_sweep(observations, locations: dict[object, GeoPoint], window_kind: str,
                d0_list, shape: KernelShape = KernelShape.EXPONENTIAL,
                row_standardize: bool = False) -> MoranSweep:
    """Moran's I per (time window, decay distance d0).

    ``observations`` is an iterable of (location_id, date, value); values are
    averaged per location within each window before the index is computed.
    Windows with fewer than 3 locations or a constant average are skipped, as
    is a (window, d0) whose weights all fall below ``WEIGHT_FLOOR``. Rows and
    skipped entries come in window order, then ``d0_list`` order.
    """
    obs = list(observations)
    if not obs:
        raise EmptyInputError("empty panel")
    if window_kind not in ("daily", "weekly"):
        raise ValueError(f"unknown window kind {window_kind!r}")
    d0_values = [Bandwidth.fixed_distance(d0).value for d0 in d0_list]

    # One group per (window, location) cell; locations are coded in str order,
    # so each window's cells are its locations in the order of its index.
    ids = sorted(dict.fromkeys(loc for loc, _, _ in obs), key=str)
    position = {loc: i for i, loc in enumerate(ids)}
    day = np.array([d.toordinal() for _, d, _ in obs])
    if window_kind == "weekly":
        day = day.min() + (day - day.min()) // 7 * 7
    ordinals, window = np.unique(day, return_inverse=True)
    starts = [dt.date.fromordinal(int(o)) for o in ordinals]
    cell = window.ravel() * len(ids) + np.array([position[i] for i, _, _ in obs])
    codes, counts = group_index(cell)
    means = group_means(codes, counts, np.array([float(v) for _, _, v in obs]))
    cell_label = np.empty(counts.size, dtype=cell.dtype)
    cell_label[codes] = cell
    cell_window, cell_loc = np.divmod(cell_label, len(ids))
    bounds = np.searchsorted(cell_window, np.arange(len(starts) + 1))

    skipped: dict[int, str] = {}
    by_set: dict[bytes, list[int]] = {}
    for w in range(len(starts)):
        cells = slice(bounds[w], bounds[w + 1])
        if cells.stop - cells.start < 3:
            skipped[w] = "fewer than 3 locations"
        elif np.ptp(means[cells]) == 0:
            skipped[w] = "constant values"
        else:
            by_set.setdefault(cell_loc[cells].tobytes(), []).append(w)

    # One distance matrix over every evaluated location; one kernel per
    # (location set, d0) and one product for all windows on that set.
    results: dict[tuple[int, int], MoranResult | None] = {}
    if by_set:
        evaluated = [w for members in by_set.values() for w in members]
        used = np.unique(cell_loc[np.isin(cell_window, evaluated)])
        dist = distance_matrix([locations[ids[i]] for i in used])
    for members in by_set.values():
        first = slice(bounds[members[0]], bounds[members[0] + 1])
        block = np.searchsorted(used, cell_loc[first])
        d = dist if block.size == used.size else dist[np.ix_(block, block)]
        cols = [means[bounds[w]:bounds[w + 1]] for w in members]
        cols = [x - x.mean() for x in cols]
        denom = [float(x @ x) for x in cols]
        z = np.column_stack(cols)
        for j, d0 in enumerate(d0_values):
            s0, cross = _cross_products(d, z, d0, shape, row_standardize)
            for k, w in enumerate(members):
                results[w, j] = None if s0 <= 0 else MoranResult(
                    index=float((block.size / s0) * cross[k] / denom[k]),
                    n=block.size, sum_weights=s0,
                    window=starts[w].isoformat(), d0=d0)

    sweep = MoranSweep()
    for w, start in enumerate(starts):
        if w in skipped:
            sweep.skipped.append((start, skipped[w]))
            continue
        for j, d0 in enumerate(d0_list):
            res = results[w, j]
            if res is None:
                sweep.skipped.append((start, f"all weights zero at d0={d0}"))
            else:
                sweep.rows.append(SweepRow(start, window_kind, float(d0), res))
    return sweep


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n, ties given the mean of the ranks they span; all NaN when
    ``x`` holds a NaN (as ``scipy.stats.rankdata`` does)."""
    n = x.shape[0]
    if np.isnan(x).any():
        return np.full(n, np.nan)
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], n]
    ranks = np.empty(n)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


def spearman_rank(x, y) -> float:
    """Spearman rank correlation, tie-aware (Pearson on average ranks)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.shape[0] < 2:
        raise ValueError("need two equal-length vectors of length >= 2")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    if np.ptp(rx) == 0 or np.ptp(ry) == 0:
        raise ZeroVarianceError("all ranks tied in one argument")
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))


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


def pca_variance_explained(matrix, normalize: bool = False) -> np.ndarray:
    """Fractions of variance along principal axes, sorted non-increasing.

    With ``normalize`` the columns are centered and scaled to unit variance
    (eigenvalues of the correlation matrix); constant columns are rejected.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("matrix must be 2-D")
    n, p = m.shape
    if not n > p or p < 1:
        raise ValueError(f"need n > p >= 1, got n={n}, p={p}")
    centered = m - m.mean(axis=0)
    if normalize:
        sd = centered.std(axis=0, ddof=1)
        for j in np.nonzero(sd == 0)[0]:
            raise ZeroVarianceColumnError(int(j))
        centered = centered / sd
    cov = centered.T @ centered / (n - 1)
    eig = np.linalg.eigvalsh(cov)[::-1]
    eig = np.clip(eig, 0.0, None)
    return eig / eig.sum()
