"""Descriptive spatial statistics: Moran's I, sweeps over decay/time, Spearman
rank persistence, variance decomposition and PCA variance-explained.

Moran's I uses the classical cross-product form

    I = (n / sum_ij w_ij) * sum_ij w_ij (x_i - xbar)(x_j - xbar) / sum_i (x_i - xbar)^2

with raw (not row-standardized) kernel weights by default.
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
from .geo import Bandwidth, GeoPoint, KernelShape, SpatialWeights, build_weights
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


def _window_start(day: dt.date, kind: str, anchor: dt.date) -> dt.date:
    if kind == "daily":
        return day
    if kind == "weekly":
        return anchor + dt.timedelta(days=((day - anchor).days // 7) * 7)
    raise ValueError(f"unknown window kind {kind!r}")


def moran_sweep(observations, locations: dict[object, GeoPoint], window_kind: str,
                d0_list, shape: KernelShape = KernelShape.EXPONENTIAL,
                row_standardize: bool = False) -> MoranSweep:
    """Moran's I per (time window, decay distance d0).

    ``observations`` is an iterable of (location_id, date, value); values are
    averaged per location within each window before the index is computed.
    Windows with fewer than 3 locations or a constant average are skipped.
    """
    obs = list(observations)
    if not obs:
        raise EmptyInputError("empty panel")
    anchor = min(day for _, day, _ in obs)

    windows: dict[dt.date, dict[object, list[float]]] = {}
    for loc, day, value in obs:
        start = _window_start(day, window_kind, anchor)
        windows.setdefault(start, {}).setdefault(loc, []).append(float(value))

    sweep = MoranSweep()
    weight_cache: dict[tuple[tuple, float], SpatialWeights] = {}
    for start in sorted(windows):
        cell = windows[start]
        ids = sorted(cell, key=str)
        means = np.array([np.mean(cell[i]) for i in ids])
        if len(ids) < 3:
            sweep.skipped.append((start, "fewer than 3 locations"))
            continue
        if np.ptp(means) == 0:
            sweep.skipped.append((start, "constant values"))
            continue
        points = [locations[i] for i in ids]
        key_ids = tuple(ids)
        for d0 in d0_list:
            cache_key = (key_ids, float(d0))
            w = weight_cache.get(cache_key)
            if w is None:
                w = build_weights(points, shape, Bandwidth.fixed_distance(d0))
                weight_cache[cache_key] = w
            try:
                res = moran_index(means, w, row_standardize=row_standardize,
                                  window=start.isoformat(), d0=float(d0))
            except EmptyWeightsError:
                sweep.skipped.append((start, f"all weights zero at d0={d0}"))
                continue
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
