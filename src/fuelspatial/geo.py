"""Geographic primitives: points, great-circle distances, kernels, spatial weights.

Distances are great-circle (haversine) on a sphere of mean radius 6371.0 km.
``SpatialWeights`` stores its matrix sparse; entries below ``WEIGHT_FLOOR`` are
dropped, which bounds memory for kernels with unbounded support (exponential,
gaussian). ``spatial_stats.moran_sweep`` applies the same floor to dense
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateBandwidthError, InvalidBandwidthError

EARTH_RADIUS_KM = 6371.0
WEIGHT_FLOOR = 1e-12


class KernelShape(Enum):
    EXPONENTIAL = "exponential"
    GAUSSIAN = "gaussian"
    BISQUARE = "bisquare"
    STEP = "step"


@dataclass(frozen=True)
class GeoPoint:
    lat: float
    lon: float

    def __post_init__(self):
        if not (-90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude out of range: {self.lat}")
        if not (-180.0 <= self.lon <= 180.0):
            raise ValueError(f"longitude out of range: {self.lon}")


@dataclass(frozen=True)
class Bandwidth:
    """Spatial scale of a kernel: a fixed distance d0 (km) or an adaptive
    nearest-neighbor count k."""

    mode: str  # "fixed" or "adaptive"
    value: float

    @classmethod
    def fixed_distance(cls, d0_km: float) -> "Bandwidth":
        if d0_km <= 0:
            raise InvalidBandwidthError(f"fixed bandwidth must be > 0, got {d0_km}")
        return cls("fixed", float(d0_km))

    @classmethod
    def adaptive_knn(cls, k: int) -> "Bandwidth":
        if int(k) != k or k < 1:
            raise InvalidBandwidthError(f"adaptive k must be a positive integer, got {k}")
        return cls("adaptive", int(k))

    @property
    def is_adaptive(self) -> bool:
        return self.mode == "adaptive"


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in km between two points."""
    lat1, lon1, lat2, lon2 = map(np.radians, (a.lat, a.lon, b.lat, b.lon))
    s = (
        np.sin((lat2 - lat1) / 2.0) ** 2
        + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2
    )
    return float(2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(s, 0.0, 1.0))))


def distance_matrix(points: list[GeoPoint]) -> np.ndarray:
    """Full pairwise haversine distance matrix (km), vectorized."""
    lat = np.radians(np.array([p.lat for p in points]))
    lon = np.radians(np.array([p.lon for p in points]))
    dlat = lat[:, None] - lat[None, :]
    dlon = lon[:, None] - lon[None, :]
    s = np.sin(dlat / 2.0) ** 2 + np.cos(lat)[:, None] * np.cos(lat)[None, :] * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(s, 0.0, 1.0)))


def kernel_weight(shape: KernelShape, d, h):
    """Evaluate a kernel at distance d (km) with bandwidth h (km).

    Accepts scalars or arrays for d and h; an array h broadcasts against d,
    so ``h[:, None]`` gives each row of a distance matrix its own bandwidth.
    All shapes equal 1 at d = 0 and are non-increasing in d.
    """
    h = np.asarray(h, dtype=float)
    if np.any(h <= 0):
        raise InvalidBandwidthError(f"kernel bandwidth must be > 0, got {h.min()}")
    d = np.asarray(d, dtype=float)
    u = d / h
    if shape is KernelShape.EXPONENTIAL:
        w = np.exp(-u)
    elif shape is KernelShape.GAUSSIAN:
        w = np.exp(-0.5 * u**2)
    elif shape is KernelShape.BISQUARE:
        w = np.where(u < 1.0, (1.0 - np.minimum(u, 1.0) ** 2) ** 2, 0.0)
    elif shape is KernelShape.STEP:
        w = np.where(u <= 1.0, 1.0, 0.0)
    else:  # pragma: no cover
        raise ValueError(f"unknown kernel shape {shape}")
    return float(w) if w.ndim == 0 else w


@dataclass(frozen=True)
class SpatialWeights:
    """Sparse pairwise weights w_ij with zero diagonal."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    shape: KernelShape = KernelShape.EXPONENTIAL
    bandwidth: Bandwidth | None = None

    def sum(self) -> float:
        return float(self.data.sum())

    def to_dense(self) -> np.ndarray:
        w = np.zeros((self.n, self.n))
        w[self.rows, self.cols] = self.data
        return w

    def row_sums(self) -> np.ndarray:
        return np.bincount(self.rows, weights=self.data, minlength=self.n)

    def row_standardized(self) -> "SpatialWeights":
        sums = self.row_sums()
        nonzero = sums[self.rows] > 0
        data = np.where(nonzero, self.data / np.where(sums[self.rows] > 0, sums[self.rows], 1.0), 0.0)
        return SpatialWeights(self.n, self.rows, self.cols, data, self.shape, self.bandwidth)


def adaptive_bandwidths(dist: np.ndarray, k: int) -> np.ndarray:
    """Per-row bandwidth h_i = distance to the k-th nearest neighbor (self excluded)."""
    n = dist.shape[0]
    if not 1 <= k <= n - 1:
        raise InvalidBandwidthError(f"adaptive k must satisfy 1 <= k <= n-1, got k={k}, n={n}")
    d = dist.copy()
    np.fill_diagonal(d, np.inf)
    h = np.sort(d, axis=1)[:, k - 1]
    return h


def adaptive_weights(dist: np.ndarray, shape: KernelShape, k: int):
    """Kernel weights where row i has its own bandwidth h_i, the distance from
    i to its k-th nearest neighbor. Returns (w, h); the diagonal is kernel(0).
    """
    h = adaptive_bandwidths(dist, k)
    degenerate = np.flatnonzero(h <= 0)
    if degenerate.size:
        raise DegenerateBandwidthError(int(degenerate[0]))
    return kernel_weight(shape, dist, h[:, None]), h


def build_weights(points: list[GeoPoint], shape: KernelShape, bw: Bandwidth) -> SpatialWeights:
    """Pairwise kernel weights over locations; diagonal forced to zero.

    FixedDistance uses one global bandwidth d0; AdaptiveKNN gives each row its
    own bandwidth, the distance from i to its k-th nearest neighbor.
    """
    n = len(points)
    if n < 2:
        raise InvalidBandwidthError(f"need at least 2 points, got {n}")
    dist = distance_matrix(points)
    if bw.is_adaptive:
        w, _ = adaptive_weights(dist, shape, int(bw.value))
    else:
        w = kernel_weight(shape, dist, bw.value)
    np.fill_diagonal(w, 0.0)
    rows, cols = np.nonzero(w >= WEIGHT_FLOOR)
    return SpatialWeights(n, rows, cols, w[rows, cols], shape, bw)
