"""Geographic primitives: points, great-circle distances, kernels, spatial weights.

Distances are great-circle (haversine) on a sphere of mean radius 6371.0 km.
One pair-block rule gives every distance matrix: ``pair_blocks`` walks the
upper triangle in row blocks of ``PAIR_BLOCK`` rows, each block holding the
distances from its rows to every location from its first row on, so each
unordered pair is evaluated once in O(PAIR_BLOCK * n) memory.
``distance_matrix`` mirrors the blocks across the diagonal (the haversine is
exactly symmetric), and ``spatial_stats.moran_sweep`` consumes them without
ever holding an n x n array.

``weight_matrix`` holds the one fixed/adaptive bandwidth rule behind every
kernel weight, for GWR and Moran's I alike. ``moran_weights`` adds Moran's
rule on top: a zero diagonal, and entries below ``WEIGHT_FLOOR`` set to 0,
which bounds memory for kernels with unbounded support (exponential,
gaussian). ``build_weights`` stores those weights sparse, and
``spatial_stats.moran_sweep`` uses them dense, one row block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateBandwidthError, InvalidBandwidthError

EARTH_RADIUS_KM = 6371.0
WEIGHT_FLOOR = 1e-12
# Rows per upper-triangle block of ``pair_blocks``.
PAIR_BLOCK = 256


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


@dataclass(frozen=True, slots=True)
class Bandwidth:
    """Spatial scale of a kernel: a fixed distance d0 (km) or an adaptive
    nearest-neighbor count k."""

    mode: str  # "fixed" or "adaptive"
    value: float

    @classmethod
    def fixed_distance(cls, d0_km: float) -> "Bandwidth":
        if not 0 < d0_km < np.inf:
            raise InvalidBandwidthError(f"fixed bandwidth must be finite and > 0, got {d0_km}")
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


def pair_blocks(points: list[GeoPoint]):
    """The upper triangle of the haversine distance matrix (km) in row blocks.

    Yields ``(r0, r1, block)`` for consecutive blocks of ``PAIR_BLOCK`` rows
    (the last may be shorter): ``block[a, b]`` is the distance from point
    ``r0 + a`` to point ``r0 + b``, for every column from ``r0`` on. Its
    leading square ``block[:, :r1 - r0]`` holds the pairs within the block,
    with the self pairs on its diagonal; the rest holds each pair with a
    later block once.
    """
    lat = np.radians(np.array([p.lat for p in points]))
    lon = np.radians(np.array([p.lon for p in points]))
    cos = np.cos(lat)
    for r0 in range(0, len(points), PAIR_BLOCK):
        r1 = min(r0 + PAIR_BLOCK, len(points))
        # s = sin(dlat/2)^2 + cos(lat_i) cos(lat_j) sin(dlon/2)^2, evaluated
        # in place in the formula's own order, so at most three blocks live.
        s = lat[r0:r1, None] - lat[None, r0:]
        s /= 2.0
        np.sin(s, out=s)
        np.square(s, out=s)
        term = cos[r0:r1, None] * cos[None, r0:]
        half = lon[r0:r1, None] - lon[None, r0:]
        half /= 2.0
        np.sin(half, out=half)
        np.square(half, out=half)
        term *= half
        del half
        s += term
        del term
        np.clip(s, 0.0, 1.0, out=s)
        np.sqrt(s, out=s)
        np.arcsin(s, out=s)
        s *= 2.0 * EARTH_RADIUS_KM
        yield r0, r1, s


def distance_matrix(points: list[GeoPoint]) -> np.ndarray:
    """Full pairwise haversine distance matrix (km): each ``pair_blocks``
    block and its mirror image across the diagonal."""
    n = len(points)
    d = np.empty((n, n))
    for r0, r1, block in pair_blocks(points):
        d[r0:r1, r0:] = block
        d[r1:, r0:r1] = block[:, r1 - r0:].T
    return d


def kernel_weight(shape: KernelShape, d, h):
    """Evaluate a kernel at distance d (km) with bandwidth h (km).

    Accepts scalars or arrays for d and h; an array h broadcasts against d,
    so ``h[:, None]`` gives each row of a distance matrix its own bandwidth.
    All shapes equal 1 at d = 0 and are non-increasing in d.

    Each shape is evaluated in place on the one array u = d / h, in the
    formula's own operation order: exp(-u), exp(-0.5 u^2),
    (1 - min(u, 1)^2)^2 where u < 1 and 0 elsewhere, and [u <= 1].
    """
    h = np.asarray(h, dtype=float)
    if not np.all(h > 0):
        raise InvalidBandwidthError(f"kernel bandwidth must be > 0, got {h.min()}")
    u = np.asarray(np.asarray(d, dtype=float) / h)
    if shape is KernelShape.EXPONENTIAL:
        np.negative(u, out=u)
        np.exp(u, out=u)
    elif shape is KernelShape.GAUSSIAN:
        np.square(u, out=u)
        np.multiply(u, -0.5, out=u)
        np.exp(u, out=u)
    elif shape is KernelShape.BISQUARE:
        outside = ~(u < 1.0)
        np.minimum(u, 1.0, out=u)
        np.square(u, out=u)
        np.subtract(1.0, u, out=u)
        np.square(u, out=u)
        np.copyto(u, 0.0, where=outside)
    elif shape is KernelShape.STEP:
        np.less_equal(u, 1.0, out=u)
    else:  # pragma: no cover
        raise ValueError(f"unknown kernel shape {shape}")
    return float(u) if u.ndim == 0 else u


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


@dataclass(frozen=True, slots=True)
class NeighborTable:
    """Every location ranked by distance from every other.

    Row i of ``order`` lists all locations: i itself first, then the rest by
    distance from i, ties in index order, so column j >= 1 is i's j-th
    nearest neighbour. ``distances`` holds the matching distances, ascending
    along each row, with row i's own 0 in column 0.
    """

    order: np.ndarray
    distances: np.ndarray

    @property
    def n(self) -> int:
        return self.order.shape[0]


def neighbor_table(dist: np.ndarray) -> NeighborTable:
    """Rank each row of a distance matrix with a zero diagonal; the one sort
    behind every nearest-neighbour quantity."""
    d = dist.copy()
    np.fill_diagonal(d, -1.0)
    order = np.argsort(d, axis=1, kind="stable")
    return NeighborTable(order, np.take_along_axis(dist, order, axis=1))


def adaptive_bandwidths(neighbors: NeighborTable, k: int) -> np.ndarray:
    """Per-row bandwidth h_i = distance to the k-th nearest neighbor (self excluded)."""
    n = neighbors.n
    if not 1 <= k <= n - 1:
        raise InvalidBandwidthError(f"adaptive k must satisfy 1 <= k <= n-1, got k={k}, n={n}")
    return neighbors.distances[:, k].copy()


def weight_matrix(dist: np.ndarray, neighbors: NeighborTable | None, shape: KernelShape,
                  bw: Bandwidth) -> np.ndarray:
    """Kernel weights of every location (columns) for every focal location
    (rows); the diagonal is kernel(0) = 1.

    A fixed bandwidth is one d0 for all rows. An adaptive one gives row i its
    own bandwidth h_i, the distance from i to its k-th nearest neighbor, read
    from ``neighbors``, the table of ``dist`` (None ranks ``dist`` here); only
    an adaptive bandwidth reads it. Raises DegenerateBandwidthError for the
    first row whose h_i is 0.
    """
    if not bw.is_adaptive:
        return kernel_weight(shape, dist, bw.value)
    if neighbors is None:
        neighbors = neighbor_table(dist)
    h = adaptive_bandwidths(neighbors, int(bw.value))
    degenerate = np.flatnonzero(h <= 0)
    if degenerate.size:
        raise DegenerateBandwidthError(int(degenerate[0]))
    return kernel_weight(shape, dist, h[:, None])


def moran_weights(dist: np.ndarray, shape: KernelShape, bw: Bandwidth) -> np.ndarray:
    """Dense Moran weights: ``weight_matrix`` with a zero diagonal and every
    entry below ``WEIGHT_FLOOR`` set to 0. On a ``pair_blocks`` block, whose
    columns start at its first row, the zeroed diagonal is the self pairs."""
    w = weight_matrix(dist, None, shape, bw)
    np.fill_diagonal(w, 0.0)
    w *= w >= WEIGHT_FLOOR
    return w


def build_weights(points: list[GeoPoint], shape: KernelShape, bw: Bandwidth) -> SpatialWeights:
    """Sparse ``moran_weights`` over locations."""
    n = len(points)
    if n < 2:
        raise InvalidBandwidthError(f"need at least 2 points, got {n}")
    w = moran_weights(distance_matrix(points), shape, bw)
    rows, cols = np.nonzero(w)
    return SpatialWeights(n, rows, cols, w[rows, cols], shape, bw)
