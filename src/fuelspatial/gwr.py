"""Geographically weighted regression: local weighted least squares with
kernel weights decaying in great-circle distance, AICc / leave-one-out CV
scoring, bandwidth optimization, exhaustive model enumeration, and the
nearest-neighbor spatial-scale statistic.

Local solves go through a QR decomposition rather than the normal equations;
near-singular local designs at small bandwidths are the expected failure mode
and surface as explicit errors. All focal locations are solved together by
one local solver, ``_local_fits``: an R-only QR of the stacked
sqrt(w_i) [X | y], taken in blocks of ``FOCAL_BLOCK`` focal rows so that
memory stays bounded at large n. Its R factor gives beta_i by back
substitution and the hat diagonal s_ii by forward substitution.

The reported fit (``gwr_fit``) and the exact scorer (``_qr_score``) share one
QR fit step (``_qr_fit``): the kernel weights, the support rows, that solver,
and the residuals, RSS and tr(S). An adaptive bisquare weight is exactly 0
at and beyond the k-th neighbour, so those fits stack only the k+1 nearest
rows of each focal location; every other kernel and bandwidth stacks all n
rows. The kernel weights come from ``geo.weight_matrix``, the rule Moran's I
uses too.

A dataset ranks its distances once, into one neighbour table
(``GwrDataset.neighbors``, built by ``geo.neighbor_table``). Those k+1 rows,
every adaptive bandwidth, the fixed-d0 search range and the nearest-neighbour
scale are all read from it.

The bandwidth search scores from Gram tables (``_GramTables``). Covariates are
standardized each on its own, so every subset's local [X | y]^T W_i [X | y]
is a sub-block of the full one, and one product W @ P per (kernel,
bandwidth) holds them all; ``enumerate_models`` shares these tables across
subsets. The golden sections are generators that yield the bandwidths they
still need, and one driver (``_searches``) runs all subset searches of a
kernel in lockstep: each round scores every search's bandwidths in one
``_GramTables.scores`` call, which stacks the blocks of each subset size and
takes one batched Cholesky of them. The tables hold each subset's design
(``_GramTables.subset``), which both the QR fallback and the rescore read.
An evaluation falls back, alone, to the QR scorer when its Cholesky fails,
when some pivot ratio is at most ``PIVOT_RATIO``, or, under AICc, when the
RSS or n - 2 - tr(S) is within ``GUARD_MARGIN`` of 0, so a score is inf
exactly where the QR path raises.
``optimize_bandwidth`` is the one-search case of the same driver. The chosen
bandwidth is solved again by the same scorer, so the search's score, and an
enumeration entry's AICc and global R^2, equal the fit's bit for bit;
``gwr_cv_score`` is that scorer too.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .econometrics import RANK_RATIO, r_squared, weak_pivots
from .errors import (
    DegenerateBandwidthError,
    EmptyReportError,
    FuelSpatialError,
    InsufficientSupportError,
    InvalidKError,
    NoFeasibleBandwidthError,
    OversaturatedModelError,
    PerfectFitError,
    SingularFitError,
)
from .geo import (
    Bandwidth,
    GeoPoint,
    KernelShape,
    NeighborTable,
    adaptive_bandwidths,
    distance_matrix,
    neighbor_table,
    weight_matrix,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Focal locations per batched QR. A block stacks FOCAL_BLOCK * n * (p+2)
# floats (14 MB at n=1000, p=5), and the QR works on a copy of it.
FOCAL_BLOCK = 256


@dataclass
class GwrDataset:
    """Locations with named covariates and a response, all aligned by index."""

    ids: list
    points: list[GeoPoint]
    covariates: dict[str, np.ndarray]
    response: np.ndarray

    def __post_init__(self):
        self.response = np.asarray(self.response, dtype=float)
        self.covariates = {k: np.asarray(v, dtype=float) for k, v in self.covariates.items()}
        n = len(self.points)
        if len(self.ids) != n or self.response.shape[0] != n:
            raise ValueError("ids, points and response must have equal length")
        if not np.isfinite(self.response).all():
            raise ValueError("response has a non-finite value")
        for name, col in self.covariates.items():
            if col.shape[0] != n:
                raise ValueError(f"covariate {name!r} has wrong length")
            if not np.isfinite(col).all():
                raise ValueError(f"covariate {name!r} has a non-finite value")

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def distances(self) -> np.ndarray:
        return distance_matrix(self.points)

    @cached_property
    def neighbors(self) -> NeighborTable:
        """The locations ranked by distance from each location, once per
        dataset: every adaptive bandwidth, bisquare support row, fixed-d0
        range and nearest-neighbour scale is read from it."""
        return neighbor_table(self.distances)


@dataclass(frozen=True)
class GwrSpec:
    """Model specification: covariate subset, kernel and bandwidth.

    An intercept is always included. Covariates are standardized internally;
    coefficients are reported in both normalized and raw units.
    """

    covariates: tuple
    kernel: KernelShape
    bandwidth: Bandwidth

    def __post_init__(self):
        # An empty tuple is the intercept-only model.
        if len(set(self.covariates)) != len(self.covariates):
            raise ValueError("duplicate covariates")


@dataclass
class GwrFit:
    spec: GwrSpec
    ids: list
    covariate_names: tuple
    local_coefficients: np.ndarray        # normalized units, intercept first
    local_coefficients_raw: np.ndarray    # original covariate units
    local_r2: np.ndarray
    residuals: np.ndarray
    hat_trace: float
    rss: float
    aicc: float
    global_r2: float

    @property
    def n(self) -> int:
        return len(self.ids)


def aicc_score(n: int, rss: float, hat_trace: float) -> float:
    """Corrected AIC for a smoother with effective parameters tr(S)."""
    if n - 2.0 - hat_trace <= 0:
        raise OversaturatedModelError(
            f"n - 2 - tr(S) = {n - 2.0 - hat_trace:.3g} <= 0: bandwidth too small")
    if rss <= 0:
        raise PerfectFitError("zero residual sum of squares; AICc diverges")
    sigma = math.sqrt(rss / n)
    return (2.0 * n * math.log(sigma) + n * math.log(2.0 * math.pi)
            + n * (n + hat_trace) / (n - 2.0 - hat_trace))


def _standardize(data: GwrDataset, covariates):
    """[1 | X | y] with each covariate column standardized on its own, plus
    the means and scales that undo it."""
    cols = []
    means, scales = [], []
    for name in covariates:
        if name not in data.covariates:
            raise KeyError(f"unknown covariate {name!r}")
        col = data.covariates[name]
        m, s = col.mean(), col.std(ddof=1)
        if s == 0:
            s = 1.0
        cols.append((col - m) / s)
        means.append(m)
        scales.append(s)
    xy = np.column_stack([np.ones(data.n)] + cols + [data.response])
    return xy, np.array(means), np.array(scales)


def _design(data: GwrDataset, covariates):
    """Standardized design with intercept and the response as its last column,
    [X | y], plus de-normalization info. Raises ValueError unless n > p+2."""
    xy, means, scales = _standardize(data, covariates)
    n, p1 = xy.shape[0], xy.shape[1] - 1
    if n <= p1 + 1:
        raise ValueError(f"need n > p+2, got n={n}, p={p1 - 1}")
    return xy, means, scales


def _weight_matrix(data: GwrDataset, spec: GwrSpec) -> np.ndarray:
    """``geo.weight_matrix`` over the dataset's distances and neighbour table."""
    return weight_matrix(data.distances, data.neighbors, spec.kernel, spec.bandwidth)


def _support_rows(data: GwrDataset, spec: GwrSpec) -> np.ndarray | None:
    """The rows each focal location is solved over, or None for all n.

    An adaptive bisquare weight is 0 wherever u >= 1, i.e. at and beyond the
    k-th neighbour, so its k+1 nearest rows hold every nonzero weight.
    """
    bw = spec.bandwidth
    if bw.is_adaptive and spec.kernel is KernelShape.BISQUARE:
        return data.neighbors.order[:, :int(bw.value) + 1]
    return None


def _back_substitute(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the stacked upper-triangular systems r[i] x[i] = b[i].

    Row by row from the last: x_j = (b_j - r[j, j+1:] . x[j+1:]) / r_jj. This
    is the operation order of LAPACK's trtrs on a row-major r, so on the same
    BLAS kernels it reproduces scipy.linalg.solve_triangular bit for bit.
    """
    x = np.empty_like(b)
    for j in range(b.shape[1] - 1, -1, -1):
        dot = r[:, j:j + 1, j + 1:] @ x[:, j + 1:, None]
        x[:, j] = (b[:, j] - dot[:, 0, 0]) / r[:, j, j]
    return x


def _forward_substitute_t(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the stacked lower-triangular systems r[i]^T z[i] = b[i]."""
    z = np.empty_like(b)
    for j in range(b.shape[1]):
        dot = np.einsum("ij,ij->i", r[:, :j, j], z[:, :j])
        z[:, j] = (b[:, j] - dot) / r[:, j, j]
    return z


def _check_rank(r: np.ndarray, focal: np.ndarray) -> None:
    """Raise SingularFitError for the first focal location whose R factor
    (one per focal row of ``r``) marks its local design rank deficient."""
    singular = weak_pivots(np.diagonal(r, axis1=1, axis2=2), RANK_RATIO).any(axis=1)
    if singular.any():
        raise SingularFitError(int(focal[np.argmax(singular)]))


def _local_fits(xy: np.ndarray, w: np.ndarray, rows: np.ndarray | None = None):
    """Weighted least squares at focal locations 0..m-1, where row i of the
    (m, n) array ``w`` holds the weights of focal location i.

    ``xy`` is the design with the response as its last column. With ``rows``
    (m, r), focal location i is solved over the rows ``rows[i]`` alone, which
    must hold every row where its weight is nonzero.

    An R-only QR of sqrt(w_i) [X | y] gives R of sqrt(w_i) X in its leading
    block and Q^T sqrt(w_i) y in its last column, so beta_i is one back
    substitution and s_ii = ||R^-T sqrt(w_ii) x_i||^2 one forward
    substitution. Returns (betas, hat_diag). Raises SingularFitError for the
    first focal location whose local design is rank deficient.
    """
    m, p1 = w.shape[0], xy.shape[1] - 1
    betas = np.empty((m, p1))
    hat_diag = np.empty(m)
    for start in range(0, m, FOCAL_BLOCK):
        block = slice(start, min(start + FOCAL_BLOCK, m))
        focal = np.arange(block.start, block.stop)
        if rows is None:
            stack = np.sqrt(w[block])[:, :, None] * xy
        else:
            stack = np.take(xy, rows[block], axis=0)
            stack *= np.sqrt(np.take_along_axis(w[block], rows[block], axis=1))[:, :, None]
        r = np.linalg.qr(stack, mode="r")
        rx = r[:, :p1, :p1]
        _check_rank(rx, focal)
        betas[block] = _back_substitute(rx, r[:, :p1, p1])
        z = _forward_substitute_t(rx, np.sqrt(w[focal, focal])[:, None] * xy[block, :p1])
        hat_diag[block] = np.einsum("ij,ij->i", z, z)
    return betas, hat_diag


def _residuals(xy: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """y_i - x_i . beta_i for each location i."""
    return xy[:, -1] - np.einsum("ij,ij->i", xy[:, :-1], betas)


def _loo_rss(xy: np.ndarray, w: np.ndarray, rows: np.ndarray | None) -> float:
    """Leave-one-out RSS behind ``gwr_cv_score`` and the CV search. Zeroes the
    diagonal of ``w`` in place, so that no focal location sees its own
    observation, then solves over ``rows`` as ``_local_fits`` does."""
    n, p1 = xy.shape[0], xy.shape[1] - 1
    np.fill_diagonal(w, 0.0)
    short = np.flatnonzero(np.count_nonzero(w, axis=1) < p1)
    first_short = int(short[0]) if short.size else n
    betas, _ = _local_fits(xy, w[:first_short],
                           None if rows is None else rows[:first_short])
    if first_short < n:
        raise InsufficientSupportError(
            f"location {first_short} has fewer than {p1} in-range neighbors after self-removal")
    residuals = _residuals(xy, betas)
    return float(residuals @ residuals)


def _qr_fit(data: GwrDataset, xy: np.ndarray, spec: GwrSpec):
    """The QR fit step of ``gwr_fit`` and ``_qr_score`` on ``xy``, the
    ``_design`` of ``spec.covariates``: kernel weights, local fits over the
    support rows, residuals. Returns (w, betas, residuals, rss, hat_trace)."""
    w = _weight_matrix(data, spec)
    betas, hat_diag = _local_fits(xy, w, _support_rows(data, spec))
    residuals = _residuals(xy, betas)
    return w, betas, residuals, float(residuals @ residuals), float(hat_diag.sum())


def gwr_fit(data: GwrDataset, spec: GwrSpec) -> GwrFit:
    """Fit a GWR model, one weighted regression per location."""
    xy, means, scales = _design(data, spec.covariates)
    x, y = xy[:, :-1], xy[:, -1]
    w, betas, residuals, rss, hat_trace = _qr_fit(data, xy, spec)

    # Weighted local R^2 around each focal point.
    pred = x @ betas.T                      # pred[j, i] = x_j . beta(i)
    res2 = (y[:, None] - pred) ** 2
    wsum = w.sum(axis=1)
    ybar_w = (w @ y) / wsum
    rss_w = np.einsum("ij,ji->i", w, res2)
    tss_w = np.sum(w * (y[None, :] - ybar_w[:, None]) ** 2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        local_r2 = 1.0 - rss_w / tss_w

    global_r2 = r_squared(y, rss)
    aicc = aicc_score(xy.shape[0], rss, hat_trace)

    # De-normalize: slope_raw = slope / scale, intercept shifts by the means.
    raw = betas.copy()
    raw[:, 1:] = betas[:, 1:] / scales[None, :]
    raw[:, 0] = betas[:, 0] - betas[:, 1:] @ (means / scales)

    return GwrFit(
        spec=spec, ids=list(data.ids), covariate_names=tuple(spec.covariates),
        local_coefficients=betas, local_coefficients_raw=raw,
        local_r2=local_r2, residuals=residuals, hat_trace=hat_trace,
        rss=rss, aicc=aicc, global_r2=global_r2,
    )


def gwr_cv_score(data: GwrDataset, spec: GwrSpec) -> float:
    """Leave-one-out CV: each focal weight for its own observation forced to 0.

    Locations are checked in order: the first one that is singular or left
    with fewer than p+1 in-range neighbors raises.
    """
    return _qr_score(data, _design(data, spec.covariates)[0], spec, cv=True)[0]


@dataclass
class BandwidthSearchResult:
    bandwidth: Bandwidth
    score: float
    evaluations: list = field(default_factory=list)  # (bandwidth value, score)


# A search falls back to the QR path for a whole evaluation when some row
# has ``weak_pivots`` at PIVOT_RATIO among its Cholesky pivots; the QR fit
# (``_check_rank``) tests its R factor's pivots at RANK_RATIO, 1e-10. A Gram
# block squares the condition number, so a score from it is off by about
# 2e-16 / ratio^2 relative: 1e-3 keeps that near 1e-10 (at a ratio of 1e-5,
# an AICc was off by 3e-7).
PIVOT_RATIO = 1e-3
# ... and, under AICc, when the Gram RSS is within GUARD_MARGIN * y'y of 0 or
# n - 2 - tr(S) within GUARD_MARGIN * n of 0, where ``aicc_score`` raises.
GUARD_MARGIN = 1e-8

# What makes a search evaluation infeasible (scored inf) rather than an error.
INFEASIBLE = (SingularFitError, InsufficientSupportError, OversaturatedModelError,
              PerfectFitError, DegenerateBandwidthError)


def _failed(exc: Exception):
    """A search evaluation's outcome for an error: inf if it makes the
    bandwidth infeasible, else the error itself."""
    return float("inf") if isinstance(exc, INFEASIBLE) else exc


def _qr_score(data: GwrDataset, xy: np.ndarray, spec: GwrSpec, cv: bool, fit: bool = False):
    """The criterion at ``spec`` through the QR solver, on ``xy``, the
    ``_design`` of ``spec.covariates``: the LOO-CV RSS with ``cv``, else the
    ``aicc`` of ``gwr_fit(data, spec)``, bit for bit.

    Returns (criterion, fitted), where ``fitted`` is the fit's
    (aicc, global_r2), also bit for bit, under AICc or with ``fit``, and None
    otherwise.
    """
    if cv:
        score = _loo_rss(xy, _weight_matrix(data, spec), _support_rows(data, spec))
        if not fit:
            return score, None
    *_, rss, hat_trace = _qr_fit(data, xy, spec)
    aicc = aicc_score(xy.shape[0], rss, hat_trace)
    return (score if cv else aicc), (aicc, r_squared(xy[:, -1], rss))


class _GramTables:
    """The Gram tables of one dataset, kernel and criterion, one per bandwidth.

    ``_design`` standardizes each column on its own, so for every subset of
    ``names`` the local [X | y]^T W_i [X | y] is a sub-block of the one over
    all of them. Row j of P holds the products z_a z_b (a <= b) of row j of
    z = [1 | X | y]; row i of a bandwidth's table W @ P then holds every such
    block of location i. Under CV the table is built from W with its diagonal
    zeroed, so no location sees its own observation.
    """

    def __init__(self, data: GwrDataset, names, kernel: KernelShape, criterion: str):
        criterion = criterion.lower()
        if criterion not in ("aicc", "cv"):
            raise ValueError(f"unknown criterion {criterion!r}")
        self.data, self.kernel, self.cv = data, kernel, criterion == "cv"
        z = _standardize(data, names)[0]
        q = z.shape[1]
        a, b = np.triu_indices(q)
        self.products = z[:, a] * z[:, b]
        self.pair = np.empty((q, q), dtype=np.intp)
        self.pair[a, b] = self.pair[b, a] = np.arange(a.size)
        self.column = {name: j for j, name in enumerate(names, start=1)}
        self.tables: dict = {}
        self.subsets: dict = {}

    @cached_property
    def fixed_range(self) -> tuple:
        """[min positive pairwise distance, largest distance], the fixed-d0
        range. Past column 0 the neighbour table holds each location's
        distances to all others in ascending order, so its last column holds
        each row's largest."""
        ranked = self.data.neighbors.distances
        others = ranked[:, 1:]
        lo = others.min(where=others > 0, initial=np.inf)
        if lo == np.inf:
            raise NoFeasibleBandwidthError("all pairwise distances are zero")
        return float(lo), float(ranked[:, -1].max())

    def table(self, bw: Bandwidth):
        """(W @ P, nonzero weights per row) at ``bw``, built on first use; None
        where the adaptive bandwidth is degenerate."""
        if bw not in self.tables:
            try:
                w = _weight_matrix(self.data, GwrSpec((), self.kernel, bw))
            except DegenerateBandwidthError:
                self.tables[bw] = None
            else:
                if self.cv:
                    np.fill_diagonal(w, 0.0)
                self.tables[bw] = (w @ self.products, np.count_nonzero(w, axis=1))
        return self.tables[bw]

    def subset(self, covariates) -> tuple:
        """(table columns of the subset's Gram block, its ``_design``), once
        per subset. Raises ``_design``'s ValueError unless n > p+2."""
        covariates = tuple(covariates)
        if covariates not in self.subsets:
            idx = [0, *(self.column[c] for c in covariates), -1]
            self.subsets[covariates] = (self.pair[np.ix_(idx, idx)],
                                        _design(self.data, covariates)[0])
        return self.subsets[covariates]

    def scores(self, requests) -> list:
        """AICc or LOO-CV of each (covariates, bandwidth) request, inf exactly
        where the QR path raises. A request that raises another package error
        or a LinAlgError gets that exception in place of its score.

        Requests whose subsets have the same size are scored from the tables
        together (``_gram_scores``); each one the tables cannot settle (see
        PIVOT_RATIO and GUARD_MARGIN) is solved alone by QR.
        """
        out: list = [None] * len(requests)
        sizes: dict = {}
        for i, (covariates, bw) in enumerate(requests):
            block, xy = self.subset(covariates)
            try:
                table = self.table(bw)
            except (FuelSpatialError, np.linalg.LinAlgError) as exc:
                out[i] = _failed(exc)
                continue
            if table is None or (self.cv and (table[1] < xy.shape[1] - 1).any()):
                # Degenerate, or _loo_rss raises at this row or a singular one before.
                out[i] = float("inf")
            else:
                sizes.setdefault(xy.shape[1], []).append((i, (table[0], block, xy)))
        for group in sizes.values():
            positions, batch = zip(*group)
            for i, value in zip(positions, self._gram_scores(batch)):
                out[i] = value
        for i, (covariates, bw) in enumerate(requests):
            if out[i] is None:
                spec = GwrSpec(tuple(covariates), self.kernel, bw)
                try:
                    out[i] = _qr_score(self.data, self.subset(covariates)[1], spec, self.cv)[0]
                except (FuelSpatialError, np.linalg.LinAlgError) as exc:
                    out[i] = _failed(exc)
        return out

    def _gram_scores(self, batch) -> list:
        """The criterion of each (table, block, design) of ``batch``, all of
        one subset size, or None where it must be solved by QR.

        The blocks of every request are stacked, so one Cholesky, one pivot
        check and one set of substitutions serve them all; RSS, tr(S) and the
        guards are taken per request. If the stacked Cholesky fails, each
        request is scored alone; the others are scored again without a
        request whose pivots fail.
        """
        n, p1 = self.data.n, batch[0][2].shape[1] - 1
        g = np.concatenate([gram[:, block] for gram, block, _ in batch])
        try:
            chol = np.linalg.cholesky(g[:, :p1, :p1])
        except np.linalg.LinAlgError:
            if len(batch) == 1:
                return [None]
            return [self._gram_scores([one])[0] for one in batch]
        pivots = np.diagonal(chol, axis1=1, axis2=2)
        loose = weak_pivots(pivots, PIVOT_RATIO).reshape(len(batch), -1).any(axis=1)
        if loose.any():
            trusted = [one for one, bad in zip(batch, loose) if not bad]
            values = iter(self._gram_scores(trusted) if trusted else ())
            return [None if bad else next(values) for bad in loose]
        xy = np.concatenate([xy for _, _, xy in batch])
        r = chol.swapaxes(1, 2)   # upper triangular, A_i = r_i^T r_i
        betas = _back_substitute(r, _forward_substitute_t(r, g[:, :p1, p1]))
        residuals = _residuals(xy, betas)
        # s_ii = w_ii ||L^-1 x_i||^2, and every kernel weighs a location's own
        # observation by kernel(0) = 1.
        z = None if self.cv else _forward_substitute_t(r, xy[:, :p1])
        values = []
        for j in range(len(batch)):
            rows = slice(j * n, (j + 1) * n)
            rss = float(residuals[rows] @ residuals[rows])
            if self.cv:
                values.append(rss)
                continue
            hat_trace = float(np.einsum("ij,ij->", z[rows], z[rows]))
            y = xy[rows, -1]
            if (rss <= GUARD_MARGIN * float(y @ y)
                    or abs(n - 2.0 - hat_trace) <= GUARD_MARGIN * n):
                values.append(None)
                continue
            try:
                values.append(aicc_score(n, rss, hat_trace))
            except INFEASIBLE:
                values.append(float("inf"))
        return values


def _visit(cache: dict, values):
    """Yield the values of ``values`` that ``cache`` lacks, in order and once
    each, and store the scores sent back for them."""
    missing = [v for v in dict.fromkeys(values) if v not in cache]
    if missing:
        cache.update(zip(missing, (yield missing)))


def _integer_section(lo: int, hi: int):
    """Golden-section over integers; the final bracket is scanned exhaustively
    and ties break toward smaller k.

    A generator: it yields the list of bandwidths it still needs (x1 and x2
    together, then the whole final bracket at once) and is sent back their
    scores. Returns (best, its score, sorted evaluations)."""
    cache: dict[int, float] = {}
    a, b = lo, hi
    while b - a > 4:
        span = b - a
        x1 = round(b - GOLDEN * span)
        x2 = round(a + GOLDEN * span)
        yield from _visit(cache, (x1, x2))
        if cache[x1] <= cache[x2]:
            b = x2
        else:
            a = x1
    yield from _visit(cache, range(a, b + 1))
    best_k, best_v = None, float("inf")
    for k in range(a, b + 1):
        if cache[k] < best_v:
            best_k, best_v = k, cache[k]
    return best_k, best_v, sorted(cache.items())


def _continuous_section(lo: float, hi: float, rel_tol: float = 1e-3):
    """Golden-section over [lo, hi] to a bracket of ``rel_tol``, then the best
    of its ends and inner points; the same generator protocol as
    ``_integer_section``."""
    cache: dict[float, float] = {}
    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    while (b - a) > rel_tol * max(abs(b), 1.0):
        yield from _visit(cache, (x1, x2))
        if cache[x1] <= cache[x2]:
            b, x2 = x2, x1
            x1 = b - GOLDEN * (b - a)
        else:
            a, x1 = x1, x2
            x2 = a + GOLDEN * (b - a)
    candidates = [a, x1, x2, b]
    yield from _visit(cache, candidates)
    best = min(candidates, key=cache.__getitem__)
    return best, cache[best], sorted(cache.items())


def _minimize(section, objective):
    """Run a golden-section generator, scoring each bandwidth with ``objective``."""
    try:
        values = next(section)
        while True:
            values = section.send([objective(v) for v in values])
    except StopIteration as done:
        return done.value


def _searches(tables: _GramTables, subsets, mode: str, fit: bool = False) -> list:
    """Golden-section search of the bandwidth of every subset in ``subsets``
    on the Gram scores of ``tables``, all in lockstep: each round collects the
    bandwidths every unfinished search needs and scores them in one
    ``tables.scores`` call.

    The chosen bandwidth is then solved again by QR, so a result's score is
    the ``aicc`` of ``gwr_fit`` or the ``gwr_cv_score`` there, bit for bit.
    Returns, per subset, the result and that fit's (aicc, global_r2), also bit
    for bit, or the package error or LinAlgError that ended its search. Under
    AICc the one solve gives both; under CV the fit is solved only with
    ``fit`` (else None).
    """
    data = tables.data
    if mode == "adaptive":
        make, name = Bandwidth.adaptive_knn, "k"
    elif mode == "fixed":
        make, name = Bandwidth.fixed_distance, "d0"
    else:
        raise ValueError(f"unknown bandwidth mode {mode!r}")
    outcomes: list = [None] * len(subsets)
    sections, pending = {}, {}
    for s, covariates in enumerate(subsets):
        try:
            if mode == "adaptive":
                lo, hi = len(covariates) + 2, data.n - 1
                if lo > hi:
                    raise NoFeasibleBandwidthError(f"no feasible k in [{lo}, {hi}]")
                sections[s] = _integer_section(lo, hi)
            else:
                sections[s] = _continuous_section(*tables.fixed_range)
        except FuelSpatialError as exc:
            outcomes[s] = exc
            continue
        tables.subset(covariates)  # raises _design's ValueError before any scoring
        pending[s] = next(sections[s])

    while pending:
        requests = [(subsets[s], make(v)) for s, values in pending.items() for v in values]
        scores = iter(tables.scores(requests))
        for s, values in list(pending.items()):
            got = [next(scores) for _ in values]
            failure = next((v for v in got if isinstance(v, Exception)), None)
            if failure is not None:
                outcomes[s] = failure
                del pending[s]
                continue
            try:
                pending[s] = sections[s].send(got)
            except StopIteration as done:
                outcomes[s] = done.value
                del pending[s]

    for s, found in enumerate(outcomes):
        if isinstance(found, Exception):
            continue
        best, value, evaluations = found
        try:
            if not math.isfinite(value):
                raise NoFeasibleBandwidthError(f"criterion failed across the entire {name} range")
            spec = GwrSpec(tuple(subsets[s]), tables.kernel, make(best))
            score, fitted = _qr_score(data, tables.subset(subsets[s])[1], spec, tables.cv, fit)
        except (FuelSpatialError, np.linalg.LinAlgError) as exc:
            outcomes[s] = exc
        else:
            outcomes[s] = BandwidthSearchResult(spec.bandwidth, score, evaluations), fitted
    return outcomes


def optimize_bandwidth(data: GwrDataset, covariates, kernel: KernelShape,
                       criterion: str = "aicc",
                       mode: str = "adaptive") -> BandwidthSearchResult:
    """Minimize AICc or LOO-CV over the bandwidth: the one-search case of
    ``_searches``.

    Adaptive mode searches integer k in [p+2, n-1] (golden section with a
    final exhaustive sweep of the bracket).
    Fixed mode searches d0 in [min positive NN distance, study-area diameter].
    """
    (outcome,) = _searches(_GramTables(data, covariates, kernel, criterion), [covariates], mode)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome[0]


@dataclass(slots=True)
class ModelEntry:
    covariates: tuple
    kernel: KernelShape
    bandwidth: Bandwidth | None
    aicc: float | None
    cv_score: float | None
    global_r2: float | None
    failure: str | None = None


@dataclass
class ModelSelectionReport:
    entries: list
    best: int
    median_aicc_gap: float
    n_failed: int

    def best_entry(self) -> ModelEntry:
        return self.entries[self.best]

    def to_csv(self, path) -> None:
        ok = sorted((e for e in self.entries if e.failure is None), key=lambda e: e.aicc)
        failed = [e for e in self.entries if e.failure is not None]
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh, lineterminator="\n")
            wr.writerow(["rank", "covariates", "kernel", "bandwidth_mode", "bandwidth",
                         "aicc", "cv_score", "global_r2", "failure"])
            for rank, e in enumerate(ok, start=1):
                wr.writerow([
                    rank, "+".join(e.covariates), e.kernel.value,
                    e.bandwidth.mode, f"{e.bandwidth.value:.10g}",
                    f"{e.aicc:.10g}",
                    "" if e.cv_score is None else f"{e.cv_score:.10g}",
                    f"{e.global_r2:.10g}", "",
                ])
            for e in failed:
                wr.writerow(["", "+".join(e.covariates), e.kernel.value, "", "", "", "", "",
                             e.failure])


def _subsets(names):
    names = list(names)
    out = []
    for mask in range(1, 1 << len(names)):
        out.append(tuple(names[i] for i in range(len(names)) if mask >> i & 1))
    return out


def enumerate_models(data: GwrDataset, all_covariates, kernels=None,
                     criterion: str = "aicc", mode: str = "adaptive") -> ModelSelectionReport:
    """Exhaustive model search: every non-empty covariate subset x every kernel,
    each with its own optimized bandwidth. Configurations that fail with a
    package error or a LinAlgError are recorded and excluded from the ranking;
    any other exception (an unknown covariate, a programming error) propagates.

    All searches of one kernel share its Gram tables and run in lockstep
    (``_searches``), so a bandwidth costs one kernel evaluation and one table
    whichever subsets visit it, and each round scores every subset in one
    batched call; the tables are dropped before the next kernel. Entries stay
    in subset-major order.
    """
    kernels = list(kernels) if kernels is not None else list(KernelShape)
    subsets = _subsets(all_covariates)
    entries: list = [None] * (len(subsets) * len(kernels))
    for k, kernel in enumerate(kernels):
        outcomes = _searches(_GramTables(data, all_covariates, kernel, criterion),
                             subsets, mode, fit=True)
        for s, (subset, outcome) in enumerate(zip(subsets, outcomes)):
            if isinstance(outcome, Exception):
                entry = ModelEntry(subset, kernel, None, None, None, None,
                                   failure=f"{type(outcome).__name__}: {outcome}")
            else:
                search, (aicc, global_r2) = outcome
                entry = ModelEntry(subset, kernel, search.bandwidth, aicc,
                                   search.score if criterion.lower() == "cv" else None,
                                   global_r2)
            entries[s * len(kernels) + k] = entry
    ok = [i for i, e in enumerate(entries) if e.failure is None]
    if not ok:
        raise EmptyReportError("every configuration failed")
    best = min(ok, key=lambda i: entries[i].aicc)
    gaps = [entries[i].aicc - entries[best].aicc for i in ok if i != best]
    median_gap = float(np.median(gaps)) if gaps else 0.0
    return ModelSelectionReport(entries=entries, best=best, median_aicc_gap=median_gap,
                                n_failed=len(entries) - len(ok))


@dataclass
class NeighborScale:
    median: float
    interquartile: float
    distances: np.ndarray


def nearest_neighbor_scale(neighbors: NeighborTable, k: int) -> NeighborScale:
    """Distance from each location of a neighbour table (``GwrDataset.neighbors``)
    to its k-th nearest neighbor, with median and interquartile range of that
    distribution."""
    n = neighbors.n
    if not 1 <= k < n:
        raise InvalidKError(f"need 1 <= k < n, got k={k}, n={n}")
    d = adaptive_bandwidths(neighbors, k)
    p25, p75 = np.percentile(d, [25, 75])
    return NeighborScale(median=float(np.median(d)), interquartile=float(p75 - p25),
                         distances=d)


def fit_to_csv(fit: GwrFit, data: GwrDataset, path) -> None:
    names = fit.covariate_names
    header = (["location_id", "lat", "lon", "intercept_raw"]
              + [f"{c}_raw" for c in names]
              + ["intercept_norm"] + [f"{c}_norm" for c in names]
              + ["local_r2", "residual"])
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(header)
        for i, loc in enumerate(fit.ids):
            pt = data.points[i]
            row = ([loc, f"{pt.lat:.8g}", f"{pt.lon:.8g}"]
                   + [f"{v:.12g}" for v in fit.local_coefficients_raw[i]]
                   + [f"{v:.12g}" for v in fit.local_coefficients[i]]
                   + [f"{fit.local_r2[i]:.12g}", f"{fit.residuals[i]:.12g}"])
            wr.writerow(row)


def fit_to_geojson(fit: GwrFit, data: GwrDataset, path) -> None:
    """FeatureCollection of points carrying local coefficients, local R^2 and
    residuals, suitable for choropleth-style rendering."""
    features = []
    for i, loc in enumerate(fit.ids):
        pt = data.points[i]
        props = {"location_id": str(loc),
                 "local_r2": round(float(fit.local_r2[i]), 10),
                 "residual": round(float(fit.residuals[i]), 10),
                 "intercept_raw": round(float(fit.local_coefficients_raw[i, 0]), 10)}
        for j, c in enumerate(fit.covariate_names, start=1):
            props[f"{c}_raw"] = round(float(fit.local_coefficients_raw[i, j]), 10)
            props[f"{c}_norm"] = round(float(fit.local_coefficients[i, j]), 10)
        features.append({
            "type": "Feature",
            "geometry": {"type": "Point", "coordinates": [round(pt.lon, 8), round(pt.lat, 8)]},
            "properties": props,
        })
    with open(path, "w") as fh:
        json.dump({"type": "FeatureCollection", "features": features}, fh,
                  sort_keys=True, separators=(",", ":"))
        fh.write("\n")
