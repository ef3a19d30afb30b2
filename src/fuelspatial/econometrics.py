"""Fixed-effect regressions and cluster-robust inference.

Group effects are absorbed by demeaning, never by materializing dummy
matrices; the within estimator is numerically equivalent to dummy-variable
OLS. Two-way (group and day) effects are solved exactly by Frisch-Waugh-Lovell:
the group-demeaned response is regressed on the group-demeaned day dummies,
whose (D-1) x (D-1) normal equations diag(n_d) - C' diag(1/n_g) C come from
the sparse group-by-day count table C. A group-day graph with several
connected components is rank deficient by one per component, so one
reference day per component is dropped and a disconnected panel is still
solved exactly. Clustered standard errors use the Liang-Zeger sandwich with
the Stata-style small-sample factor G/(G-1) * (n-1)/(n-k), where k counts
absorbed effects.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse, special
from scipy.sparse import csgraph

from .errors import (
    AbsorbedCovariateError,
    DegenerateGroupingError,
    EmptyInputError,
    InsufficientClustersError,
    PerfectFitError,
    SingularDesignError,
)
from .groups import demean, group_index, group_sums

GWR_COVARIATES = ("income", "population", "wage_per_job", "jobs_per_capita", "jobs")
COUNTY_COVARIATES = ("density", "log_population", "log_total_income", "unemployment",
                     "poverty", "pct_black", "vote_gop", "state_tax")


@dataclass(frozen=True)
class PanelObservation:
    station_id: str
    state_id: str
    county_fips: str
    day: dt.date
    price: float


@dataclass(frozen=True)
class FixedEffectSpec:
    level: str  # "state" | "county" | "station"
    include_day_effect: bool = False

    def __post_init__(self):
        if self.level not in ("state", "county", "station"):
            raise ValueError(f"unknown fixed-effect level {self.level!r}")


@dataclass
class CountyModelRow:
    county_fips: str
    log_mean_price: float
    state_id: str
    covariates: dict  # name -> value, names from COUNTY_COVARIATES


@dataclass
class FeFit:
    coefficients: dict
    standard_errors: dict
    r_squared: float
    n_observations: int
    n_clusters: int


@dataclass
class OlsResult:
    coefficients: np.ndarray
    residuals: np.ndarray
    r_squared: float
    bread: np.ndarray  # (X'X)^-1 = R^-1 R^-T from the QR factor


def r_squared(y: np.ndarray, rss: float) -> float:
    """1 - RSS/TSS, NaN for a constant response."""
    tss = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - rss / tss if tss > 0 else float("nan")


RANK_RATIO = 1e-10  # a weak R pivot at this ratio marks an OLS or GWR design singular


def weak_pivots(pivots: np.ndarray, ratio: float) -> np.ndarray:
    """Which pivots, along the last axis, are at most ``ratio`` times the
    largest magnitude among them (or times 1, if all are below 1)."""
    pivots = np.abs(pivots)
    return pivots <= ratio * np.maximum(pivots.max(axis=-1, keepdims=True), 1.0)


def ols(design, response) -> OlsResult:
    """Ordinary least squares with an explicit rank check. Raises
    ``SingularDesignError`` naming the indices of the collinear columns."""
    x = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    n, k = x.shape
    if n <= k:
        raise ValueError(f"need n > k, got n={n}, k={k}")
    q, r = np.linalg.qr(x)
    bad = np.flatnonzero(weak_pivots(np.diag(r), RANK_RATIO))
    if bad.size:
        raise SingularDesignError(bad.tolist())
    beta = np.linalg.solve(r, q.T @ y)
    residuals = y - x @ beta
    r_inv = linalg.solve_triangular(r, np.eye(k))
    return OlsResult(coefficients=beta, residuals=residuals,
                     r_squared=r_squared(y, float(residuals @ residuals)),
                     bread=r_inv @ r_inv.T)


def _two_way_residual(y: np.ndarray, groups: np.ndarray, group_counts: np.ndarray,
                      days: np.ndarray) -> np.ndarray:
    """Residual of ``y`` on group and day dummies (group and day codes as
    from ``group_index``), by the exact Frisch-Waugh-Lovell solve described
    in the module docstring. Memory is O(n + nnz(C)) plus the D x D system."""
    n_groups = group_counts.size
    day_counts = np.bincount(days)
    n_days = day_counts.size
    table = sparse.csr_matrix((np.ones(y.size), (groups, days)), shape=(n_groups, n_days))
    # Days d and d' are linked when some group is seen on both; the
    # components of this day graph are those of the group-day graph.
    shared = table.T @ sparse.diags(1.0 / group_counts) @ table
    normal = np.diag(day_counts.astype(float)) - shared.toarray()
    rhs = np.bincount(days, weights=demean(y, groups, group_counts), minlength=n_days)

    _, component = csgraph.connected_components(shared, directed=False)
    _, reference = np.unique(component, return_index=True)
    free = np.ones(n_days, dtype=bool)
    free[reference] = False
    day_effect = np.zeros(n_days)
    day_effect[free] = np.linalg.solve(normal[np.ix_(free, free)], rhs[free])
    return demean(y - day_effect[days], groups, group_counts)


def fe_variance_explained(panel, spec: FixedEffectSpec) -> dict:
    """R^2 of regressing price on group dummies (plus day dummies when asked),
    computed by demeaning."""
    panel = list(panel)
    key = {"state": "state_id", "county": "county_fips", "station": "station_id"}[spec.level]
    days = [o.day.toordinal() for o in panel] if spec.include_day_effect else None
    return fe_r_squared(np.array([o.price for o in panel]),
                        [getattr(o, key) for o in panel], spec.level, days)


def fe_r_squared(price, groups, level: str, days=None) -> dict:
    """``fe_variance_explained`` on columns: each row's price, its group label
    at ``level`` and, for day effects too, its day label (None for none)."""
    price = np.asarray(price, dtype=float)
    if price.size < 2:
        raise EmptyInputError("need at least 2 observations")
    groups, counts = group_index(groups)
    if counts.size < 2:
        raise DegenerateGroupingError(f"only one {level} group present")
    if days is None:
        within = demean(price, groups, counts)
    else:
        within = _two_way_residual(price, groups, counts, group_index(days)[0])
    return {"r_squared": r_squared(price, float(within @ within)),
            "n_groups": int(counts.size)}


def clustered_covariance(design, residuals, bread, clusters, k_total=None) -> np.ndarray:
    """Liang-Zeger clustered variance matrix.

    ``bread`` is (X'X)^{-1} for the (demeaned) design; ``k_total`` counts
    regressors plus any absorbed fixed effects for the small-sample factor.
    """
    x = np.asarray(design, dtype=float)
    u = np.asarray(residuals, dtype=float)
    n, k = x.shape
    if k_total is None:
        k_total = k
    codes, counts = group_index(clusters)
    g = counts.size
    if g < 2:
        raise InsufficientClustersError("need at least 2 clusters")
    scores = group_sums(codes, x * u[:, None], g)
    meat = scores.T @ scores
    c = (g / (g - 1.0)) * ((n - 1.0) / (n - k_total))
    return c * bread @ meat @ bread


def cluster_robust_se(design, residuals, bread, clusters, k_total: int | None = None) -> np.ndarray:
    """Liang-Zeger clustered standard errors: the square roots of the
    diagonal of ``clustered_covariance``."""
    cov = clustered_covariance(design, residuals, bread, clusters, k_total=k_total)
    return np.sqrt(np.clip(np.diag(cov), 0.0, None))


def county_regression(rows, covariate_set, cluster: str = "state") -> FeFit:
    """Eq.-(5)-style model: log county price on county covariates with state
    fixed effects absorbed by within-state demeaning and state-clustered SEs.
    ``cluster`` must be "state"; any other value raises ``ValueError``.

    R^2 follows the convention that fitted values include the recovered state
    effects: y less those fitted values is the within residual, so R^2 is
    1 - RSS_within / TSS(y).
    """
    if cluster != "state":
        raise ValueError(f"unknown cluster level {cluster!r}")
    rows = list(rows)
    if not rows:
        raise EmptyInputError("no county rows")
    covariate_set = tuple(covariate_set)
    y = np.array([r.log_mean_price for r in rows])
    states, state_counts = group_index([r.state_id for r in rows])
    n = len(rows)
    n_states = state_counts.size
    if n_states < 2:
        raise InsufficientClustersError("need counties from at least 2 states")
    x = np.column_stack([[r.covariates[name] for r in rows] for name in covariate_set])
    k = x.shape[1]
    if n <= k + n_states:
        raise ValueError(f"need n > k + number of states ({k + n_states}), got {n}")

    xd = demean(x, states, state_counts)
    for j, name in enumerate(covariate_set):
        if np.max(np.abs(xd[:, j])) <= 1e-12 * max(1.0, np.max(np.abs(x[:, j]))):
            raise AbsorbedCovariateError(name)
    yd = demean(y, states, state_counts)

    try:
        fit = ols(xd, yd)
    except SingularDesignError as exc:
        raise SingularDesignError([covariate_set[j] for j in exc.columns]) from None
    beta, residuals = fit.coefficients, fit.residuals
    if np.max(np.abs(residuals)) <= 1e-12 * max(1.0, np.max(np.abs(yd))):
        raise PerfectFitError("zero residuals; clustered standard errors undefined")

    se = cluster_robust_se(xd, residuals, fit.bread, states, k_total=k + n_states)
    return FeFit(
        coefficients={name: float(b) for name, b in zip(covariate_set, beta)},
        standard_errors={name: float(s) for name, s in zip(covariate_set, se)},
        r_squared=r_squared(y, float(residuals @ residuals)), n_observations=n,
        n_clusters=int(n_states),
    )


def significance_stars(coef: float, se: float, n_clusters: int) -> str:
    """Stars at the 0.01 / 0.05 / 0.1 levels; t with G-1 df when G <= 30,
    normal approximation otherwise."""
    if se <= 0:
        return ""
    t = abs(coef) / se
    if n_clusters <= 30:
        p = 2.0 * special.stdtr(max(n_clusters - 1, 1), -t)
    else:
        p = 2.0 * special.ndtr(-t)
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.1:
        return "*"
    return ""


def _table_rows(fit: FeFit, spec: str) -> list:
    """For each coefficient name of ``fit``, in its order, the name, its
    coefficient cell with stars and its SE cell in parentheses, numbers in
    format ``spec``."""
    rows = []
    for name, c in fit.coefficients.items():
        s = fit.standard_errors[name]
        rows.append((name, f"{c:{spec}}{significance_stars(c, s, fit.n_clusters)}",
                     f"({s:{spec}})"))
    return rows


def render_fe_table(fit: FeFit) -> str:
    """Aligned-text table of one fit in column ``(1)``: each coefficient with
    its stars, its SE in parentheses below it, then R-squared and N."""
    rows = _table_rows(fit, ".3f")
    width = max([len(name) for name, _, _ in rows] + [12]) + 2
    col = 18
    lines = [" " * width + f"{'(1)':>{col}}"]
    for name, coef, se in rows:
        lines.append(f"{name:<{width}}{coef:>{col}}")
        lines.append(" " * width + f"{se:>{col}}")
    lines.append(f"{'R-squared':<{width}}{fit.r_squared:>{col}.3f}")
    lines.append(f"{'N':<{width}}{fit.n_observations:>{col}}")
    return "\n".join(lines) + "\n"


def fe_table_to_csv(fit: FeFit, path) -> None:
    """One fit as CSV in column ``(1)``: a coefficient row (with stars) and a
    ``<name>_se`` row per covariate, then ``r_squared`` and ``n``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["variable", "(1)"])
        for name, coef, se in _table_rows(fit, ".6g"):
            wr.writerow([name, coef])
            wr.writerow([name + "_se", se])
        wr.writerow(["r_squared", f"{fit.r_squared:.6g}"])
        wr.writerow(["n", str(fit.n_observations)])
