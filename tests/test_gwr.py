import csv
import math

import numpy as np
import pytest

from fuelspatial import geo, gwr
from fuelspatial.errors import (
    DegenerateBandwidthError,
    EmptyReportError,
    FuelSpatialError,
    InsufficientSupportError,
    InvalidBandwidthError,
    InvalidKError,
    NoFeasibleBandwidthError,
    OversaturatedModelError,
    PerfectFitError,
    SingularFitError,
)
from fuelspatial.geo import Bandwidth, GeoPoint, KernelShape, distance_matrix, kernel_weight
from fuelspatial.gwr import (
    GwrDataset,
    GwrSpec,
    _design,
    _weight_matrix,
    aicc_score,
    enumerate_models,
    gwr_cv_score,
    gwr_fit,
    nearest_neighbor_scale,
    optimize_bandwidth,
)
from fuelspatial.synth import (
    make_grid_dataset,
    make_model_selection_dataset,
    make_random_gwr_dataset,
)

GLOBAL_BW = Bandwidth.fixed_distance(1e6)  # exceeds any study-area diameter


def _ols(data):
    x = np.column_stack([np.ones(data.n)] + [data.covariates[c] for c in data.covariates])
    beta, *_ = np.linalg.lstsq(x, data.response, rcond=None)
    return x, beta


class TestGwrFit:
    def test_step_global_bandwidth_collapses_to_ols(self):
        data = make_random_gwr_dataset(1, n=60, p=2)
        spec = GwrSpec(tuple(data.covariates), KernelShape.STEP, GLOBAL_BW)
        fit = gwr_fit(data, spec)
        _, beta = _ols(data)
        assert np.max(np.abs(fit.local_coefficients_raw - beta)) < 1e-8
        assert fit.hat_trace == pytest.approx(len(beta), abs=1e-6)

    def test_one_covariate_matches_closed_form_wls(self):
        data = make_random_gwr_dataset(2, n=40, p=1)
        h = 300.0
        spec = GwrSpec(("x0",), KernelShape.GAUSSIAN, Bandwidth.fixed_distance(h))
        fit = gwr_fit(data, spec)
        d = data.distances
        x = (data.covariates["x0"] - data.covariates["x0"].mean()) \
            / data.covariates["x0"].std(ddof=1)
        y = data.response
        for i in (0, 17, 39):
            w = kernel_weight(KernelShape.GAUSSIAN, d[i], h)
            xm = np.column_stack([np.ones(data.n), x])
            beta = np.linalg.solve(xm.T @ (w[:, None] * xm), xm.T @ (w * y))
            assert np.allclose(fit.local_coefficients[i], beta, atol=1e-10)

    def test_intercept_only_is_weighted_mean(self):
        rng = np.random.default_rng(5)
        n = 30
        pts = [GeoPoint(float(a), float(b))
               for a, b in zip(rng.uniform(35, 45, n), rng.uniform(-110, -90, n))]
        y = rng.normal(2.3, 0.3, n)
        data = GwrDataset(ids=list(range(n)), points=pts, covariates={}, response=y)
        h = 200.0
        fit = gwr_fit(data, GwrSpec((), KernelShape.GAUSSIAN,
                                    Bandwidth.fixed_distance(h)))
        d = data.distances
        for i in range(n):
            w = kernel_weight(KernelShape.GAUSSIAN, d[i], h)
            assert fit.local_coefficients[i, 0] == pytest.approx(
                np.average(y, weights=w), abs=1e-10)

    def test_grid_recovery(self):
        data, true_slope = make_grid_dataset(11)
        fit = gwr_fit(data, GwrSpec(("x",), KernelShape.GAUSSIAN,
                                    Bandwidth.adaptive_knn(30)))
        corr = np.corrcoef(fit.local_coefficients_raw[:, 1], true_slope)[0, 1]
        assert corr > 0.95

    def test_residual_identity_and_global_r2(self):
        data = make_random_gwr_dataset(3, n=50, p=2)
        fit = gwr_fit(data, GwrSpec(tuple(data.covariates), KernelShape.GAUSSIAN,
                                    Bandwidth.adaptive_knn(20)))
        y = data.response
        tss = np.sum((y - y.mean()) ** 2)
        assert fit.global_r2 == pytest.approx(1 - fit.rss / tss, abs=1e-12)
        x = np.column_stack(
            [np.ones(data.n)]
            + [(data.covariates[c] - data.covariates[c].mean())
               / data.covariates[c].std(ddof=1) for c in fit.covariate_names])
        fitted = np.einsum("ij,ij->i", x, fit.local_coefficients)
        assert np.allclose(fit.residuals, y - fitted, atol=1e-12)

    def test_permutation_invariance(self):
        data = make_random_gwr_dataset(4, n=40, p=2)
        spec = GwrSpec(tuple(data.covariates), KernelShape.GAUSSIAN,
                       Bandwidth.adaptive_knn(15))
        fit = gwr_fit(data, spec)
        rng = np.random.default_rng(0)
        perm = rng.permutation(40)
        pdata = GwrDataset(ids=[data.ids[i] for i in perm],
                           points=[data.points[i] for i in perm],
                           covariates={c: v[perm] for c, v in data.covariates.items()},
                           response=data.response[perm])
        pfit = gwr_fit(pdata, spec)
        assert np.allclose(pfit.local_coefficients, fit.local_coefficients[perm],
                           atol=1e-9)
        assert pfit.aicc == pytest.approx(fit.aicc, abs=1e-9)

    def test_response_scaling_equivariance(self):
        data = make_random_gwr_dataset(5, n=40, p=2)
        spec = GwrSpec(tuple(data.covariates), KernelShape.GAUSSIAN,
                       Bandwidth.adaptive_knn(15))
        fit = gwr_fit(data, spec)
        c = 3.7
        sdata = GwrDataset(ids=data.ids, points=data.points,
                           covariates=data.covariates, response=c * data.response)
        sfit = gwr_fit(sdata, spec)
        assert np.allclose(sfit.local_coefficients, c * fit.local_coefficients,
                           rtol=1e-9)
        assert sfit.rss == pytest.approx(c**2 * fit.rss, rel=1e-9)

    def test_hat_trace_weakly_decreasing_in_bandwidth(self):
        data, _ = make_grid_dataset(12)
        traces = []
        for k in (10, 30, 80, 200):
            fit = gwr_fit(data, GwrSpec(("x",), KernelShape.GAUSSIAN,
                                        Bandwidth.adaptive_knn(k)))
            traces.append(fit.hat_trace)
        assert all(a >= b - 1e-9 for a, b in zip(traces, traces[1:]))
        # non-compact kernel at huge bandwidth: tr(S) -> p+1
        fit = gwr_fit(data, GwrSpec(("x",), KernelShape.GAUSSIAN, GLOBAL_BW))
        assert fit.hat_trace == pytest.approx(2.0, abs=1e-3)

    def test_adaptive_k_too_large(self):
        data = make_random_gwr_dataset(6, n=20, p=1)
        with pytest.raises(InvalidBandwidthError):
            gwr_fit(data, GwrSpec(("x0",), KernelShape.GAUSSIAN,
                                  Bandwidth.adaptive_knn(20)))

    @pytest.mark.parametrize("column", ["income", "response"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, column, value):
        data = make_model_selection_dataset(101, n=20)
        covariates = {k: v.copy() for k, v in data.covariates.items()}
        response = data.response.copy()
        (response if column == "response" else covariates[column])[3] = value
        with pytest.raises(ValueError, match=f"{column}.* non-finite"):
            GwrDataset(ids=data.ids, points=data.points, covariates=covariates,
                       response=response)

    def test_constant_covariate_scaled_by_one(self):
        data = make_random_gwr_dataset(8, n=20, p=1)
        data = GwrDataset(ids=data.ids, points=data.points,
                          covariates={"x0": data.covariates["x0"], "flat": np.full(20, 4.0)},
                          response=data.response)
        xy, means, scales = gwr._standardize(data, ("x0", "flat"))
        assert means[1] == 4.0 and scales[1] == 1.0
        assert not xy[:, 2].any()
        assert scales[0] == data.covariates["x0"].std(ddof=1)


def _lstsq_local_fits(data, spec):
    """Oracle: one least-squares solve per focal location. The hat diagonal
    s_ii is x_i . (sqrt(W_i) X)^+ sqrt(w_ii) e_i."""
    xy, _, _ = _design(data, spec.covariates)
    x, y = xy[:, :-1], xy[:, -1]
    w = _weight_matrix(data, spec)
    betas, hat_trace = np.empty_like(x), 0.0
    for i in range(data.n):
        sw = np.sqrt(w[i])
        rhs = np.column_stack([sw * y, np.where(np.arange(data.n) == i, sw, 0.0)])
        sol, *_ = np.linalg.lstsq(sw[:, None] * x, rhs, rcond=None)
        betas[i] = sol[:, 0]
        hat_trace += x[i] @ sol[:, 1]
    return betas, hat_trace


def _clustered_dataset(isolated, constant):
    """Six groups of three points ~1 km apart, groups ~500 km apart. Points in
    group ``isolated`` are spread ~100 km apart, so a 10 km step kernel sees
    only the point itself; group ``constant`` has one covariate value, so its
    local designs are rank deficient despite full support."""
    lats, xs = [], []
    rng = np.random.default_rng(0)
    for g in range(6):
        spacing = 1.0 if g != isolated else 100.0
        lats += [30.0 + 4.5 * g + spacing / 111.2 * j for j in range(3)]
        xs += [0.5] * 3 if g == constant else list(rng.normal(0, 1, 3))
    xs = np.array(xs)
    y = 1.0 + 2.0 * xs + rng.normal(0, 0.1, xs.size)
    return GwrDataset(ids=list(range(xs.size)),
                      points=[GeoPoint(lat, -100.0) for lat in lats],
                      covariates={"x": xs}, response=y)


STEP_10KM = GwrSpec(("x",), KernelShape.STEP, Bandwidth.fixed_distance(10.0))


class TestBatchedLocalFits:
    @pytest.mark.parametrize("kernel", list(KernelShape))
    @pytest.mark.parametrize("bandwidth", [
        Bandwidth.fixed_distance(1200.0),
        Bandwidth.adaptive_knn(15),
    ])
    def test_matches_lstsq_oracle(self, kernel, bandwidth):
        data = make_random_gwr_dataset(23, n=40, p=2)
        spec = GwrSpec(tuple(data.covariates), kernel, bandwidth)
        fit = gwr_fit(data, spec)
        betas, hat_trace = _lstsq_local_fits(data, spec)
        assert np.max(np.abs(fit.local_coefficients - betas)) < 1e-10
        assert fit.hat_trace == pytest.approx(hat_trace, abs=1e-10)

    def test_blocks_equal_single_block(self, monkeypatch):
        data = make_random_gwr_dataset(24, n=50, p=3)
        spec = GwrSpec(tuple(data.covariates), KernelShape.BISQUARE,
                       Bandwidth.adaptive_knn(20))
        whole = gwr_fit(data, spec)
        whole_cv = gwr_cv_score(data, spec)
        monkeypatch.setattr(gwr, "FOCAL_BLOCK", 7)
        blocked = gwr_fit(data, spec)
        assert np.array_equal(blocked.local_coefficients, whole.local_coefficients)
        assert np.array_equal(blocked.local_r2, whole.local_r2)
        assert blocked.hat_trace == whole.hat_trace
        assert blocked.aicc == whole.aicc
        assert gwr_cv_score(data, spec) == whole_cv

    @pytest.mark.parametrize("block", [256, 4])
    def test_singular_fit_names_first_location(self, monkeypatch, block):
        monkeypatch.setattr(gwr, "FOCAL_BLOCK", block)
        # group 3 (locations 9-11) sees only itself; group 5 is constant in x
        with pytest.raises(SingularFitError) as exc:
            gwr_fit(_clustered_dataset(isolated=3, constant=5), STEP_10KM)
        assert exc.value.location == 9

    @pytest.mark.parametrize("block", [256, 4])
    def test_cv_singular_before_short_support(self, monkeypatch, block):
        monkeypatch.setattr(gwr, "FOCAL_BLOCK", block)
        with pytest.raises(SingularFitError) as exc:
            gwr_cv_score(_clustered_dataset(isolated=4, constant=2), STEP_10KM)
        assert exc.value.location == 6

    @pytest.mark.parametrize("block", [256, 4])
    def test_cv_short_support_before_singular(self, monkeypatch, block):
        monkeypatch.setattr(gwr, "FOCAL_BLOCK", block)
        with pytest.raises(InsufficientSupportError, match="location 6 "):
            gwr_cv_score(_clustered_dataset(isolated=2, constant=4), STEP_10KM)


def _scores(data, spec, rows=None):
    """(RSS, tr S) of the local fits, solved over ``rows`` (default: all)."""
    xy, _, _ = _design(data, spec.covariates)
    betas, hat_diag = gwr._local_fits(xy, _weight_matrix(data, spec), rows)
    residuals = xy[:, -1] - np.einsum("ij,ij->i", xy[:, :-1], betas)
    return float(residuals @ residuals), float(hat_diag.sum())


def _lattice_with_duplicates():
    """A 6 x 6 lattice, 0.5 degrees apart, so many neighbours tie at h,
    plus three points repeated exactly."""
    pts = [GeoPoint(38.0 + 0.5 * i, -100.0 + 0.5 * j) for i in range(6) for j in range(6)]
    pts += [pts[0], pts[14], pts[14]]
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, len(pts))
    y = 2.0 + 0.5 * x + rng.normal(0, 0.2, len(pts))
    return GwrDataset(ids=list(range(len(pts))), points=pts, covariates={"x": x},
                      response=y)


class TestNeighborTable:
    @pytest.mark.parametrize("make", [
        _lattice_with_duplicates,
        lambda: make_random_gwr_dataset(27, n=50, p=1),
    ])
    def test_adaptive_bandwidths_match_sort_oracle(self, make):
        data = make()
        d = data.distances.copy()
        np.fill_diagonal(d, np.inf)
        oracle = np.sort(d, axis=1)
        for k in range(1, data.n):
            h = geo.adaptive_bandwidths(data.neighbors, k)
            assert h.tobytes() == oracle[:, k - 1].tobytes(), k

    @pytest.mark.parametrize("k", [0, 39])
    def test_adaptive_bandwidths_reject_k_out_of_range(self, k):
        data = _lattice_with_duplicates()
        with pytest.raises(InvalidBandwidthError):
            geo.adaptive_bandwidths(data.neighbors, k)

    def test_fixed_range_matches_off_diagonal_oracle(self):
        data = _lattice_with_duplicates()
        off_diag = data.distances[~np.eye(data.n, dtype=bool)]
        assert (off_diag == 0.0).any()
        tables = gwr._GramTables(data, ["x"], KernelShape.GAUSSIAN, "aicc")
        assert tables.fixed_range == (float(off_diag[off_diag > 0].min()),
                                      float(data.distances.max()))

    def test_fixed_range_needs_two_distinct_points(self):
        x = np.arange(6.0)
        data = GwrDataset(ids=list(range(6)), points=[GeoPoint(40.0, -100.0)] * 6,
                          covariates={"x": x}, response=2.0 * x)
        with pytest.raises(NoFeasibleBandwidthError, match="all pairwise distances"):
            optimize_bandwidth(data, ["x"], KernelShape.GAUSSIAN, mode="fixed")


CAUGHT = (SingularFitError, InsufficientSupportError, OversaturatedModelError,
          PerfectFitError, DegenerateBandwidthError)


def _bandwidth(mode, value):
    return (Bandwidth.adaptive_knn(value) if mode == "adaptive"
            else Bandwidth.fixed_distance(value))


def _assert_close_or_both_inf(score, expected, rel, value):
    if math.isinf(expected):
        assert score == expected, value
    else:
        assert score == pytest.approx(expected, rel=rel, abs=0), value


class TestSearchScorer:
    @pytest.mark.parametrize("kernel", list(KernelShape))
    @pytest.mark.parametrize("bandwidth", [
        Bandwidth.fixed_distance(1200.0),
        Bandwidth.adaptive_knn(15),
    ])
    def test_matches_fit(self, kernel, bandwidth):
        data = make_random_gwr_dataset(23, n=40, p=2)
        spec = GwrSpec(tuple(data.covariates), kernel, bandwidth)
        fit = gwr_fit(data, spec)
        rss, hat_trace = _scores(data, spec)
        assert rss == pytest.approx(fit.rss, rel=1e-12)
        assert hat_trace == pytest.approx(fit.hat_trace, rel=1e-12)

    def test_blocks_match_fit(self, monkeypatch):
        data = make_random_gwr_dataset(24, n=50, p=3)
        spec = GwrSpec(tuple(data.covariates), KernelShape.BISQUARE,
                       Bandwidth.adaptive_knn(20))
        fit = gwr_fit(data, spec)
        rows = data.neighbors.order[:, :21]
        monkeypatch.setattr(gwr, "FOCAL_BLOCK", 7)
        for scores in (_scores(data, spec), _scores(data, spec, rows)):
            assert scores[0] == pytest.approx(fit.rss, rel=1e-12)
            assert scores[1] == pytest.approx(fit.hat_trace, rel=1e-12)

    @pytest.mark.parametrize("block", [256, 4])
    def test_singular_names_first_location(self, monkeypatch, block):
        monkeypatch.setattr(gwr, "FOCAL_BLOCK", block)
        with pytest.raises(SingularFitError) as exc:
            _scores(_clustered_dataset(isolated=3, constant=5), STEP_10KM)
        assert exc.value.location == 9

    def test_neighbor_order_starts_with_self(self):
        data = _lattice_with_duplicates()
        order = data.neighbors.order
        assert np.array_equal(order[:, 0], np.arange(data.n))
        d = np.take_along_axis(data.distances, order, axis=1)
        assert np.array_equal(data.neighbors.distances, d)
        assert np.all(np.diff(d[:, 1:], axis=1) >= 0)

    @pytest.mark.parametrize("make", [
        lambda: make_random_gwr_dataset(26, n=40, p=2),
        _lattice_with_duplicates,
    ])
    def test_bisquare_rows_hold_all_weight(self, make):
        data = make()
        covs = tuple(data.covariates)
        for k in range(len(covs) + 2, data.n):
            spec = GwrSpec(covs, KernelShape.BISQUARE, Bandwidth.adaptive_knn(k))
            try:
                w = _weight_matrix(data, spec)
            except DegenerateBandwidthError:
                continue
            rows = data.neighbors.order[:, :k + 1]
            outside = np.ones_like(w, dtype=bool)
            np.put_along_axis(outside, rows, False, axis=1)
            assert np.all(w[outside] == 0.0), k
            try:
                dense = _scores(data, spec)
            except SingularFitError as exc:
                with pytest.raises(SingularFitError) as compact:
                    _scores(data, spec, rows)
                assert compact.value.location == exc.location
                continue
            compact = _scores(data, spec, rows)
            assert compact[0] == pytest.approx(dense[0], rel=1e-12), k
            assert compact[1] == pytest.approx(dense[1], rel=1e-12), k

    @pytest.mark.parametrize("kernel", list(KernelShape))
    @pytest.mark.parametrize("mode", ["adaptive", "fixed"])
    def test_search_scores_equal_fit_aicc(self, kernel, mode):
        """Gram scores match the fit to 1e-12, inf exactly where it raises;
        the chosen bandwidth's score is the fit's AICc bit for bit."""
        data = make_model_selection_dataset(101, n=40)
        covs = ("income", "wage_per_job", "jobs")
        res = optimize_bandwidth(data, covs, kernel, mode=mode)
        for value, score in res.evaluations:
            try:
                expected = gwr_fit(data, GwrSpec(covs, kernel, _bandwidth(mode, value))).aicc
            except CAUGHT:
                expected = float("inf")
            _assert_close_or_both_inf(score, expected, 1e-12, value)
        assert res.score == gwr_fit(data, GwrSpec(covs, kernel, res.bandwidth)).aicc

    @pytest.mark.parametrize("kernel", list(KernelShape))
    @pytest.mark.parametrize("mode", ["adaptive", "fixed"])
    def test_cv_search_scores_equal_cv_score(self, kernel, mode):
        data = make_model_selection_dataset(101, n=40)
        covs = ("income", "wage_per_job", "jobs")
        res = optimize_bandwidth(data, covs, kernel, criterion="cv", mode=mode)
        for value, score in res.evaluations:
            try:
                expected = gwr_cv_score(data, GwrSpec(covs, kernel, _bandwidth(mode, value)))
            except CAUGHT:
                expected = float("inf")
            _assert_close_or_both_inf(score, expected, 1e-10, value)
        assert res.score == gwr_cv_score(data, GwrSpec(covs, kernel, res.bandwidth))

    def test_infeasible_bandwidth_scores_inf(self, monkeypatch):
        """A singular local Gram block sends the evaluation to the QR path,
        which raises, so it scores inf."""
        data = _clustered_dataset(isolated=3, constant=5)
        tables = gwr._GramTables(data, ("x",), KernelShape.STEP, "aicc")
        with pytest.raises(SingularFitError):
            gwr_fit(data, STEP_10KM)
        exact = []
        real = gwr._qr_score
        monkeypatch.setattr(gwr, "_qr_score", lambda *a: exact.append(a[2]) or real(*a))
        assert tables.scores([(("x",), STEP_10KM.bandwidth)]) == [float("inf")]
        assert exact == [STEP_10KM]

    def test_search_builds_no_fit(self, monkeypatch):
        data = make_model_selection_dataset(7, n=40)
        calls = []
        real_fit = gwr.gwr_fit
        monkeypatch.setattr(gwr, "gwr_fit", lambda *a, **k: calls.append(a) or real_fit(*a, **k))
        for kernel in (KernelShape.GAUSSIAN, KernelShape.BISQUARE):
            for mode in ("adaptive", "fixed"):
                optimize_bandwidth(data, ["income", "jobs"], kernel, mode=mode)
        assert calls == []
        enumerate_models(data, ["income", "jobs"], [KernelShape.BISQUARE])
        enumerate_models(data, ["income", "jobs"], [KernelShape.GAUSSIAN], criterion="cv")
        assert calls == []

    @pytest.mark.parametrize("criterion", ["aicc", "cv"])
    def test_small_n_raises_value_error(self, criterion):
        data = make_random_gwr_dataset(27, n=4, p=2)
        with pytest.raises(ValueError, match="need n > p"):
            optimize_bandwidth(data, list(data.covariates), KernelShape.GAUSSIAN,
                               criterion=criterion, mode="fixed")

    def test_unknown_covariate_raises(self):
        data = make_random_gwr_dataset(28, n=30, p=1)
        for mode in ("adaptive", "fixed"):
            with pytest.raises(KeyError, match="nope"):
                optimize_bandwidth(data, ["x0", "nope"], KernelShape.BISQUARE, mode=mode)

    @pytest.mark.parametrize("kernel", [KernelShape.GAUSSIAN, KernelShape.BISQUARE])
    def test_invalid_bandwidth_raises(self, kernel):
        data = make_random_gwr_dataset(29, n=30, p=1)
        tables = gwr._GramTables(data, ("x0",), kernel, "aicc")
        (value,) = tables.scores([(("x0",), Bandwidth.adaptive_knn(data.n))])
        assert isinstance(value, InvalidBandwidthError)


def _qr_search(data, covs, kernel, criterion, mode):
    """The golden-section search on the QR objective: ``gwr_fit(...).aicc`` or
    ``gwr_cv_score``, inf where they raise."""
    def objective(value):
        spec = GwrSpec(covs, kernel, _bandwidth(mode, value))
        try:
            return (gwr_fit(data, spec).aicc if criterion == "aicc"
                    else gwr_cv_score(data, spec))
        except CAUGHT:
            return float("inf")

    if mode == "adaptive":
        section = gwr._integer_section(len(covs) + 2, data.n - 1)
    else:
        d = data.distances[~np.eye(data.n, dtype=bool)]
        section = gwr._continuous_section(float(d[d > 0].min()), float(d.max()))
    return gwr._minimize(section, objective)


class TestGramSearch:
    @pytest.mark.parametrize("kernel", list(KernelShape))
    @pytest.mark.parametrize("mode", ["adaptive", "fixed"])
    @pytest.mark.parametrize("criterion", ["aicc", "cv"])
    def test_same_path_as_qr_objective(self, kernel, mode, criterion):
        for seed in (101, 7):
            data = make_model_selection_dataset(seed, n=40)
            covs = tuple(data.covariates)
            res = optimize_bandwidth(data, covs, kernel, criterion=criterion, mode=mode)
            best, value, evals = _qr_search(data, covs, kernel, criterion, mode)
            assert [v for v, _ in res.evaluations] == [v for v, _ in evals], seed
            assert res.bandwidth == _bandwidth(mode, best), seed
            assert res.score == value, seed

    @pytest.mark.parametrize("case", ["near_collinear", "exact_response"])
    @pytest.mark.parametrize("kernel", [KernelShape.GAUSSIAN, KernelShape.BISQUARE])
    def test_untrusted_gram_score_solved_by_qr(self, monkeypatch, case, kernel):
        """A pivot ratio below 1e-5 or an RSS near 0 sends the evaluation to the
        QR path, so its score is the fit's AICc bit for bit."""
        base = make_random_gwr_dataset(31, n=40, p=1)
        x = base.covariates["x0"]
        if case == "near_collinear":
            noise = np.random.default_rng(1).normal(0, 1e-5, x.size)
            cov, y = {"x0": x, "x1": x + noise}, base.response
        else:
            cov, y = {"x0": x}, 1.0 + 2.0 * x
        data = GwrDataset(ids=base.ids, points=base.points, covariates=cov, response=y)
        spec = GwrSpec(tuple(cov), kernel, Bandwidth.adaptive_knn(20))
        tables = gwr._GramTables(data, list(cov), kernel, "aicc")
        exact = []
        real = gwr._qr_score
        monkeypatch.setattr(gwr, "_qr_score", lambda *a: exact.append(a[2]) or real(*a))
        assert tables.scores([(spec.covariates, spec.bandwidth)]) == [gwr_fit(data, spec).aicc]
        assert exact == [spec]

    @pytest.mark.parametrize("case", ["near_collinear", "duplicate_column"])
    @pytest.mark.parametrize("kernel", [KernelShape.GAUSSIAN, KernelShape.BISQUARE])
    def test_untrusted_request_in_a_batch_solved_alone(self, monkeypatch, case, kernel):
        """In a batch of same-size subsets, only the request whose pivots
        fail (near_collinear) or whose Cholesky raises and fails the whole
        stack (duplicate_column) reaches the QR path; the healthy requests
        keep their solo scores."""
        base = make_random_gwr_dataset(31, n=40, p=1)
        x = base.covariates["x0"]
        rng = np.random.default_rng(1)
        twin = x + rng.normal(0, 1e-5, x.size) if case == "near_collinear" else x.copy()
        cov = {"x0": x, "x1": twin, "x2": rng.normal(0, 1, x.size)}
        data = GwrDataset(ids=base.ids, points=base.points, covariates=cov,
                          response=base.response)
        tables = gwr._GramTables(data, list(cov), kernel, "aicc")
        requests = [(("x0", "x2"), Bandwidth.adaptive_knn(20)),
                    (("x0", "x1"), Bandwidth.adaptive_knn(20)),
                    (("x1", "x2"), Bandwidth.adaptive_knn(20)),
                    (("x0", "x2"), Bandwidth.adaptive_knn(25))]
        solo = [tables.scores([request])[0] for request in requests]
        exact = []
        real = gwr._qr_score
        monkeypatch.setattr(gwr, "_qr_score", lambda *a: exact.append(a[2]) or real(*a))
        scores = tables.scores(requests)
        spec = GwrSpec(("x0", "x1"), kernel, Bandwidth.adaptive_knn(20))
        assert exact == [spec]
        try:
            expected = gwr_fit(data, spec).aicc
        except CAUGHT:
            expected = float("inf")
        assert scores[1] == expected
        for i in (0, 2, 3):
            assert math.isfinite(scores[i])
            assert scores[i] == pytest.approx(solo[i], rel=1e-12, abs=0), requests[i]

    @pytest.mark.parametrize("kernel", list(KernelShape))
    @pytest.mark.parametrize("mode", ["adaptive", "fixed"])
    @pytest.mark.parametrize("criterion", ["aicc", "cv"])
    def test_lockstep_entries_equal_solo_searches(self, kernel, mode, criterion):
        """Every enumeration entry, searched in lockstep with the other
        subsets, equals the one-search ``optimize_bandwidth`` and the QR fit
        of its subset bit for bit."""
        for seed in (101, 7):
            data = make_model_selection_dataset(seed, n=40)
            report = enumerate_models(data, list(data.covariates), [kernel],
                                      criterion=criterion, mode=mode)
            for e in report.entries:
                try:
                    solo = optimize_bandwidth(data, e.covariates, kernel,
                                              criterion=criterion, mode=mode)
                except (FuelSpatialError, np.linalg.LinAlgError) as exc:
                    assert e.failure == f"{type(exc).__name__}: {exc}", (seed, e)
                    continue
                assert e.failure is None, (seed, e)
                spec = GwrSpec(e.covariates, kernel, solo.bandwidth)
                fit = gwr_fit(data, spec)
                cv = gwr_cv_score(data, spec) if criterion == "cv" else None
                assert (e.bandwidth, e.aicc, e.cv_score, e.global_r2) == \
                    (solo.bandwidth, fit.aicc, cv, fit.global_r2), (seed, e)
                assert solo.score == (cv if criterion == "cv" else fit.aicc), (seed, e)

    def test_enumeration_builds_one_table_per_bandwidth(self, monkeypatch):
        """Every subset's search reads the tables of its kernel: the weights
        are evaluated once per distinct (kernel, bandwidth) for the tables,
        and once more for each QR solve (a chosen bandwidth or a fallback)."""
        data = make_model_selection_dataset(7, n=40)
        lookups, weights, solves = [], [], []
        real_table, real_fits = gwr._GramTables.table, gwr._local_fits
        real_weight = geo.kernel_weight

        def table(self, bw):
            lookups.append((self.kernel, bw))
            return real_table(self, bw)

        def kernel_weight(*args):
            weights.append(args[0])
            return real_weight(*args)

        monkeypatch.setattr(gwr._GramTables, "table", table)
        monkeypatch.setattr(gwr, "_local_fits", lambda *a: solves.append(a) or real_fits(*a))
        monkeypatch.setattr(geo, "kernel_weight", kernel_weight)
        kernels = [KernelShape.GAUSSIAN, KernelShape.BISQUARE]
        report = enumerate_models(data, list(data.covariates), kernels)
        distinct = set(lookups)
        assert report.n_failed == 0
        assert len(solves) >= len(report.entries)
        assert len(weights) == len(distinct) + len(solves)
        assert len(distinct) < len(lookups) / 3

    @pytest.mark.parametrize("criterion", ["aicc", "cv"])
    def test_entries_equal_fit(self, criterion):
        data = make_model_selection_dataset(101, n=40)
        report = enumerate_models(data, list(data.covariates),
                                  [KernelShape.EXPONENTIAL, KernelShape.STEP],
                                  criterion=criterion)
        for e in report.entries:
            fit = gwr_fit(data, GwrSpec(e.covariates, e.kernel, e.bandwidth))
            assert (e.aicc, e.global_r2) == (fit.aicc, fit.global_r2), e


class TestAicc:
    def test_formula_oracle(self):
        data = make_random_gwr_dataset(7, n=20, p=2)
        fit = gwr_fit(data, GwrSpec(tuple(data.covariates), KernelShape.GAUSSIAN,
                                    Bandwidth.adaptive_knn(10)))
        n, rss, tr = fit.n, fit.rss, fit.hat_trace
        sigma = math.sqrt(rss / n)
        expected = (2 * n * math.log(sigma) + n * math.log(2 * math.pi)
                    + n * (n + tr) / (n - 2 - tr))
        assert fit.aicc == pytest.approx(expected, abs=1e-9)

    def test_ols_limit_known_trace(self):
        data = make_random_gwr_dataset(8, n=50, p=2)
        fit = gwr_fit(data, GwrSpec(tuple(data.covariates), KernelShape.STEP, GLOBAL_BW))
        assert fit.aicc == pytest.approx(aicc_score(50, fit.rss, 3.0), abs=1e-6)

    def test_zero_rss_guard(self):
        with pytest.raises(PerfectFitError):
            aicc_score(20, 0.0, 3.0)

    def test_oversaturated_guard(self):
        with pytest.raises(OversaturatedModelError):
            aicc_score(20, 1.0, 18.5)


class TestCvScore:
    def test_self_exclusion_positive_on_exact_fit_size(self):
        # n = p + 2 would make every local fit interpolate if self included
        data = make_random_gwr_dataset(9, n=30, p=1, noise_sd=0.3)
        score = gwr_cv_score(data, GwrSpec(("x0",), KernelShape.GAUSSIAN,
                                           Bandwidth.adaptive_knn(5)))
        assert score > 0

    def test_near_duplicate_noiseless_cv_near_zero(self):
        rng = np.random.default_rng(10)
        n = 20
        lat = rng.uniform(35, 45, n)
        lon = rng.uniform(-110, -90, n)
        lat = np.concatenate([lat, lat + 1e-6])
        lon = np.concatenate([lon, lon])
        x = rng.normal(0, 1, n)
        x = np.concatenate([x, x])
        y = 1.0 + 2.0 * x
        data = GwrDataset(ids=list(range(2 * n)),
                          points=[GeoPoint(float(a), float(b)) for a, b in zip(lat, lon)],
                          covariates={"x": x}, response=y)
        score = gwr_cv_score(data, GwrSpec(("x",), KernelShape.GAUSSIAN,
                                           Bandwidth.adaptive_knn(8)))
        assert score < 1e-10

    @pytest.mark.parametrize("kernel, bandwidth", [
        (KernelShape.GAUSSIAN, Bandwidth.adaptive_knn(10)),
        (KernelShape.BISQUARE, Bandwidth.adaptive_knn(10)),
        (KernelShape.BISQUARE, Bandwidth.fixed_distance(1200.0)),
    ])
    def test_matches_naive_loo_oracle(self, kernel, bandwidth):
        data = make_random_gwr_dataset(11, n=25, p=2)
        spec = GwrSpec(tuple(data.covariates), kernel, bandwidth)
        score = gwr_cv_score(data, spec)
        # oracle: refit each location from scratch with the self weight zeroed
        xy, _, _ = _design(data, spec.covariates)
        x, y = xy[:, :-1], xy[:, -1]
        w = _weight_matrix(data, spec)
        oracle = 0.0
        for i in range(data.n):
            wi = w[i].copy()
            wi[i] = 0.0
            xm = x * np.sqrt(wi)[:, None]
            beta, *_ = np.linalg.lstsq(xm, np.sqrt(wi) * y, rcond=None)
            oracle += (y[i] - x[i] @ beta) ** 2
        assert score == pytest.approx(oracle, abs=1e-9)

    def test_small_n_raises_value_error(self):
        data = make_random_gwr_dataset(27, n=4, p=2)
        with pytest.raises(ValueError, match="need n > p"):
            gwr_cv_score(data, GwrSpec(tuple(data.covariates), KernelShape.GAUSSIAN,
                                       Bandwidth.fixed_distance(1000.0)))

    def test_step_insufficient_support(self):
        data = make_random_gwr_dataset(12, n=30, p=2)
        with pytest.raises(InsufficientSupportError):
            gwr_cv_score(data, GwrSpec(tuple(data.covariates), KernelShape.STEP,
                                       Bandwidth.fixed_distance(0.5)))


def _aicc_scan(data, covariates, kernel):
    """(k, AICc) at the AICc argmin over every adaptive k in [p+2, n-1], from
    ``gwr_fit``; a failed fit scores inf and ties go to the smaller k."""
    scores = {}
    for k in range(len(covariates) + 2, data.n):
        try:
            scores[k] = gwr_fit(data, GwrSpec(tuple(covariates), kernel,
                                              Bandwidth.adaptive_knn(k))).aicc
        except CAUGHT:
            scores[k] = float("inf")
    return min(scores.items(), key=lambda kv: (kv[1], kv[0]))


class TestOptimizeBandwidth:
    def test_stationary_data_selects_large_k(self):
        # Near-noiseless stationary data has an essentially flat AICc curve,
        # so the check targets the exhaustive argmin rather than wherever
        # golden section happens to land on the plateau.
        data = make_random_gwr_dataset(1, n=40, p=2, noise_sd=1e-6)
        k, _ = _aicc_scan(data, list(data.covariates), KernelShape.GAUSSIAN)
        assert k >= 40 - 2  # at or within 1 of the upper bound

    def test_varying_coefficients_select_small_k(self):
        data, _ = make_grid_dataset(14)
        res = optimize_bandwidth(data, ["x"], KernelShape.GAUSSIAN)
        assert res.bandwidth.value < data.n / 2

    def test_golden_matches_exhaustive(self):
        data, _ = make_grid_dataset(15, side=8)
        golden = optimize_bandwidth(data, ["x"], KernelShape.GAUSSIAN)
        k, score = _aicc_scan(data, ["x"], KernelShape.GAUSSIAN)
        assert golden.bandwidth.value == k
        assert golden.score == pytest.approx(score, abs=1e-9)

    def test_fixed_mode_bounds(self):
        data = make_random_gwr_dataset(16, n=30, p=1)
        res = optimize_bandwidth(data, ["x0"], KernelShape.GAUSSIAN, mode="fixed")
        d = data.distances
        assert res.bandwidth.mode == "fixed"
        assert 0 < res.bandwidth.value <= d.max() + 1e-9


class TestEnumerateModels:
    def test_singleton_report(self):
        data = make_random_gwr_dataset(17, n=30, p=1)
        report = enumerate_models(data, ["x0"], [KernelShape.GAUSSIAN])
        assert len(report.entries) == 1
        assert report.best == 0
        assert report.median_aicc_gap == 0.0

    def test_true_subset_recovered(self):
        data = make_model_selection_dataset(18)
        report = enumerate_models(
            data, ["income", "population", "wage_per_job", "jobs_per_capita", "jobs"],
            [KernelShape.GAUSSIAN])
        best = report.best_entry()
        assert {"income", "wage_per_job"} <= set(best.covariates)

    def test_full_grid_coverage(self):
        data = make_random_gwr_dataset(19, n=30, p=1)
        cov = {f"c{j}": np.random.default_rng(j).normal(0, 1, 30) for j in range(5)}
        data = GwrDataset(ids=data.ids, points=data.points, covariates=cov,
                          response=data.response)
        report = enumerate_models(data, list(cov), [KernelShape.GAUSSIAN,
                                                    KernelShape.STEP])
        assert len(report.entries) == 31 * 2

    def test_unknown_covariate_raises(self):
        data = make_random_gwr_dataset(25, n=30, p=1)
        with pytest.raises(KeyError, match="nope"):
            enumerate_models(data, ["x0", "nope"], [KernelShape.GAUSSIAN])

    def test_cv_entries_hold_search_score(self):
        data = make_random_gwr_dataset(30, n=30, p=2)
        report = enumerate_models(data, list(data.covariates),
                                  [KernelShape.GAUSSIAN, KernelShape.BISQUARE], criterion="cv")
        for e in report.entries:
            spec = GwrSpec(e.covariates, e.kernel, e.bandwidth)
            assert e.cv_score == gwr_cv_score(data, spec)
            assert e.aicc == gwr_fit(data, spec).aicc

    def test_failed_entries_left_out_of_ranking(self, tmp_path):
        # At n=6 the adaptive k range [p+2, 5] is empty for p >= 4, and every
        # k of it leaves n - 2 - tr(S) <= 0 for p = 3: 16 of 31 subsets fail.
        data = make_model_selection_dataset(101, n=6)
        report = enumerate_models(data, list(data.covariates), [KernelShape.GAUSSIAN])
        failed = [e for e in report.entries if e.failure is not None]
        ok = [e for e in report.entries if e.failure is None]
        assert (len(report.entries), report.n_failed, len(failed)) == (31, 16, 16)
        assert {len(e.covariates) for e in failed} == {3, 4, 5}
        for e in failed:
            assert e.failure.startswith("NoFeasibleBandwidthError: ")
            assert (e.bandwidth, e.aicc, e.cv_score, e.global_r2) == (None,) * 4
        best = report.best_entry()
        assert best.failure is None and best.aicc == min(e.aicc for e in ok)
        gaps = [e.aicc - best.aicc for e in ok if e is not best]
        assert report.median_aicc_gap == float(np.median(gaps))

        path = tmp_path / "models.csv"
        report.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        ranked, failure_rows = rows[:len(ok)], rows[len(ok):]
        assert [row["rank"] for row in ranked] == [str(r) for r in range(1, len(ok) + 1)]
        assert ranked[0]["covariates"] == "+".join(best.covariates)
        assert all(row["failure"] == "" for row in ranked)
        assert [(row["covariates"], row["failure"]) for row in failure_rows] == \
            [("+".join(e.covariates), e.failure) for e in failed]
        for row in failure_rows:
            assert row["kernel"] == "gaussian"
            assert {row[c] for c in ("rank", "bandwidth_mode", "bandwidth", "aicc",
                                     "cv_score", "global_r2")} == {""}

    def test_every_configuration_failed_raises(self):
        data = make_model_selection_dataset(101, n=4)
        with pytest.raises(EmptyReportError, match="every configuration failed"):
            enumerate_models(data, list(data.covariates), [KernelShape.GAUSSIAN])

    def test_csv_export(self, tmp_path):
        data = make_random_gwr_dataset(20, n=30, p=1)
        report = enumerate_models(data, ["x0"], [KernelShape.GAUSSIAN])
        path = tmp_path / "models.csv"
        report.to_csv(path)
        assert path.read_text().startswith("rank,covariates,kernel")


def _neighbors(points):
    return geo.neighbor_table(distance_matrix(points))


class TestNearestNeighborScale:
    def test_collinear_equally_spaced(self):
        pts = [GeoPoint(0.0, 0.0), GeoPoint(1.0, 0.0), GeoPoint(2.0, 0.0)]
        g = 111.19492664455873
        scale = nearest_neighbor_scale(_neighbors(pts), 1)
        assert np.allclose(scale.distances, g, atol=1e-6)
        assert scale.median == pytest.approx(g, abs=1e-6)
        assert scale.interquartile == pytest.approx(0.0, abs=1e-6)

    def test_lattice_unit_spacing(self):
        pts = [GeoPoint(40.0 + 0.1 * i, -100.0) for i in range(10)]
        scale = nearest_neighbor_scale(_neighbors(pts), 1)
        assert np.ptp(scale.distances) < 1e-6

    def test_matches_pairwise_sort_oracle(self):
        rng = np.random.default_rng(21)
        pts = [GeoPoint(float(a), float(b))
               for a, b in zip(rng.uniform(30, 47, 100), rng.uniform(-120, -75, 100))]
        scale = nearest_neighbor_scale(_neighbors(pts), 5)
        d = distance_matrix(pts)
        np.fill_diagonal(d, np.inf)
        expected = np.sort(d, axis=1)[:, 4]
        assert np.array_equal(scale.distances, expected)

    def test_invalid_k(self):
        pts = [GeoPoint(0, 0), GeoPoint(1, 0)]
        with pytest.raises(InvalidKError):
            nearest_neighbor_scale(_neighbors(pts), 2)


class TestExports:
    def test_fit_csv_and_geojson(self, tmp_path):
        import json
        from fuelspatial.gwr import fit_to_csv, fit_to_geojson
        data = make_random_gwr_dataset(22, n=30, p=2)
        fit = gwr_fit(data, GwrSpec(tuple(data.covariates), KernelShape.GAUSSIAN,
                                    Bandwidth.adaptive_knn(10)))
        fit_to_csv(fit, data, tmp_path / "fit.csv")
        header = (tmp_path / "fit.csv").read_text().splitlines()[0]
        assert header.startswith("location_id,lat,lon,intercept_raw")
        fit_to_geojson(fit, data, tmp_path / "fit.geojson")
        gj = json.loads((tmp_path / "fit.geojson").read_text())
        assert gj["type"] == "FeatureCollection"
        assert len(gj["features"]) == 30
        props = gj["features"][0]["properties"]
        assert "local_r2" in props and "x0_raw" in props
