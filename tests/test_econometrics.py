import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuelspatial.econometrics import (
    COUNTY_COVARIATES,
    CountyModelRow,
    FeFit,
    FixedEffectSpec,
    PanelObservation,
    cluster_robust_se,
    clustered_covariance,
    county_regression,
    fe_table_to_csv,
    fe_variance_explained,
    ols,
    render_fe_table,
    significance_stars,
)
from fuelspatial.errors import (
    AbsorbedCovariateError,
    DegenerateGroupingError,
    InsufficientClustersError,
    PerfectFitError,
    SingularDesignError,
)
from fuelspatial.spatial_stats import variance_decomposition
from fuelspatial.synth import make_county_rows, make_random_panel

FE_NAMES = [n for n in COUNTY_COVARIATES if n != "state_tax"]


def dummy_ols_coefficients(rows, names):
    """Oracle: full dummy-variable OLS for the state-FE model."""
    y = np.array([r.log_mean_price for r in rows])
    states = [r.state_id for r in rows]
    x = np.column_stack([[r.covariates[n] for r in rows] for n in names])
    dummies = np.column_stack([[1.0 if s == u else 0.0 for s in states]
                               for u in sorted(set(states))])
    full = np.column_stack([x, dummies])
    beta, *_ = np.linalg.lstsq(full, y, rcond=None)
    return beta[: len(names)]


def dummy_two_way_r2(panel):
    """Oracle: R^2 of full dummy-variable OLS on state and day dummies."""
    y = np.array([o.price for o in panel])
    states = [o.state_id for o in panel]
    days = [o.day for o in panel]
    d1 = np.column_stack([[1.0 if s == u else 0.0 for s in states]
                          for u in sorted(set(states))])
    d2 = np.column_stack([[1.0 if d == u else 0.0 for d in days]
                          for u in sorted(set(days))])
    full = np.column_stack([d1, d2])
    beta, *_ = np.linalg.lstsq(full, y, rcond=None)
    resid = y - full @ beta
    return 1 - resid @ resid / np.sum((y - y.mean()) ** 2)


class TestOls:
    def test_exact_line(self):
        x = np.arange(5.0)
        design = np.column_stack([np.ones(5), x])
        res = ols(design, 2 * x + 1)
        assert np.allclose(res.coefficients, [1.0, 2.0], atol=1e-12)
        assert res.r_squared == pytest.approx(1.0)

    def test_orthogonal_response(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (30, 2))
        x -= x.mean(axis=0)
        y = np.ones(30)  # orthogonal to centered covariates
        design = np.column_stack([np.ones(30), x])
        res = ols(design, y)
        assert np.max(np.abs(res.coefficients[1:])) < 1e-10

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(1)
        x = np.column_stack([np.ones(30), rng.normal(0, 1, (30, 3))])
        y = rng.normal(0, 1, 30)
        res = ols(x, y)
        expected = np.linalg.solve(x.T @ x, x.T @ y)
        assert np.allclose(res.coefficients, expected, atol=1e-8)

    def test_rank_deficiency_names_columns(self):
        x = np.column_stack([np.ones(10), np.arange(10.0), 2 * np.arange(10.0)])
        with pytest.raises(SingularDesignError) as exc:
            ols(x, np.arange(10.0))
        assert exc.value.columns  # at least one collinear column listed

    def test_nested_model_r2_monotone(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (40, 4))
        y = rng.normal(0, 1, 40)
        r2 = []
        for k in range(1, 5):
            design = np.column_stack([np.ones(40), x[:, :k]])
            r2.append(ols(design, y).r_squared)
        assert all(b >= a - 1e-12 for a, b in zip(r2, r2[1:]))


class TestFeVarianceExplained:
    def _panel(self, prices, stations, states=None, counties=None):
        return [PanelObservation(
            station_id=s, state_id=states[i] if states else "10",
            county_fips=counties[i] if counties else "10001",
            day=dt.date(2017, 1, 10 + i % 5), price=p)
            for i, (s, p) in enumerate(zip(stations, prices))]

    def test_constant_within_station_r2_one(self):
        panel = self._panel([2.0, 2.0, 3.0, 3.0], ["a", "a", "b", "b"])
        res = fe_variance_explained(panel, FixedEffectSpec("station"))
        assert res["r_squared"] == pytest.approx(1.0)

    def test_shuffled_labels_r2_near_zero(self):
        rng = np.random.default_rng(3)
        n = 2000
        prices = rng.normal(2.3, 0.3, n)
        stations = [f"s{i % 10}" for i in rng.permutation(n)]
        panel = self._panel(list(prices), stations)
        res = fe_variance_explained(panel, FixedEffectSpec("station"))
        assert res["r_squared"] < 0.02

    def test_matches_dummy_ols_oracle(self):
        panel = make_random_panel(4, n_stations=10, n_days=4)
        res = fe_variance_explained(panel, FixedEffectSpec("county"))
        y = np.array([o.price for o in panel])
        counties = [o.county_fips for o in panel]
        dummies = np.column_stack([[1.0 if c == u else 0.0 for c in counties]
                                   for u in sorted(set(counties))])
        beta, *_ = np.linalg.lstsq(dummies, y, rcond=None)
        resid = y - dummies @ beta
        r2 = 1 - resid @ resid / np.sum((y - y.mean()) ** 2)
        assert res["r_squared"] == pytest.approx(r2, abs=1e-10)

    def test_two_way_demeaning_with_day_effect(self):
        panel = make_random_panel(5, n_stations=8, n_days=5)
        res = fe_variance_explained(panel, FixedEffectSpec("state", include_day_effect=True))
        assert res["r_squared"] == pytest.approx(dummy_two_way_r2(panel), abs=1e-10)

    def test_two_way_weakly_connected_chain(self):
        # Group g is seen on days g and g+1 only: the group-day graph is one
        # long path, where alternating projections converge very slowly.
        rng = np.random.default_rng(12)
        panel = [PanelObservation("s", f"{g:02d}", "10001",
                                  dt.date(2017, 1, 1) + dt.timedelta(days=g + step),
                                  float(rng.normal(2.3, 0.3)))
                 for g in range(60) for step in (0, 1) for _ in range(2)]
        res = fe_variance_explained(panel, FixedEffectSpec("state", include_day_effect=True))
        assert res["r_squared"] == pytest.approx(dummy_two_way_r2(panel), abs=1e-10)

    def test_two_way_disconnected_components(self):
        # Three blocks of states, each seen on every one of its own days: the
        # group-day graph has three components, so the day-effect system is
        # singular unless one reference day per component is dropped.
        rng = np.random.default_rng(13)
        blocks = ((5, 4), (3, 3), (4, 2))  # (states, days) per component
        panel = [PanelObservation("s", f"{b}-{g}", "10001",
                                  dt.date(2017, 1, 1) + dt.timedelta(days=10 * b + day),
                                  float(rng.normal(2.3, 0.3)))
                 for b, (n_states, n_days) in enumerate(blocks)
                 for g in range(n_states) for day in range(n_days)]
        res = fe_variance_explained(panel, FixedEffectSpec("state", include_day_effect=True))
        assert res["r_squared"] == pytest.approx(dummy_two_way_r2(panel), abs=1e-10)

    def test_single_group_error(self):
        panel = self._panel([1.0, 2.0], ["a", "b"])
        with pytest.raises(DegenerateGroupingError, match="only one state group"):
            fe_variance_explained(panel, FixedEffectSpec("state"))

    def test_equals_one_minus_within_over_total(self):
        panel = make_random_panel(6)
        res = fe_variance_explained(panel, FixedEffectSpec("state"))
        vd = variance_decomposition([o.price for o in panel],
                                    [o.state_id for o in panel])
        assert res["r_squared"] == pytest.approx(1 - vd.within / vd.total, abs=1e-10)


class TestCountyRegression:
    def test_within_equals_dummy_ols(self):
        rows, _ = make_county_rows(7, covariate_effects={"poverty": -0.3})
        fit = county_regression(rows, FE_NAMES)
        oracle = dummy_ols_coefficients(rows, FE_NAMES)
        for j, name in enumerate(FE_NAMES):
            assert fit.coefficients[name] == pytest.approx(oracle[j], abs=1e-8)

    def test_pure_state_effect_covariates_insignificant(self):
        rows, _ = make_county_rows(8, covariate_effects={}, state_effect_sd=0.3,
                                   noise_sd=0.02)
        fit = county_regression(rows, FE_NAMES)
        for name in FE_NAMES:
            assert abs(fit.coefficients[name]) <= 3 * fit.standard_errors[name]
        assert fit.r_squared > 0.8  # state effects dominate

    def test_perfect_fit_error(self):
        rows, _ = make_county_rows(9)
        for r in rows:
            r.covariates = dict(r.covariates)
            r.covariates["mirror"] = r.log_mean_price
        with pytest.raises(PerfectFitError):
            county_regression(rows, ["mirror"])

    def test_absorbed_covariate_error(self):
        rows, _ = make_county_rows(10)
        for r in rows:
            r.covariates = dict(r.covariates)
            r.covariates["statewide"] = float(int(r.state_id))
        with pytest.raises(AbsorbedCovariateError) as exc:
            county_regression(rows, ["poverty", "statewide"])
        assert exc.value.name == "statewide"

    def test_unknown_cluster_level_raises(self):
        rows, _ = make_county_rows(12)
        with pytest.raises(ValueError):
            county_regression(rows, ["density", "poverty"], cluster="county")

    def test_needs_two_states(self):
        rows, _ = make_county_rows(11, n_states=1)
        with pytest.raises(InsufficientClustersError):
            county_regression(rows, ["poverty"])

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_within_dummy_equivalence_random(self, seed):
        rows, _ = make_county_rows(seed, n_states=5, counties_per_state=8)
        names = ["density", "poverty", "vote_gop"]
        fit = county_regression(rows, names)
        oracle = dummy_ols_coefficients(rows, names)
        for j, name in enumerate(names):
            assert fit.coefficients[name] == pytest.approx(oracle[j], abs=1e-8)


class TestClusterRobustSe:
    def _fit(self, seed, n=60, k=3):
        rng = np.random.default_rng(seed)
        x = np.column_stack([np.ones(n), rng.normal(0, 1, (n, k - 1))])
        y = rng.normal(0, 1, n)
        beta = np.linalg.lstsq(x, y, rcond=None)[0]
        u = y - x @ beta
        bread = np.linalg.inv(x.T @ x)
        return x, u, bread

    def test_singleton_clusters_match_hc1(self):
        x, u, bread = self._fit(0)
        n, k = x.shape
        se = cluster_robust_se(x, u, bread, np.arange(n))
        meat = x.T @ (u[:, None] ** 2 * x)  # sum u_i^2 x_i x_i'
        hc1 = np.sqrt(np.diag(n / (n - k) * bread @ meat @ bread))
        assert np.allclose(se, hc1, atol=1e-9)

    def test_zero_residuals_zero_se(self):
        x, _, bread = self._fit(1)
        se = cluster_robust_se(x, np.zeros(x.shape[0]), bread, np.arange(x.shape[0]))
        assert np.allclose(se, 0.0)

    def test_balanced_clusters_close_to_classical(self):
        # homoskedastic independent data: clustered SEs should track OLS SEs
        within = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n, k, g = 200, 3, 20
            x = np.column_stack([np.ones(n), rng.normal(0, 1, (n, k - 1))])
            y = rng.normal(0, 1, n)
            beta = np.linalg.lstsq(x, y, rcond=None)[0]
            u = y - x @ beta
            bread = np.linalg.inv(x.T @ x)
            clusters = np.repeat(np.arange(g), n // g)
            se = cluster_robust_se(x, u, bread, clusters, k_total=k)
            classical = np.sqrt(np.diag(bread) * (u @ u) / (n - k))
            within.append(np.all(np.abs(se / classical - 1) < 0.5))
        assert np.mean(within) >= 0.75

    def test_covariance_psd(self):
        for seed in range(10):
            x, u, bread = self._fit(seed, n=50)
            clusters = np.random.default_rng(seed).integers(0, 8, 50)
            if len(set(clusters.tolist())) < 2:
                continue
            cov = clustered_covariance(x, u, bread, clusters)
            assert np.min(np.linalg.eigvalsh((cov + cov.T) / 2)) >= -1e-10

    def test_permutation_within_clusters_invariant(self):
        x, u, bread = self._fit(2, n=40)
        clusters = np.repeat(np.arange(8), 5)
        se = cluster_robust_se(x, u, bread, clusters)
        rng = np.random.default_rng(3)
        order = np.arange(40)
        for g in range(8):
            idx = np.nonzero(clusters == g)[0]
            order[idx] = rng.permutation(idx)
        se2 = cluster_robust_se(x[order], u[order], bread, clusters[order])
        assert np.allclose(se, se2, atol=1e-12)

    def test_single_cluster_error(self):
        x, u, bread = self._fit(4, n=20)
        with pytest.raises(InsufficientClustersError):
            cluster_robust_se(x, u, bread, np.zeros(20))


class TestReporting:
    def _fit(self):
        rows, _ = make_county_rows(20, covariate_effects={"poverty": -0.4})
        return county_regression(rows, ["density", "poverty", "vote_gop"])

    def test_stars_thresholds(self):
        assert significance_stars(1.0, 0.1, 100) == "***"
        assert significance_stars(1.0, 0.45, 100) == "**"
        assert significance_stars(1.0, 0.55, 100) == "*"
        assert significance_stars(1.0, 2.0, 100) == ""

    def test_text_table(self):
        fit = self._fit()
        table = render_fe_table(fit)
        assert "poverty" in table
        assert "R-squared" in table
        assert "(" in table

    def test_csv_table(self, tmp_path):
        fit = self._fit()
        fe_table_to_csv(fit, tmp_path / "table.csv")
        text = (tmp_path / "table.csv").read_text(encoding="utf-8")
        assert text.startswith("variable,(1)")
        assert "r_squared" in text
