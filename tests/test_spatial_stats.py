import datetime as dt
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuelspatial.errors import (
    EmptyInputError,
    EmptyWeightsError,
    InvalidBandwidthError,
    ZeroVarianceError,
)
from fuelspatial import geo
from fuelspatial.geo import Bandwidth, GeoPoint, KernelShape, build_weights, kernel_weight
from fuelspatial.spatial_stats import (
    MoranResult,
    moran_index,
    moran_sweep,
    variance_decomposition,
)

DAY0 = dt.date(2017, 1, 10)


def _random_points(n, seed=0):
    rng = np.random.default_rng(seed)
    return [GeoPoint(float(la), float(lo))
            for la, lo in zip(rng.uniform(30, 47, n), rng.uniform(-120, -75, n))]


def sweep_input(observations, locations):
    """``moran_sweep``'s columns and points for (id, date, value) tuples and an
    id -> GeoPoint dict: the ids coded in str order, the points in code order."""
    ids = sorted(locations, key=str)
    code = {i: k for k, i in enumerate(ids)}
    columns = (np.array([code[i] for i, _, _ in observations], dtype=np.intp),
               np.array([d.toordinal() for _, d, _ in observations], dtype=np.int64),
               np.array([v for _, _, v in observations], dtype=float))
    return columns, [locations[i] for i in ids]


def moran_oracle(values, dense):
    """Independent double-loop evaluation of the cross-product formula."""
    x = np.asarray(values, dtype=float)
    n = x.size
    xbar = x.mean()
    num = 0.0
    s0 = 0.0
    for i in range(n):
        for j in range(n):
            num += dense[i, j] * (x[i] - xbar) * (x[j] - xbar)
            s0 += dense[i, j]
    return (n / s0) * num / np.sum((x - xbar) ** 2)


class TestMoranIndex:
    def test_two_point_antisymmetric(self):
        pts = [GeoPoint(40.0, -100.0), GeoPoint(40.5, -100.0)]
        w = build_weights(pts, KernelShape.EXPONENTIAL, Bandwidth.fixed_distance(100.0))
        assert moran_index([1.0, -1.0], w).index == pytest.approx(-1.0, abs=1e-12)

    def test_constant_vector(self):
        pts = _random_points(3)
        w = build_weights(pts, KernelShape.EXPONENTIAL, Bandwidth.fixed_distance(100.0))
        with pytest.raises(ZeroVarianceError):
            moran_index([2.28, 2.28, 2.28], w)

    def test_all_zero_weights(self):
        pts = _random_points(4)
        w = build_weights(pts, KernelShape.STEP, Bandwidth.fixed_distance(0.001))
        with pytest.raises(EmptyWeightsError):
            moran_index([1.0, 2.0, 3.0, 4.0], w)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        pts = _random_points(6, seed=7)
        w = build_weights(pts, KernelShape.EXPONENTIAL, Bandwidth.fixed_distance(50.0))
        values = rng.normal(2.3, 0.2, 6)
        assert moran_index(values, w).index == pytest.approx(
            moran_oracle(values, w.to_dense()), abs=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_affine_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pts = _random_points(5, seed=seed)
        w = build_weights(pts, KernelShape.EXPONENTIAL, Bandwidth.fixed_distance(200.0))
        x = rng.normal(0, 1, 5)
        if np.ptp(x) == 0:
            return
        a, b = float(rng.uniform(0.1, 5)), float(rng.normal(0, 10))
        assert moran_index(a * x + b, w).index == pytest.approx(
            moran_index(x, w).index, abs=1e-9)

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(3)
        pts = _random_points(6, seed=3)
        w = build_weights(pts, KernelShape.GAUSSIAN, Bandwidth.fixed_distance(300.0))
        x = rng.normal(0, 1, 6)
        from fuelspatial.geo import SpatialWeights
        scaled = SpatialWeights(w.n, w.rows, w.cols, w.data * 7.3)
        assert moran_index(x, scaled).index == pytest.approx(
            moran_index(x, w).index, abs=1e-9)


class TestMoranSweep:
    def _panel(self, values, day=DAY0):
        return [(str(i), day, v) for i, v in enumerate(values)]

    def test_single_window_matches_direct(self):
        pts = _random_points(5, seed=4)
        locations = {str(i): p for i, p in enumerate(pts)}
        values = np.random.default_rng(4).normal(2.3, 0.2, 5)
        sweep = moran_sweep(*sweep_input(self._panel(values), locations), "daily", [50.0])
        w = build_weights(pts, KernelShape.EXPONENTIAL, Bandwidth.fixed_distance(50.0))
        assert len(sweep.rows) == 1
        assert sweep.rows[0].result.index == pytest.approx(
            moran_index(values, w).index, abs=1e-12)

    def test_time_constant_panel_same_index(self):
        pts = _random_points(6, seed=5)
        locations = {str(i): p for i, p in enumerate(pts)}
        values = np.random.default_rng(5).normal(2.3, 0.2, 6)
        panel = []
        for d in range(4):
            panel += [(str(i), DAY0 + dt.timedelta(days=d), v)
                      for i, v in enumerate(values)]
        sweep = moran_sweep(*sweep_input(panel, locations), "daily", [100.0])
        indices = [r.result.index for r in sweep.rows]
        assert len(indices) == 4
        assert np.ptp(indices) < 1e-12

    def test_smooth_longitude_field_decays(self):
        # values follow longitude smoothly: positive I, decreasing past the
        # pattern scale
        rng = np.random.default_rng(6)
        lon = rng.uniform(-110, -80, 40)
        lat = rng.uniform(35, 45, 40)
        pts = [GeoPoint(float(a), float(b)) for a, b in zip(lat, lon)]
        locations = {str(i): p for i, p in enumerate(pts)}
        values = np.sin((lon + 110) / 30 * np.pi) + rng.normal(0, 0.02, 40)
        panel = self._panel(values)
        sweep = moran_sweep(*sweep_input(panel, locations), "daily", [50.0, 3000.0])
        by_d0 = {r.d0_km: r.result.index for r in sweep.rows}
        assert by_d0[50.0] > 0
        assert by_d0[50.0] > by_d0[3000.0]

    def test_small_window_skipped(self):
        pts = _random_points(2, seed=1)
        locations = {str(i): p for i, p in enumerate(pts)}
        sweep = moran_sweep(*sweep_input(self._panel([1.0, 2.0]), locations), "daily",
                            [100.0])
        assert not sweep.rows
        assert sweep.skipped and "fewer than 3" in sweep.skipped[0][1]

    def test_weekly_anchoring(self):
        pts = _random_points(4, seed=8)
        locations = {str(i): p for i, p in enumerate(pts)}
        values = np.random.default_rng(8).normal(2.3, 0.2, 4)
        panel = []
        for d in (0, 3, 8):
            panel += [(str(i), DAY0 + dt.timedelta(days=d), v)
                      for i, v in enumerate(values)]
        sweep = moran_sweep(*sweep_input(panel, locations), "weekly", [200.0])
        starts = sorted({r.window_start for r in sweep.rows})
        assert starts == [DAY0, DAY0 + dt.timedelta(days=7)]

    def test_cell_of_eight_is_np_mean(self):
        # np.mean sums eight or more values pairwise, and this cell's pairwise
        # mean differs from its sequential one in the last bit. The two other
        # locations hold np.mean's value, so the window is constant only if
        # the sweep averages the cell as np.mean does.
        values = [2.524, 3.401, 1.788, 3.397, 2.124, 2.347, 3.155, 2.318]
        mean = float(np.mean(values))
        assert np.cumsum(values)[-1] / len(values) != mean
        locations = {str(i): p for i, p in enumerate(_random_points(3, seed=2))}
        panel = [("0", DAY0, v) for v in values] + [("1", DAY0, mean), ("2", DAY0, mean)]
        sweep = moran_sweep(*sweep_input(panel, locations), "daily", [300.0])
        assert (sweep.rows, sweep.skipped) == ([], [(DAY0, "constant values")])

    def test_empty_panel(self):
        with pytest.raises(EmptyInputError):
            moran_sweep(*sweep_input([], {}), "daily", [10.0])

    def test_csv_round_trip(self, tmp_path):
        pts = _random_points(4, seed=9)
        locations = {str(i): p for i, p in enumerate(pts)}
        values = np.random.default_rng(9).normal(2.3, 0.2, 4)
        sweep = moran_sweep(*sweep_input(self._panel(values), locations), "daily",
                            [30.0, 100.0])
        path = tmp_path / "sweep.csv"
        sweep.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "window_start,window_kind,d0_km,moran_i,n,sum_weights"
        assert len(lines) == 3


def sweep_oracle(observations, locations, window_kind, d0_list, shape):
    """Per-window reference sweep: one ``np.mean`` per cell, ``build_weights``
    and ``moran_index`` per (window, d0). Returns (rows, skipped) with rows as
    (start, d0, MoranResult, weights)."""
    anchor = min(day for _, day, _ in observations)
    windows = {}
    for loc, day, value in observations:
        start = day if window_kind == "daily" else (
            anchor + dt.timedelta(days=(day - anchor).days // 7 * 7))
        windows.setdefault(start, {}).setdefault(loc, []).append(value)
    rows, skipped = [], []
    for start in sorted(windows):
        ids = sorted(windows[start], key=str)
        means = np.array([np.mean(windows[start][i]) for i in ids])
        if len(ids) < 3:
            skipped.append((start, "fewer than 3 locations"))
            continue
        if np.ptp(means) == 0:
            skipped.append((start, "constant values"))
            continue
        for d0 in d0_list:
            w = build_weights([locations[i] for i in ids], shape,
                              Bandwidth.fixed_distance(d0))
            try:
                res = moran_index(means, w)
            except EmptyWeightsError:
                skipped.append((start, f"all weights zero at d0={d0}"))
                continue
            rows.append((start, float(d0), res, w, means))
    return rows, skipped


def assert_sweep_matches_oracle(sweep, expected_rows, expected_skipped):
    """Same rows and skipped entries in the same order; I and sum_weights within
    1e-12 relative. Rounding in the cross-product sum is relative to the size
    of its terms, so I is compared at the scale max(|I|, sum_ij |w_ij z_i z_j|
    scaled as I), which is |I| itself unless the sum cancels to near zero."""
    assert sweep.skipped == expected_skipped
    assert len(sweep.rows) == len(expected_rows)
    for row, (start, d0, res, w, means) in zip(sweep.rows, expected_rows):
        assert (row.window_start, row.d0_km, row.result.n) == (start, d0, res.n)
        z = means - means.mean()
        terms = np.abs(w.data * z[w.rows] * z[w.cols]).sum()
        scale = max(abs(res.index), (w.n / w.sum()) * terms / (z @ z))
        assert abs(row.result.index - res.index) <= 1e-12 * scale
        assert row.result.sum_weights == pytest.approx(res.sum_weights, rel=1e-12)


def _varying_panel(ids, n_days, seed, repeats=1, block=1):
    """A smooth field over ``ids`` with noise. Blocks of ``block`` days cycle
    through all locations and two random subsets, so windows differ in their
    location sets and every third block shares one; each (day, location)
    holds ``repeats`` values."""
    rng = np.random.default_rng(seed)
    pts = _random_points(len(ids), seed=seed)
    locations = dict(zip(ids, pts))
    field_values = {i: np.sin(p.lon / 7.0) + 0.3 * np.cos(p.lat / 3.0)
                    for i, p in locations.items()}
    subsets = [ids] + [[i for i in ids if rng.random() < 0.75] for _ in range(2)]
    panel = []
    for d in range(n_days):
        day = DAY0 + dt.timedelta(days=d)
        for i in subsets[d // block % 3]:
            for _ in range(repeats):
                panel.append((i, day, float(field_values[i] + rng.normal(0, 0.05))))
    order = rng.permutation(len(panel))
    return [panel[k] for k in order], locations


class TestMoranSweepOracle:
    D0 = [5.0, 30.0, 300.0, 1500.0]

    @pytest.mark.parametrize("shape", list(KernelShape))
    @pytest.mark.parametrize("window_kind,days,repeats,block",
                             [("daily", 8, 1, 1), ("weekly", 26, 2, 7)])
    def test_matches_per_window_oracle(self, shape, window_kind, days, repeats, block):
        ids = [f"c{i:02d}" for i in range(14)]
        panel, locations = _varying_panel(ids, days, seed=21, repeats=repeats,
                                          block=block)
        sweep = moran_sweep(*sweep_input(panel, locations), window_kind, self.D0, shape)
        rows, skipped = sweep_oracle(panel, locations, window_kind, self.D0, shape)
        sizes = list({start: len(means) for start, _, _, _, means in rows}.values())
        assert len(set(sizes)) > 1 and len(set(sizes)) < len(sizes)
        assert_sweep_matches_oracle(sweep, rows, skipped)

    @pytest.mark.parametrize("shape", list(KernelShape))
    def test_disjoint_and_nested_location_sets(self, shape):
        # Windows on disjoint halves, on a subset of one half, on all
        # locations, and a skipped window whose only other location is in no
        # evaluated window. Pairs across the halves carry weight at the larger
        # d0, so a zero-filled absent location that leaked into z'Wz or into
        # s0 = m'Wm would move I away from the per-window oracle.
        ids = [f"c{i:02d}" for i in range(12)]
        pts = _random_points(len(ids) + 1, seed=8)
        locations = dict(zip(ids + ["lone"], pts))
        rng = np.random.default_rng(8)
        day = [DAY0 + dt.timedelta(days=d) for d in range(5)]
        members = [ids[:6], ids[6:], ids[1:5], ids, ["lone", "c00"]]
        panel = [(i, d, float(rng.normal())) for d, ids_d in zip(day, members)
                 for i in ids_d]
        sweep = moran_sweep(*sweep_input(panel, locations), "daily", self.D0, shape)
        rows, skipped = sweep_oracle(panel, locations, "daily", self.D0, shape)
        assert {r.window_start: r.result.n for r in sweep.rows} == dict(
            zip(day, [6, 6, 4, 12]))
        assert sweep.skipped[-1] == (day[4], "fewer than 3 locations")
        assert_sweep_matches_oracle(sweep, rows, skipped)

    def test_one_kernel_per_d0_across_location_sets(self, monkeypatch):
        ids = [f"c{i:02d}" for i in range(14)]
        panel, locations = _varying_panel(ids, 9, seed=21)
        sets = {frozenset(loc for loc, day, _ in panel if day == d)
                for d in {day for _, day, _ in panel}}
        assert len(sets) == 3
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return kernel_weight(*args, **kwargs)

        monkeypatch.setattr(geo, "kernel_weight", counting)
        sweep = moran_sweep(*sweep_input(panel, locations), "daily", self.D0)
        assert len({r.window_start for r in sweep.rows}) == 9
        assert len(calls) == len(self.D0)

    @pytest.mark.parametrize("shape", [KernelShape.EXPONENTIAL, KernelShape.BISQUARE])
    def test_matches_per_window_oracle_over_row_blocks(self, shape):
        # 640 locations make three row blocks; the windows cycle through all
        # locations and two random subsets, so every block pairs present and
        # absent locations.
        ids = [f"c{i:03d}" for i in range(2 * geo.PAIR_BLOCK + 128)]
        panel, locations = _varying_panel(ids, 4, seed=31)
        sweep = moran_sweep(*sweep_input(panel, locations), "daily", self.D0, shape)
        rows, skipped = sweep_oracle(panel, locations, "daily", self.D0, shape)
        assert len({len(means) for _, _, _, _, means in rows}) == 3
        assert_sweep_matches_oracle(sweep, rows, skipped)

    def test_sweep_never_holds_a_full_matrix(self):
        # 4000 locations: one n x n float array would take 128 MB; the row
        # blocks hold a few PAIR_BLOCK x n arrays (about 8 MB each).
        n = 4000
        ids = list(range(n))
        columns, points = sweep_input(*_varying_panel(ids, 2, seed=41))
        tracemalloc.start()
        try:
            sweep = moran_sweep(columns, points, "daily", [30.0, 300.0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sweep.rows) == 4
        assert peak < n * n * 8 / 2

    def test_relabelled_codes_give_the_same_rows(self):
        # Codes only index points: permuting the codes, with the points
        # permuted to match, changes the order of each window's locations
        # but not its rows.
        ids = [f"c{i:02d}" for i in range(9)]
        panel, locations = _varying_panel(ids, 6, seed=5)
        (location, day, value), points = sweep_input(panel, locations)
        perm = np.random.default_rng(5).permutation(len(points))
        assert (perm != np.arange(len(points))).any()
        relabelled = [points[k] for k in np.argsort(perm)]
        rows, skipped = sweep_oracle(panel, locations, "daily", [300.0, 1500.0],
                                     KernelShape.GAUSSIAN)
        for codes, pts in ((location, points), (perm[location], relabelled)):
            sweep = moran_sweep((codes, day, value), pts, "daily", [300.0, 1500.0],
                                KernelShape.GAUSSIAN)
            assert_sweep_matches_oracle(sweep, rows, skipped)

    def test_columns_of_different_lengths_raise(self):
        (location, day, value), points = sweep_input(
            *_varying_panel([f"c{i}" for i in range(5)], 2, seed=3))
        with pytest.raises(ValueError, match="one length"):
            moran_sweep((location, day, value[:-1]), points, "daily", [100.0])

    def test_non_integer_codes_raise(self):
        (location, day, value), points = sweep_input(
            *_varying_panel([f"c{i}" for i in range(5)], 2, seed=3))
        with pytest.raises(ValueError, match="integers"):
            moran_sweep((location.astype(float), day, value), points, "daily", [100.0])

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_code_outside_points_raises(self, bad):
        # -1 would otherwise read the last point and 5 run past the end.
        (location, day, value), points = sweep_input(
            *_varying_panel([f"c{i}" for i in range(5)], 2, seed=3))
        location[0] = bad
        with pytest.raises(ValueError, match=r"\[0, 5\)"):
            moran_sweep((location, day, value), points, "daily", [100.0])

    def test_skipped_order(self):
        pts = _random_points(5, seed=13)
        locations = {str(i): p for i, p in enumerate(pts)}
        rng = np.random.default_rng(13)
        day = [DAY0 + dt.timedelta(days=d) for d in range(4)]
        panel = [(str(i), day[0], float(rng.normal())) for i in range(2)]
        panel += [(str(i), day[1], 2.0) for i in range(5)]
        panel += [(str(i), day[2], float(rng.normal())) for i in range(5)]
        panel += [(str(i), day[3], float(rng.normal())) for i in range(1, 5)]
        sweep = moran_sweep(*sweep_input(panel, locations), "daily", [0.001, 3000.0])
        assert sweep.skipped == [
            (day[0], "fewer than 3 locations"),
            (day[1], "constant values"),
            (day[2], "all weights zero at d0=0.001"),
            (day[3], "all weights zero at d0=0.001"),
        ]
        assert [(r.window_start, r.d0_km, r.result.n) for r in sweep.rows] == [
            (day[2], 3000.0, 5), (day[3], 3000.0, 4)]
        rows, skipped = sweep_oracle(panel, locations, "daily", [0.001, 3000.0],
                                     KernelShape.EXPONENTIAL)
        assert_sweep_matches_oracle(sweep, rows, skipped)

    @pytest.mark.parametrize("d0", [0.0, -5.0, float("nan")])
    def test_non_positive_d0_raises(self, d0):
        panel, locations = _varying_panel([f"c{i}" for i in range(5)], 2, seed=3)
        with pytest.raises(InvalidBandwidthError):
            moran_sweep(*sweep_input(panel, locations), "daily", [100.0, d0])

    def test_unknown_window_kind(self):
        panel, locations = _varying_panel([f"c{i}" for i in range(5)], 2, seed=3)
        with pytest.raises(ValueError, match="monthly"):
            moran_sweep(*sweep_input(panel, locations), "monthly", [100.0])


class TestVarianceDecomposition:
    def test_constant_within_groups(self):
        vd = variance_decomposition([1.0, 1.0, 3.0, 3.0], ["a", "a", "b", "b"])
        assert vd.within == 0.0
        assert vd.between == pytest.approx(4.0)
        assert vd.total == pytest.approx(4.0)

    def test_single_group(self):
        vd = variance_decomposition([0.0, 2.0], ["a", "a"])
        assert vd.between == 0.0
        assert vd.within == pytest.approx(2.0)

    def test_random_matches_two_pass_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.normal(0, 1, 20)
        g = rng.integers(0, 4, 20)
        vd = variance_decomposition(x, g)
        total = np.sum((x - x.mean()) ** 2)
        within = sum(np.sum((x[g == k] - x[g == k].mean()) ** 2) for k in range(4))
        assert vd.total == pytest.approx(total, rel=1e-10)
        assert vd.within == pytest.approx(within, rel=1e-10)
        assert vd.between == pytest.approx(total - within, rel=1e-10)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_sums_to_total(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, 15)
        g = rng.integers(0, 3, 15)
        vd = variance_decomposition(x, g)
        assert vd.between + vd.within == pytest.approx(vd.total, rel=1e-9)
        assert vd.between >= 0 and vd.within >= 0

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            variance_decomposition([], [])


class TestCountyPanelFixture:
    def test_field_equals_whole_array_covariance(self):
        # make_county_panel builds exp(-d / L) + 1e-8 I in place; its values
        # must equal those of the covariance built as separate arrays.
        from fuelspatial.geo import distance_matrix
        from fuelspatial.synth import START_DAY, make_county_panel, rng_for

        n, days, length = 40, 2, 100.0
        located, (location, day, value) = make_county_panel(3, n_counties=n, n_days=days,
                                                            corr_length_km=length)
        rng = rng_for(3, "countypanel")
        lat, lon = rng.uniform(30.0, 47.0, size=n), rng.uniform(-120.0, -75.0, size=n)
        points = [GeoPoint(float(a), float(b)) for a, b in zip(lat, lon)]
        cov = np.exp(-distance_matrix(points) / length)
        chol = np.linalg.cholesky(cov + 1e-8 * np.eye(n))
        field = 2.28 + 0.2 * (chol @ rng.normal(0.0, 1.0, size=n))
        want = []
        for d in range(days):
            noise = rng.normal(0.0, 0.005, size=n)
            want += [(i, (START_DAY + dt.timedelta(days=d)).toordinal(),
                      float(field[i] + noise[i])) for i in range(n)]
        assert location.dtype.kind == day.dtype.kind == "i"
        assert list(zip(location.tolist(), day.tolist(), value.tolist())) == want
        assert located == points

    @pytest.mark.parametrize("n,band", [(1, 128), (40, 128), (40, 7), (129, 128), (300, 64)])
    def test_cholesky_in_place_equals_numpy(self, n, band):
        from fuelspatial.geo import distance_matrix
        from fuelspatial.synth import cholesky_in_place, rng_for

        rng = rng_for(n, "cholesky")
        points = [GeoPoint(float(a), float(b)) for a, b in
                  zip(rng.uniform(30.0, 47.0, size=n), rng.uniform(-120.0, -75.0, size=n))]
        cov = np.exp(-distance_matrix(points) / 100.0)
        cov.flat[::n + 1] += 1e-8
        want = np.linalg.cholesky(cov)
        z = rng.normal(0.0, 1.0, size=n)
        got = cholesky_in_place(cov, band=band)
        assert got is cov and got.flags.c_contiguous
        assert np.array_equal(got, want)
        assert np.array_equal(got @ z, want @ z)

    def test_cholesky_in_place_of_a_strided_view(self):
        # LAPACK copies an input it cannot factor in place; the factor still
        # lands in the caller's array.
        from fuelspatial.synth import cholesky_in_place

        base = np.zeros((5, 10))
        a = base[:, ::2]
        a[...] = np.eye(5) * 4.0 + 1.0
        want = np.linalg.cholesky(a)
        assert cholesky_in_place(a, band=2) is a
        assert np.array_equal(a, want)
