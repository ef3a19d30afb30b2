import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuelspatial import geo, gwr
from fuelspatial.errors import DegenerateBandwidthError, InvalidBandwidthError
from fuelspatial.geo import (
    EARTH_RADIUS_KM,
    PAIR_BLOCK,
    WEIGHT_FLOOR,
    Bandwidth,
    GeoPoint,
    KernelShape,
    build_weights,
    distance_matrix,
    haversine_distance,
    kernel_weight,
)

coords = st.tuples(st.floats(-89.0, 89.0), st.floats(-179.0, 179.0))


def _point(c):
    return GeoPoint(c[0], c[1])


def _whole_array_distances(n, seed):
    """Random points and their distance matrix from the one-expression
    haversine over whole n x n arrays."""
    rng = np.random.default_rng(seed)
    lat_deg, lon_deg = rng.uniform(-89, 89, n), rng.uniform(-179, 179, n)
    pts = [GeoPoint(float(la), float(lo)) for la, lo in zip(lat_deg, lon_deg)]
    lat, lon = np.radians(lat_deg), np.radians(lon_deg)
    dlat = lat[:, None] - lat[None, :]
    dlon = lon[:, None] - lon[None, :]
    s = (np.sin(dlat / 2.0) ** 2
         + np.cos(lat)[:, None] * np.cos(lat)[None, :] * np.sin(dlon / 2.0) ** 2)
    return pts, 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(s, 0.0, 1.0)))


class TestGeoPoint:
    def test_valid_bounds(self):
        GeoPoint(90.0, 180.0)
        GeoPoint(-90.0, -180.0)

    @pytest.mark.parametrize("lat,lon", [(91, 0), (-90.5, 0), (0, 181), (0, -180.01)])
    def test_out_of_range_rejected(self, lat, lon):
        with pytest.raises(ValueError):
            GeoPoint(lat, lon)


class TestHaversine:
    def test_identity(self):
        p = GeoPoint(48.85, 2.35)
        assert haversine_distance(p, p) == 0.0

    def test_antipodal(self):
        # half circumference = pi * R
        d = haversine_distance(GeoPoint(0, 0), GeoPoint(0, 180))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM, abs=0.01)

    def test_one_degree_meridian(self):
        d = haversine_distance(GeoPoint(0, 0), GeoPoint(1, 0))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM / 180.0, abs=0.01)

    @given(coords, coords)
    def test_symmetry(self, a, b):
        pa, pb = _point(a), _point(b)
        assert haversine_distance(pa, pb) == pytest.approx(
            haversine_distance(pb, pa), abs=1e-9)

    @given(coords, coords, coords)
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b, c):
        pa, pb, pc = _point(a), _point(b), _point(c)
        assert (haversine_distance(pa, pc)
                <= haversine_distance(pa, pb) + haversine_distance(pb, pc) + 1e-9)

    def test_matrix_matches_pairwise(self):
        rng = np.random.default_rng(0)
        pts = [GeoPoint(float(la), float(lo))
               for la, lo in zip(rng.uniform(-60, 60, 8), rng.uniform(-150, 150, 8))]
        m = distance_matrix(pts)
        for i in range(8):
            for j in range(8):
                assert m[i, j] == pytest.approx(haversine_distance(pts[i], pts[j]),
                                                abs=1e-9)

    def test_matrix_equals_whole_array_formula(self):
        # The in-place evaluation must give the one-expression formula's bits.
        pts, want = _whole_array_distances(97, seed=5)
        assert np.array_equal(distance_matrix(pts), want)

    def test_row_blocks_equal_whole_array_formula(self):
        # Three row blocks, the last one short: every upper block and its
        # mirror image must give the formula's bits, so the matrix is
        # exactly symmetric.
        n = 2 * PAIR_BLOCK + 97
        pts, want = _whole_array_distances(n, seed=6)
        assert np.array_equal(want, want.T)
        d = distance_matrix(pts)
        assert np.array_equal(d, want)
        assert np.array_equal(d, d.T)
        assert [(r0, r1, block.shape) for r0, r1, block in geo.pair_blocks(pts)] == [
            (0, PAIR_BLOCK, (PAIR_BLOCK, n)),
            (PAIR_BLOCK, 2 * PAIR_BLOCK, (PAIR_BLOCK, n - PAIR_BLOCK)),
            (2 * PAIR_BLOCK, n, (97, 97))]

    def test_matrix_of_no_points(self):
        assert distance_matrix([]).shape == (0, 0)


class TestKernelWeight:
    def test_gaussian_at_zero(self):
        assert kernel_weight(KernelShape.GAUSSIAN, 0.0, 10.0) == 1.0

    def test_bisquare_at_boundary(self):
        assert kernel_weight(KernelShape.BISQUARE, 10.0, 10.0) == 0.0

    def test_exponential_e_inverse(self):
        assert kernel_weight(KernelShape.EXPONENTIAL, 10.0, 10.0) == pytest.approx(
            math.exp(-1.0), abs=1e-6)

    def test_step_inside_and_outside(self):
        assert kernel_weight(KernelShape.STEP, 10.0, 10.0) == 1.0
        assert kernel_weight(KernelShape.STEP, 10.000001, 10.0) == 0.0

    @pytest.mark.parametrize("shape", list(KernelShape))
    def test_unit_at_zero(self, shape):
        assert kernel_weight(shape, 0.0, 5.0) == 1.0

    @pytest.mark.parametrize("shape", list(KernelShape))
    @given(d=st.tuples(st.floats(0, 500), st.floats(0, 500)), h=st.floats(0.1, 200))
    @settings(max_examples=40)
    def test_non_increasing(self, shape, d, h):
        d1, d2 = sorted(d)
        assert kernel_weight(shape, d1, h) >= kernel_weight(shape, d2, h)

    def test_invalid_bandwidth(self):
        with pytest.raises(InvalidBandwidthError):
            kernel_weight(KernelShape.GAUSSIAN, 1.0, 0.0)

    @pytest.mark.parametrize("shape", list(KernelShape))
    def test_per_row_bandwidth_equals_row_calls(self, shape):
        d = distance_matrix(_random_points(12, seed=3))
        h = np.linspace(50.0, 900.0, 12)
        expected = np.vstack([kernel_weight(shape, d[i], h[i]) for i in range(12)])
        assert np.array_equal(kernel_weight(shape, d, h[:, None]), expected)

    @pytest.mark.parametrize("shape", list(KernelShape))
    def test_in_place_equals_formula(self, shape):
        """Bit for bit the whole-array formula, for a scalar and a per-row h,
        without touching the distances."""
        formula = {
            KernelShape.EXPONENTIAL: lambda u: np.exp(-u),
            KernelShape.GAUSSIAN: lambda u: np.exp(-0.5 * u**2),
            KernelShape.BISQUARE: lambda u: np.where(
                u < 1.0, (1.0 - np.minimum(u, 1.0) ** 2) ** 2, 0.0),
            KernelShape.STEP: lambda u: np.where(u <= 1.0, 1.0, 0.0),
        }[shape]
        rng = np.random.default_rng(11)
        d = rng.uniform(0.0, 800.0, (40, 40))
        np.fill_diagonal(d, 0.0)
        before = d.copy()
        for h in (250.0, rng.uniform(20.0, 900.0, 40)[:, None]):
            assert kernel_weight(shape, d, h).tobytes() == formula(d / h).tobytes()
        assert np.array_equal(d, before)
        assert kernel_weight(shape, 90.0, 250.0) == float(formula(np.float64(90.0) / 250.0))

    @pytest.mark.parametrize("bad", [0.0, -5.0, float("nan")])
    def test_non_positive_entry_in_bandwidth_array(self, bad):
        h = np.array([[10.0], [bad], [20.0]])
        with pytest.raises(InvalidBandwidthError):
            kernel_weight(KernelShape.GAUSSIAN, np.ones((3, 3)), h)


class TestBandwidth:
    def test_fixed_positive(self):
        with pytest.raises(InvalidBandwidthError):
            Bandwidth.fixed_distance(0.0)

    def test_fixed_nan(self):
        with pytest.raises(InvalidBandwidthError):
            Bandwidth.fixed_distance(float("nan"))

    def test_fixed_inf(self):
        with pytest.raises(InvalidBandwidthError):
            Bandwidth.fixed_distance(float("inf"))

    def test_adaptive_positive_integer(self):
        with pytest.raises(InvalidBandwidthError):
            Bandwidth.adaptive_knn(0)


def _random_points(n, seed=0):
    rng = np.random.default_rng(seed)
    return [GeoPoint(float(la), float(lo))
            for la, lo in zip(rng.uniform(30, 47, n), rng.uniform(-120, -75, n))]


class TestBuildWeights:
    def test_two_points_exponential(self):
        # ~10 km apart along a meridian
        pts = [GeoPoint(0.0, 0.0), GeoPoint(10.0 / 111.19492664455873, 0.0)]
        w = build_weights(pts, KernelShape.EXPONENTIAL, Bandwidth.fixed_distance(10.0))
        dense = w.to_dense()
        assert dense[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-6)
        assert dense[1, 0] == pytest.approx(dense[0, 1], abs=1e-12)
        assert dense[0, 0] == 0.0

    def test_step_below_all_distances(self):
        pts = _random_points(6)
        w = build_weights(pts, KernelShape.STEP, Bandwidth.fixed_distance(0.001))
        assert w.sum() == 0.0

    def test_matches_double_loop_oracle(self):
        pts = _random_points(5, seed=3)
        w = build_weights(pts, KernelShape.GAUSSIAN, Bandwidth.fixed_distance(200.0))
        dense = w.to_dense()
        for i in range(5):
            for j in range(5):
                expected = 0.0 if i == j else kernel_weight(
                    KernelShape.GAUSSIAN, haversine_distance(pts[i], pts[j]), 200.0)
                assert dense[i, j] == pytest.approx(expected, abs=1e-12)

    def test_adaptive_per_row_bandwidth(self):
        pts = _random_points(8, seed=5)
        k = 3
        w = build_weights(pts, KernelShape.GAUSSIAN, Bandwidth.adaptive_knn(k))
        dense = w.to_dense()
        d = distance_matrix(pts)
        np.fill_diagonal(d, np.inf)
        for i in range(8):
            h_i = np.sort(d[i])[k - 1]
            for j in range(8):
                if i == j:
                    continue
                expected = kernel_weight(KernelShape.GAUSSIAN, d[i, j], h_i)
                assert dense[i, j] == pytest.approx(expected, rel=1e-12)

    def test_duplicate_coordinates_degenerate(self):
        pts = [GeoPoint(40.0, -100.0), GeoPoint(40.0, -100.0), GeoPoint(41.0, -100.0)]
        with pytest.raises(DegenerateBandwidthError) as exc:
            build_weights(pts, KernelShape.GAUSSIAN, Bandwidth.adaptive_knn(1))
        assert exc.value.location in (0, 1)

    def test_duplicate_coordinates_degenerate_in_gwr(self):
        pts = [GeoPoint(41.0, -100.0), GeoPoint(40.0, -100.0), GeoPoint(40.0, -100.0)]
        data = gwr.GwrDataset(ids=[0, 1, 2], points=pts, covariates={},
                              response=[1.0, 2.0, 4.0])
        bw = Bandwidth.adaptive_knn(1)
        with pytest.raises(DegenerateBandwidthError) as moran:
            build_weights(pts, KernelShape.GAUSSIAN, bw)
        with pytest.raises(DegenerateBandwidthError) as fit:
            gwr.gwr_fit(data, gwr.GwrSpec((), KernelShape.GAUSSIAN, bw))
        assert fit.value.location == moran.value.location == 1

    @pytest.mark.parametrize("kernel", list(KernelShape))
    @pytest.mark.parametrize("bw", [Bandwidth.fixed_distance(150.0),
                                    Bandwidth.adaptive_knn(4)])
    def test_gwr_weights_under_moran_rule(self, kernel, bw):
        """Moran's I and GWR share one weight rule: the sparse weights are the
        GWR weights of the same points with a zero diagonal and every entry
        below WEIGHT_FLOOR set to 0."""
        pts = _random_points(12, seed=11)
        data = gwr.GwrDataset(ids=list(range(12)), points=pts, covariates={},
                              response=np.zeros(12))
        w = gwr._weight_matrix(data, gwr.GwrSpec((), kernel, bw))
        np.fill_diagonal(w, 0.0)
        w[w < WEIGHT_FLOOR] = 0.0
        assert np.array_equal(build_weights(pts, kernel, bw).to_dense(), w)

    def test_permutation_invariance(self):
        pts = _random_points(7, seed=9)
        bw = Bandwidth.fixed_distance(150.0)
        w = build_weights(pts, KernelShape.EXPONENTIAL, bw).to_dense()
        perm = [3, 0, 6, 1, 5, 2, 4]
        wp = build_weights([pts[i] for i in perm], KernelShape.EXPONENTIAL, bw).to_dense()
        assert np.allclose(wp, w[np.ix_(perm, perm)], atol=1e-14)

    def test_needs_two_points(self):
        with pytest.raises(InvalidBandwidthError):
            build_weights([GeoPoint(0, 0)], KernelShape.STEP, Bandwidth.fixed_distance(1))
