"""Grid fields, finite differences, and the field-level product identity."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from korn_kit import algebra, analytic, fields
from korn_kit.errors import DimensionMismatch, GridTooLarge, GridTooSmall
from korn_kit.fields import (POINT_CAP, CoefficientTensorField, ConvergenceReport,
                             GridSpec, MatrixField, VectorField,
                             curl_product_discrepancy,
                             fd_curl_rowwise, fd_grad,
                             refinement_errors)


def unit_grid(n, dim=3):
    return GridSpec((n,) * dim, (0.0,) * dim, 1.0 / (n - 1))


def entry_gradients(m):
    """fd_grad of each row of a 3d matrix field; row 3 * i + j holds the
    gradient of entry (i, j)."""
    rows = [fd_grad(VectorField(m.grid, m.values[..., i, :])).values for i in range(3)]
    return np.stack(rows, axis=-3).reshape(m.grid.shape + (9, 3))


class TestGridSpec:
    def test_basic_properties(self):
        g = unit_grid(5)
        assert g.dim == 3
        assert g.num_points == 125
        axes = g.axes()
        assert axes[0][0] == 0.0 and axes[0][-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("grid", [GridSpec((4, 7, 5), (0.3, -1.2, 2.0), 0.037),
                                      GridSpec((6, 3), (-0.5, 0.25), 0.3)],
                             ids=["3d", "2d"])
    def test_points_match_meshgrid(self, grid):
        mesh = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)
        assert np.array_equal(grid.points(), mesh)
        assert np.array_equal(grid.plane_points(1, 3), mesh[1:3])

    def test_refine_preserves_extent(self):
        g = unit_grid(9)
        f = g.refine()
        assert f.shape == (17, 17, 17)
        assert f.spacing == g.spacing / 2
        assert f.axes()[0][-1] == pytest.approx(g.axes()[0][-1])

    def test_dim_must_be_2_or_3(self):
        with pytest.raises(DimensionMismatch):
            GridSpec((4,), (0.0,), 0.1)
        with pytest.raises(DimensionMismatch):
            GridSpec((4, 4, 4, 4), (0.0,) * 4, 0.1)

    def test_point_cap(self):
        with pytest.raises(ValueError):
            GridSpec((4096, 4096, 4096), (0.0, 0.0, 0.0), 0.1)

    @pytest.mark.parametrize("origin, spacing", [
        ((0.0, 0.0, 0.0), math.nan), ((0.0, 0.0, 0.0), math.inf),
        ((0.0, 0.0, 0.0), -math.inf), ((0.0, math.nan, 0.0), 0.1),
        ((0.0, 0.0, -math.inf), 0.1)],
        ids=["nan-spacing", "inf-spacing", "minus-inf-spacing", "nan-origin",
             "inf-origin"])
    def test_non_finite_geometry_refused(self, origin, spacing):
        with pytest.raises(ValueError, match="finite"):
            GridSpec((3, 3, 3), origin, spacing)

    def test_point_cap_is_typed(self):
        with pytest.raises(GridTooLarge):
            GridSpec((257,) * 3, (0.0,) * 3, 1.0 / 256)

    def test_point_count_does_not_wrap(self):
        # 2**64 points: an int64 product wraps to 0 and would pass the cap
        with pytest.raises(GridTooLarge):
            GridSpec((2 ** 32, 2 ** 32, 1), (0.0,) * 3, 1.0)

    def test_face_grid(self):
        g = unit_grid(5)
        f = g.face(-1)
        assert f.shape == (5, 5) and f.dim == 2


# each field type with its component shape on a 3d grid
FIELD_TYPES = pytest.mark.parametrize(
    "cls, components", [(VectorField, (3,)), (CoefficientTensorField, (3, 3, 3))],
    ids=["VectorField", "CoefficientTensorField"])


class TestFieldValidation:
    @FIELD_TYPES
    def test_vector_field_shape(self, cls, components):
        g = unit_grid(4)
        with pytest.raises(ValueError):
            cls(g, np.zeros((4, 4) + components))

    @FIELD_TYPES
    def test_rejects_nan(self, cls, components):
        g = unit_grid(4)
        vals = np.zeros(g.shape + components)
        vals[(0,) * vals.ndim] = np.inf
        with pytest.raises(ValueError):
            cls(g, vals)

    def test_matrix_constant(self):
        g = unit_grid(4)
        m = MatrixField.constant(g, np.eye(3))
        assert m.values.shape == g.shape + (3, 3)


class TestFdGrad:
    @pytest.mark.parametrize("shape", [(7, 11), (5, 6, 7)], ids=["2d", "3d"])
    def test_equals_componentwise_gradient_bit_for_bit(self, shape):
        dim = len(shape)
        g = GridSpec(shape, (0.3, -0.2, 0.1)[:dim], 0.17)
        values = np.random.default_rng(8).uniform(-1, 1, shape + (dim,))
        got = fd_grad(VectorField(g, values)).values
        for i in range(dim):
            expected = np.gradient(values[..., i], g.spacing, edge_order=2)
            for j in range(dim):
                assert np.array_equal(got[..., i, j], expected[j])

    def test_affine_exact(self):
        g = unit_grid(7)
        w = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, 1.0], [2.0, 2.0, -1.0]])
        b = np.array([0.3, -0.1, 0.7])
        f = VectorField(g, np.einsum("ij,...j->...i", w, g.points()) + b)
        grad = fd_grad(f)
        assert np.max(np.abs(grad.values - w)) <= 1e-13

    def test_quadratic_interior_exact(self):
        g = unit_grid(9)
        pts = g.points()
        vals = np.zeros(g.shape + (3,))
        vals[..., 0] = pts[..., 0] ** 2
        grad = fd_grad(VectorField(g, vals))
        inner = g.interior()
        expected = 2.0 * pts[..., 0]
        assert np.max(np.abs(grad.values[inner][..., 0, 0] - expected[inner])) <= 1e-13

    def test_trig_second_order(self):
        case = analytic.random_trig_vector(0, wavenumber=2.0)

        def err(grid):
            grad = fd_grad(case.sample(grid))
            exact = case.sample_jacobian(grid)
            inner = grid.interior()
            return np.max(np.abs(grad.values[inner] - exact.values[inner]))

        report = refinement_errors(err, unit_grid(9), levels=3)
        assert report.min_order >= 1.9

    def test_too_small_grid(self):
        g = GridSpec((2, 4, 4), (0.0,) * 3, 0.1)
        with pytest.raises(GridTooSmall):
            fd_grad(VectorField.zeros(g, 3))

    def test_component_count_must_match(self):
        g = unit_grid(4)
        with pytest.raises(DimensionMismatch):
            fd_grad(VectorField.zeros(g, 2))

    def test_linearity(self):
        g = unit_grid(6)
        rng = np.random.default_rng(0)
        f1 = VectorField(g, rng.uniform(-1, 1, g.shape + (3,)))
        f2 = VectorField(g, rng.uniform(-1, 1, g.shape + (3,)))
        combo = VectorField(g, 2.0 * f1.values - 0.5 * f2.values)
        lhs = fd_grad(combo).values
        rhs = 2.0 * fd_grad(f1).values - 0.5 * fd_grad(f2).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-13


class TestFdCurl:
    def test_curl_of_gradient_vanishes(self):
        g = unit_grid(9)
        u = analytic.random_polynomial_vector(1, per_axis_degree=2, total_degree=2)
        curl = fd_curl_rowwise(fd_grad(u.sample(g)))
        inner = g.interior()
        assert np.max(np.abs(curl.values[inner])) <= 1e-12

    def test_constant_is_zero(self):
        g = unit_grid(5)
        m = MatrixField.constant(g, np.arange(9.0).reshape(3, 3))
        assert np.array_equal(fd_curl_rowwise(m).values, np.zeros(g.shape + (3, 3)))

    def test_hand_evaluated_row(self):
        # first row (0, 0, x2): curl = (d2 x2 - d3 0, d3 0 - d1 x2, d1 0 - d2 0)
        g = unit_grid(5)
        pts = g.points()
        vals = np.zeros(g.shape + (3, 3))
        vals[..., 0, 2] = pts[..., 1]
        curl = fd_curl_rowwise(MatrixField(g, vals))
        expected_row = np.array([1.0, 0.0, 0.0])
        assert np.max(np.abs(curl.values[..., 0, :] - expected_row)) <= 1e-13
        assert np.max(np.abs(curl.values[..., 1:, :])) <= 1e-13

    def test_requires_3d(self):
        g = GridSpec((5, 5), (0.0, 0.0), 0.1)
        with pytest.raises(DimensionMismatch):
            fd_curl_rowwise(MatrixField.constant(g, np.eye(2)))

    def test_matches_curl_row_fed_all_nine_derivatives(self):
        g = GridSpec((7, 9, 8), (0.0,) * 3, 0.125)
        m = analytic.random_trig_matrix(3, wavenumber=2.0).sample(g)
        expected = np.stack([algebra.curl_row(
            [[np.gradient(m.values[..., l, c], g.spacing, axis=j, edge_order=2)
              for j in range(3)] for c in range(3)]) for l in range(3)], axis=-2)
        assert np.array_equal(fd_curl_rowwise(m).values, expected)

    def test_curl_of_gradient_within_h_squared(self):
        # mixed difference operators commute exactly, so the residual sits at
        # roundoff, far below the h^2 budget the bound allows
        case = analytic.random_trig_vector(9, wavenumber=2.0)
        for n in (9, 17):
            g = unit_grid(n)
            curl = fd_curl_rowwise(fd_grad(case.sample(g)))
            residual = np.max(np.abs(curl.values[g.interior()]))
            assert residual <= 1e-12
            assert residual <= g.spacing ** 2

    def test_exact_on_per_axis_degree_one_polynomials(self):
        # second-order stencils, one-sided ones included, differentiate every
        # entry exactly, so the analytic curl is met at every point
        case = analytic.random_polynomial_matrix(4, per_axis_degree=1)
        g = unit_grid(6)
        curl = fd_curl_rowwise(case.sample(g))
        assert np.max(np.abs(curl.values - case.curl(g.points()))) <= 1e-12

    def test_converges_to_the_analytic_curl_at_second_order(self):
        case = analytic.random_trig_matrix(5, wavenumber=2.0)

        def error(g):
            curl = fd_curl_rowwise(case.sample(g))
            return np.max(np.abs(curl.values - case.curl(g.points())))

        report = refinement_errors(error, unit_grid(9), levels=2)
        assert 1.9 <= report.min_order <= 2.1


class TestEntryGradients:
    def test_matches_componentwise_gradient(self):
        g = unit_grid(6)
        case = analytic.random_polynomial_matrix(2, per_axis_degree=1)
        m = case.sample(g)
        grads = entry_gradients(m)
        exact = case.entry_jacobian(g.points())
        assert np.max(np.abs(grads - exact)) <= 1e-12


class TestCentralDifference:
    @pytest.mark.parametrize("trailing", [(), (3, 3)], ids=["scalar", "matrix"])
    def test_equals_gradient_interior_bit_for_bit(self, trailing):
        g = GridSpec((5, 7, 9), (0.1, -0.3, 0.2), 0.17)
        values = np.random.default_rng(4).uniform(-1, 1, g.shape + trailing)
        for axis in range(3):
            expected = np.gradient(values, g.spacing, axis=axis, edge_order=2)
            got = fields._central(values, g.spacing, axis)
            assert got.shape == (3, 5, 7) + trailing
            assert np.array_equal(got, expected[g.interior()])


class _PlaneCounter:
    """A lazy field that records which axis-0 planes it is asked for."""

    def __init__(self, lazy):
        self.lazy = lazy
        self.grid = lazy.grid
        self.sampled = []

    def sample_planes(self, start, stop):
        self.sampled.extend(range(start, stop))
        return self.lazy.sample_planes(start, stop)


def _single_pass_gap(x, y):
    """The discrepancy from whole-grid differences and one pointwise call."""
    inner = x.grid.interior()
    lhs = fd_curl_rowwise(MatrixField(x.grid, x.values @ y.values))
    rhs = algebra.curl_product_pointwise(
        entry_gradients(x)[inner], x.values[inner], y.values[inner],
        fd_curl_rowwise(y).values[inner])
    return float(np.max(np.abs(lhs.values[inner] - rhs)))


class TestVerifyCurlProduct:
    def test_constant_skew_times_identity(self):
        g = unit_grid(5)
        x = MatrixField.constant(g, np.array([[0, -1, 2], [1, 0, -3], [-2, 3, 0.0]]))
        y = MatrixField.constant(g, np.eye(3))
        assert curl_product_discrepancy(x, y) <= 1e-14

    def test_quadratic_polynomials(self):
        g = unit_grid(9)
        x = analytic.random_polynomial_matrix(3, per_axis_degree=1)
        y = analytic.random_polynomial_matrix(4, per_axis_degree=1)
        assert curl_product_discrepancy(x.sample(g), y.sample(g)) <= 1e-10

    def test_trigonometric_order(self):
        x = analytic.random_trig_matrix(5, wavenumber=2.0)
        y = analytic.random_trig_matrix(6, wavenumber=2.0)

        def err(grid):
            return curl_product_discrepancy(x.sample(grid), y.sample(grid))

        report = refinement_errors(err, unit_grid(9), levels=3)
        assert report.min_order >= 1.9

    def test_slabs_match_single_pass(self):
        g = unit_grid(33)
        # the 31 interior planes do not fit in one slab
        assert fields._SLAB_POINTS // (33 * 33) < 31
        x = analytic.random_trig_matrix(11, wavenumber=2.0).sample(g)
        y = analytic.random_trig_matrix(12, wavenumber=2.0).sample(g)
        assert curl_product_discrepancy(x, y) == _single_pass_gap(x, y)

    def test_lazy_families_match_fields_and_single_pass(self):
        g = unit_grid(33)
        x_case = analytic.random_trig_matrix(11, wavenumber=2.0)
        y_case = analytic.random_trig_matrix(12, wavenumber=2.0)
        x, y = x_case.sample(g), y_case.sample(g)
        lazy = curl_product_discrepancy(analytic.LazyMatrixSample(x_case, g),
                                        analytic.LazyMatrixSample(y_case, g))
        assert lazy == curl_product_discrepancy(x, y) == _single_pass_gap(x, y)

    @pytest.mark.parametrize("shape", [(3, 5, 7), (9, 5, 5), (10, 65, 65)],
                             ids=["fd-curl-one-plane", "fd-curl-one-slab",
                                  "fd-curl-last-slab-one-plane"])
    def test_equals_single_pass(self, shape):
        g = GridSpec(shape, (0.2, -0.1, 0.3), 0.05)
        x = analytic.random_trig_matrix(15, wavenumber=2.0).sample(g)
        y = analytic.random_trig_matrix(16, wavenumber=2.0).sample(g)
        assert curl_product_discrepancy(x, y) == _single_pass_gap(x, y)

    def test_last_slab_holds_one_plane(self):
        # the (10, 65, 65) case above: 8 interior planes in slabs of 7
        assert (10 - 2) % (fields._SLAB_POINTS // (65 * 65)) == 1

    def test_each_plane_sampled_once(self):
        g = unit_grid(65)
        x = _PlaneCounter(analytic.LazyMatrixSample(analytic.random_trig_matrix(17), g))
        y = _PlaneCounter(analytic.LazyMatrixSample(analytic.random_trig_matrix(18), g))
        assert fields._SLAB_POINTS // (65 * 65) < 63  # several slabs
        curl_product_discrepancy(x, y)
        assert sorted(x.sampled) == list(range(65))
        assert sorted(y.sampled) == list(range(65))

    def test_differences_interior_points_only(self, monkeypatch):
        # np.gradient would also difference the halo planes and the grid edges
        def refuse(*args, **kwargs):
            raise AssertionError("np.gradient called")

        g = unit_grid(9)
        x_case = analytic.random_trig_matrix(19, wavenumber=2.0)
        y_case = analytic.random_trig_matrix(20, wavenumber=2.0)
        x, y = x_case.sample(g), y_case.sample(g)
        monkeypatch.setattr(fields.np, "gradient", refuse)
        assert np.isfinite(curl_product_discrepancy(x, y))
        assert np.isfinite(curl_product_discrepancy(
            analytic.LazyMatrixSample(x_case, g), analytic.LazyMatrixSample(y_case, g)))

    def test_peak_memory_bounded_by_slab(self):
        x_case = analytic.random_trig_matrix(13, wavenumber=2.0)
        y_case = analytic.random_trig_matrix(14, wavenumber=2.0)
        peaks = []
        for n in (33, 65):
            g = unit_grid(n)
            tracemalloc.start()
            try:
                curl_product_discrepancy(analytic.LazyMatrixSample(x_case, g),
                                         analytic.LazyMatrixSample(y_case, g))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # 7.6x the points; a whole-grid pass grows its peak about 5x
        assert peaks[1] <= 1.25 * peaks[0]

    def test_peak_memory_per_point(self):
        # per-point 9x9 operators took about 3.2 KB per grid point
        g = unit_grid(33)
        x = analytic.random_trig_matrix(13, wavenumber=2.0).sample(g)
        y = analytic.random_trig_matrix(14, wavenumber=2.0).sample(g)
        tracemalloc.start()
        try:
            curl_product_discrepancy(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1024 * g.num_points

    def test_grid_mismatch(self):
        x = MatrixField.constant(unit_grid(5), np.eye(3))
        y = MatrixField.constant(unit_grid(6), np.eye(3))
        with pytest.raises(DimensionMismatch):
            curl_product_discrepancy(x, y)


class _SampleError(RuntimeError):
    pass


class _SampleAbort(BaseException):
    pass


class _FailingRange:
    """A lazy field whose sample_planes raises on ranges that reach one plane."""

    def __init__(self, lazy, plane, error=_SampleError):
        self.lazy = lazy
        self.grid = lazy.grid
        self.plane = plane
        self.error = error

    def sample_planes(self, start, stop):
        if start <= self.plane < stop:
            raise self.error(f"plane {self.plane}")
        return self.lazy.sample_planes(start, stop)


def _force_cpus(monkeypatch, count):
    monkeypatch.setattr(fields, "_usable_cpus", lambda: count)


class TestPartedCheck:
    """The interior planes split into one part per usable CPU."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(3, 5, 7), (9, 5, 5), (10, 65, 65), (40, 33, 29)],
                             ids=["fd-curl-one-plane", "fd-curl-one-slab",
                                  "fd-curl-last-slab-one-plane", "fd-curl-many-slabs"])
    def test_equals_single_pass_for_every_part_count(self, monkeypatch, cpus, shape):
        _force_cpus(monkeypatch, cpus)
        g = GridSpec(shape, (0.2, -0.1, 0.3), 0.05)
        x = analytic.random_trig_matrix(15, wavenumber=2.0).sample(g)
        y = analytic.random_trig_matrix(16, wavenumber=2.0).sample(g)
        assert curl_product_discrepancy(x, y) == _single_pass_gap(x, y)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_every_plane_sampled_once_for_every_split(self, monkeypatch, cpus):
        # slabs of one to four planes, so parts end in one-plane slabs too
        _force_cpus(monkeypatch, cpus)
        x_case = analytic.random_trig_matrix(21, wavenumber=2.0)
        y_case = analytic.random_trig_matrix(22, wavenumber=2.0)
        for n in range(3, 21):
            g = GridSpec((n, 5, 4), (0.2, -0.1, 0.3), 0.05)
            x, y = x_case.sample(g), y_case.sample(g)
            single = _single_pass_gap(x, y)
            for slab_points in (20, 40, 60, 80):
                monkeypatch.setattr(fields, "_SLAB_POINTS", slab_points * cpus)
                xc, yc = _PlaneCounter(x), _PlaneCounter(y)
                assert curl_product_discrepancy(xc, yc) == single
                assert sorted(xc.sampled) == sorted(yc.sampled) == list(range(n))

    @pytest.mark.parametrize("cpus, threads", [(1, 0), (2, 1), (3, 2), (64, 5)])
    def test_threads_started(self, monkeypatch, cpus, threads):
        # the caller runs the first part; 38^2-point planes give a serial slab
        # of 22 + 2 planes, and each part's slabs hold four planes at least
        started = []

        class Recording(fields.threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        _force_cpus(monkeypatch, cpus)
        monkeypatch.setattr(fields.threading, "Thread", Recording)
        g = unit_grid(38)
        x = _PlaneCounter(analytic.LazyMatrixSample(analytic.random_trig_matrix(17), g))
        y = _PlaneCounter(analytic.LazyMatrixSample(analytic.random_trig_matrix(18), g))
        curl_product_discrepancy(x, y)
        assert len(started) == threads
        assert sorted(x.sampled) == sorted(y.sampled) == list(range(38))

    @pytest.mark.parametrize("cpus, plane", [(2, 3), (2, 30), (3, 20), (3, 16)],
                             ids=["caller-part", "worker-part", "cut", "middle-part"])
    @pytest.mark.parametrize("error", [_SampleError, _SampleAbort])
    def test_failure_raises_in_caller_after_joining(self, monkeypatch, cpus, plane,
                                                    error):
        _force_cpus(monkeypatch, cpus)
        g = unit_grid(33)
        x = analytic.LazyMatrixSample(analytic.random_trig_matrix(17), g)
        y = _FailingRange(analytic.LazyMatrixSample(analytic.random_trig_matrix(18), g),
                          plane, error)
        before = fields.threading.active_count()
        with pytest.raises(error):
            curl_product_discrepancy(x, y)
        assert fields.threading.active_count() == before

    @pytest.mark.parametrize("cpus", [2, 8, 64])
    def test_peak_memory_stays_one_serial_slab(self, monkeypatch, cpus):
        # the parts share the planes of one serial slab, halos included, so
        # the bounds of the serial memory tests hold for any CPU count
        x_case = analytic.random_trig_matrix(13, wavenumber=2.0)
        y_case = analytic.random_trig_matrix(14, wavenumber=2.0)

        def peak(x, y):
            # the parts run in turn, each from a reset peak, and their peak
            # growths are summed: the peak if every part held its largest
            # working set at once, so the figure does not hang on how the
            # thread scheduler overlaps them
            worst = []

            def in_turn(fn, args_list):
                held, before = tracemalloc.get_traced_memory()
                growth, results = 0, []
                for args in args_list:
                    start = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    results.append(fn(*args))
                    growth += tracemalloc.get_traced_memory()[1] - start
                worst.append(max(before, held + growth))
                return results

            monkeypatch.setattr(fields, "_in_threads", in_turn)
            tracemalloc.start()
            try:
                curl_product_discrepancy(x, y)
                return worst[0]
            finally:
                tracemalloc.stop()

        def lazy_peaks():
            return [peak(analytic.LazyMatrixSample(x_case, unit_grid(n)),
                         analytic.LazyMatrixSample(y_case, unit_grid(n)))
                    for n in (33, 65)]

        _force_cpus(monkeypatch, 1)
        serial = lazy_peaks()
        _force_cpus(monkeypatch, cpus)
        parted = lazy_peaks()
        assert parted[1] <= 1.25 * parted[0]
        assert parted[0] <= 1.1 * serial[0] and parted[1] <= 1.1 * serial[1]
        g = unit_grid(33)
        assert peak(x_case.sample(g), y_case.sample(g)) <= 1024 * g.num_points


class TestConvergenceReport:
    def test_orders(self):
        rep = ConvergenceReport((0.2, 0.1), (4e-2, 1e-2))
        assert rep.orders[0] == pytest.approx(2.0)
        assert rep.min_order == pytest.approx(2.0)

    def test_requires_factor_two(self):
        with pytest.raises(ValueError):
            ConvergenceReport((0.2, 0.15), (1.0, 0.5))

    def test_refinement_errors_driver(self):
        rep = refinement_errors(lambda g: g.spacing ** 2, unit_grid(5), levels=3)
        assert rep.min_order == pytest.approx(2.0)

    def test_oversized_last_level_refused_before_any_work(self):
        calls = []
        base = unit_grid(161)  # refines to 321^3, above the cap
        assert base.num_points <= POINT_CAP < 321 ** 3
        with pytest.raises(GridTooLarge):
            refinement_errors(calls.append, base, levels=2)
        assert calls == []


class TestMakeAnalyticField:
    def test_polynomial_degree_zero_constant(self):
        case = analytic.PolynomialField(np.full((3, 3, 1), 2.0),
                                        np.zeros((1, 3), dtype=int))
        g = unit_grid(4)
        assert np.array_equal(case.sample(g).values,
                              np.full(g.shape + (3, 3), 2.0))

    def test_rotation_valued_in_so3(self):
        case = analytic.RotationMatrixField(axis=(1.0, 1.0, 0.5), base=0.3,
                                            lin=(0.7, 0.2, -0.4))
        g = unit_grid(5)
        values = case.sample(g).values
        dets = np.linalg.det(values)
        assert np.max(np.abs(dets - 1.0)) <= 1e-14
        gram = np.swapaxes(values, -1, -2) @ values
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-13

    @pytest.mark.parametrize("axis, unit", [([1e200, 1e200, 0.0], [1.0, 1.0, 0.0]),
                                            ([0.0, 0.0, 1e-300], [0.0, 0.0, 1.0])],
                             ids=["huge", "tiny"])
    def test_rotation_axis_of_any_scale(self, axis, unit):
        # the norm of the axis must neither overflow nor underflow
        keywords = dict(base=0.3, lin=(0.7, 0.2, -0.4), amp=0.2, freq=(1.0, 0.5, 0.0))
        points = unit_grid(4).points()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            case = analytic.RotationMatrixField(axis=axis, **keywords)
            value, jacobian = case.value(points), case.jacobian(points)
        oracle = analytic.RotationMatrixField(axis=unit, **keywords)
        assert np.max(np.abs(value - oracle.value(points))) <= 1e-15
        assert np.max(np.abs(jacobian - oracle.jacobian(points))) <= 1e-15

    def test_rotation_matches_rodrigues_oracle(self):
        axis = np.array([1.0, 2.0, 2.0]) / 3.0
        case = analytic.RotationMatrixField(axis=axis, base=0.0, lin=(1.0, 0.0, 0.0))
        theta = 0.55
        point = np.array([theta, 0.2, -0.3])
        k = np.array([[0, -axis[2], axis[1]],
                      [axis[2], 0, -axis[0]],
                      [-axis[1], axis[0], 0]])
        rodrigues = np.eye(3) + np.sin(theta) * k + (1 - np.cos(theta)) * (k @ k)
        assert case.value(point) == pytest.approx(rodrigues, abs=1e-14)

    @pytest.mark.parametrize("lead", [(3, 3), (3,)], ids=["matrix", "vector"])
    def test_trig_value_matches_formula(self, lead):
        maker = analytic.random_trig_matrix if lead == (3, 3) else analytic.random_trig_vector
        case = maker(9, wavenumber=2.0)
        points = GridSpec((5, 4, 6), (0.2, -0.1, 0.4), 0.13).points()
        sub = "rcj,...j->...rc" if lead == (3, 3) else "cj,...j->...c"
        arg = np.einsum(sub, case.wave, points) + case.phase
        assert np.array_equal(case.value(points), case.amplitude * np.sin(arg))

    def test_trig_sample_peak_memory(self):
        g = unit_grid(65)
        case = analytic.random_trig_matrix(3)
        tracemalloc.start()
        try:
            values = case.sample(g).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output plus the points; each whole-size temporary adds 1x
        assert peak <= 1.5 * values.nbytes

    def test_trig_zero_amplitude(self):
        case = analytic.TrigField(np.zeros((3, 3)),
                                  np.ones((3, 3, 3)), np.zeros((3, 3)))
        g = unit_grid(4)
        assert np.array_equal(case.sample(g).values, np.zeros(g.shape + (3, 3)))

    @pytest.mark.parametrize("seed", range(5))
    def test_matrix_trig_rows_are_vector_trig_fields(self, seed):
        case = analytic.random_trig_matrix(seed, wavenumber=2.0)
        points = GridSpec((5, 4, 6), (0.2, -0.1, 0.4), 0.13).points()
        for i in range(3):
            row = analytic.TrigField(case.amplitude[i], case.wave[i], case.phase[i])
            assert np.array_equal(case.value(points)[..., i, :], row.value(points))
            assert np.array_equal(case.jacobian(points)[..., i, :, :],
                                  row.jacobian(points))

    @pytest.mark.parametrize("seed", range(5))
    def test_matrix_polynomial_rows_are_vector_polynomial_fields(self, seed):
        case = analytic.random_polynomial_matrix(seed, per_axis_degree=2)
        points = GridSpec((5, 4, 6), (0.2, -0.1, 0.4), 0.13).points()
        for i in range(3):
            row = analytic.PolynomialField(case.coeffs[i], case.exponents)
            assert np.array_equal(case.value(points)[..., i, :], row.value(points))
            assert np.array_equal(case.jacobian(points)[..., i, :, :],
                                  row.jacobian(points))

    def test_sample_type_follows_the_value_shape(self):
        g = unit_grid(4)
        vector = analytic.random_trig_vector(1).sample(g)
        matrix = analytic.random_trig_matrix(1).sample(g)
        assert type(vector) is VectorField and vector.values.shape == g.shape + (3,)
        assert type(matrix) is MatrixField and matrix.values.shape == g.shape + (3, 3)

    def test_entry_jacobian_consistent_with_fd(self):
        case = analytic.RotationMatrixField(axis=(0.0, 0.0, 1.0), base=0.1,
                                            lin=(0.5, 0.3, 0.0), amp=0.2,
                                            freq=(1.0, 0.5, 0.0))

        def err(grid):
            m = case.sample(grid)
            inner = grid.interior()
            got = entry_gradients(m)[inner]
            exact = case.entry_jacobian(grid.points())[inner]
            return np.max(np.abs(got - exact))

        report = refinement_errors(err, unit_grid(9), levels=2)
        assert report.min_order >= 1.9
