"""Line integration, Gronwall envelopes, cube propagation, flood covering."""

import math

import numpy as np
import pytest
from scipy import ndimage

from korn_kit import transport
from korn_kit.errors import (DisconnectedDomain, DimensionMismatch, FaceMismatch,
                             NonFiniteCoefficient, NotIntegrable,
                             SeedOutsideDomain)
from korn_kit.fields import GridSpec, VectorField
from korn_kit.transport import (CoefficientTensorField, LineCoefficient,
                                counterexample_demo, cover, flood_propagate,
                                gronwall_bound, integrate_line, integrate_norm,
                                propagate_cube, system_residual)
from reference_covering import reference_flood


def bounded_coefficient(seed, dim=3, interval=(0.0, 1.0)):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (dim, dim))
    b = rng.uniform(-1, 1, (dim, dim))
    omega = rng.uniform(0.5, 3.0)
    return LineCoefficient(lambda t: a + b * math.sin(omega * t), interval, dim)


class TestIntegrateLine:
    def test_zero_coefficient_is_constant(self):
        coef = LineCoefficient.constant(np.zeros((3, 3)), (0.0, 2.0))
        traj = integrate_line(coef, [1.0, -2.0, 0.5], 50)
        assert np.array_equal(traj.values, np.tile([1.0, -2.0, 0.5], (51, 1)))

    def test_scalar_exponential_oracle(self):
        c = 0.8
        coef = LineCoefficient.constant([[c]], (0.0, 1.5))
        traj = integrate_line(coef, [2.0], 1000)
        exact = 2.0 * math.exp(c * 1.5)
        assert abs(traj.final_value[0] - exact) / exact <= 1e-8

    def test_one_over_t_identity_solution(self):
        eps = 1e-3
        coef = LineCoefficient(lambda t: np.array([[1.0 / t]]), (eps, 1.0), 1)
        traj = integrate_line(coef, [eps], 1000)
        assert abs(traj.final_value[0] - 1.0) <= 1e-6

    def test_error_estimate_reflects_accuracy(self):
        coef = bounded_coefficient(0)
        traj = integrate_line(coef, [1.0, 0.0, 0.0], 200)
        assert traj.final_error <= 1e-8
        assert traj.error_estimates[0] == 0.0

    def test_steps_validation(self):
        coef = LineCoefficient.constant(np.zeros((2, 2)), (0.0, 1.0))
        with pytest.raises(ValueError):
            integrate_line(coef, [0.0, 0.0], 1)

    def test_non_finite_sample(self):
        def sampler(t):
            return np.array([[np.inf if abs(t - 0.5) < 1e-12 else 1.0 / (t - 0.5)]])

        coef = LineCoefficient(sampler, (0.0, 1.0), 1)
        with pytest.raises(NonFiniteCoefficient):
            integrate_line(coef, [1.0], 10)

    def test_dimension_checks(self):
        coef = LineCoefficient.constant(np.zeros((3, 3)), (0.0, 1.0))
        with pytest.raises(DimensionMismatch):
            integrate_line(coef, [1.0], 10)


class TestQuadratureAndGronwall:
    def test_constant_norm(self):
        value, divergent = integrate_norm(lambda t: 2.5, 0.0, 2.0)
        assert not divergent
        assert value == pytest.approx(5.0, rel=1e-12)

    def test_integrable_singularity(self):
        value, divergent = integrate_norm(lambda t: t ** -0.5, 0.0, 1.0)
        assert not divergent
        assert value == pytest.approx(2.0, rel=1e-5)

    def test_one_over_t_diverges(self):
        _, divergent = integrate_norm(lambda t: 1.0 / t, 0.0, 1.0)
        assert divergent

    def test_value_cap(self):
        _, divergent = integrate_norm(lambda t: 1e7, 0.0, 1.0)
        assert divergent

    def test_bound_zero_initial_norm(self):
        coef = bounded_coefficient(1)
        bound = gronwall_bound(coef, 0.0)
        assert bound(0.5) == 0.0
        assert bound(1.0) == 0.0

    def test_bound_zero_coefficient(self):
        coef = LineCoefficient.constant(np.zeros((2, 2)), (0.0, 1.0))
        bound = gronwall_bound(coef, 3.0)
        assert bound(1.0) == pytest.approx(3.0)

    def test_bound_closed_form(self):
        coef = LineCoefficient.constant([[0.7]], (0.0, 1.0))
        bound = gronwall_bound(coef, 2.0)
        assert bound(1.0) == pytest.approx(2.0 * math.exp(0.7), rel=1e-9)

    def test_not_integrable_raises(self):
        coef = LineCoefficient(lambda t: np.array([[1.0 / t]]), (0.0, 1.0), 1)
        bound = gronwall_bound(coef, 1.0)
        with pytest.raises(NotIntegrable):
            bound(1.0)

    def test_bound_at_start_is_initial_norm(self):
        coef = bounded_coefficient(2, interval=(0.25, 1.0))
        assert gronwall_bound(coef, 1.5)(0.25) == 1.5
        assert gronwall_bound(coef, 0.0)(0.25) == 0.0

    @pytest.mark.parametrize("x", [0.25 - 1e-9, 1.0 + 1e-9, -1.0, 2.0])
    def test_bound_outside_interval_raises(self, x):
        bound = gronwall_bound(bounded_coefficient(3, interval=(0.25, 1.0)), 1.0)
        with pytest.raises(ValueError, match="outside"):
            bound(x)

    def test_negative_initial_norm_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            gronwall_bound(bounded_coefficient(4), -1e-12)

    def test_overflowing_envelope_is_inf(self):
        # int_0^1 |G| = 1000 is below the quadrature cap, exp(1000) overflows
        coef = LineCoefficient.constant([[1000.0]], (0.0, 1.0))
        assert gronwall_bound(coef, 1.0)(1.0) == math.inf
        assert gronwall_bound(coef, 0.0)(1.0) == 0.0

    def test_integrability_report_truncated_oracle(self):
        eps = 1e-3
        coef = LineCoefficient(
            lambda t: np.array([[1.0 / max(t, eps)]]), (0.0, 1.0), 1)
        estimate, divergent = integrate_norm(coef.norm_at, *coef.interval)
        exact = 1.0 + math.log(1.0 / eps)
        assert not divergent
        assert estimate == pytest.approx(exact, rel=1e-6)

    def test_trajectory_respects_envelope(self):
        for seed in range(5):
            coef = bounded_coefficient(seed)
            z0 = np.array([1.0, -0.5, 0.25])
            traj = integrate_line(coef, z0, 400)
            bound = gronwall_bound(coef, float(np.max(np.abs(z0))))
            for t, z in zip(traj.times[::40], traj.values[::40]):
                assert np.max(np.abs(z)) <= bound(float(t)) * (1.0 + 1e-6)


def exponential_setup(shape=(7, 7, 13), spacing=1.0 / 12):
    grid = GridSpec(shape, (0.0, 0.0, 0.0), spacing)
    tensor = np.zeros((3, 3, 3))
    for i in range(3):
        tensor[i, 2, i] = 1.0
    coef = CoefficientTensorField.constant(grid, tensor)
    value = np.array([1.0, 0.5, -0.25])
    face = VectorField(grid.face(-1),
                       np.broadcast_to(value, grid.face(-1).shape + (3,)).copy())
    pts = grid.points()
    exact = np.exp(pts[..., 2])[..., None] * value
    return grid, coef, face, exact


class TestPropagateCube:
    def test_zero_coefficient_constant_face(self):
        grid = GridSpec((5, 5, 6), (0.0,) * 3, 0.2)
        coef = CoefficientTensorField.zeros(grid)
        c = np.array([2.0, -1.0, 0.5])
        face = VectorField(grid.face(-1),
                           np.broadcast_to(c, grid.face(-1).shape + (3,)).copy())
        out = propagate_cube(coef, face, 30)
        assert np.max(np.abs(out.values - c)) == 0.0

    def test_zero_face_bounded_coefficient(self):
        grid = GridSpec((6, 6, 9), (0.0,) * 3, 0.125)
        rng = np.random.default_rng(2)
        coef = CoefficientTensorField(grid, rng.uniform(-1, 1, grid.shape + (3, 3, 3)))
        out = propagate_cube(coef, VectorField.zeros(grid.face(-1), 3), 100)
        assert out.max_norm() <= 1e-10

    def test_manufactured_exponential(self):
        grid, coef, face, exact = exponential_setup()
        out = propagate_cube(coef, face, 200)
        assert np.max(np.abs(out.values - exact)) <= 1e-6

    def test_linearity(self):
        grid = GridSpec((5, 5, 7), (0.0,) * 3, 0.2)
        rng = np.random.default_rng(3)
        coef = CoefficientTensorField(grid, rng.uniform(-1, 1, grid.shape + (3, 3, 3)))
        face_grid = grid.face(-1)
        d1 = VectorField(face_grid, rng.uniform(-1, 1, face_grid.shape + (3,)))
        d2 = VectorField(face_grid, rng.uniform(-1, 1, face_grid.shape + (3,)))
        combo = VectorField(face_grid, 1.5 * d1.values - 0.75 * d2.values)
        lhs = propagate_cube(coef, combo, 60).values
        rhs = (1.5 * propagate_cube(coef, d1, 60).values
               - 0.75 * propagate_cube(coef, d2, 60).values)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_face_mismatch(self):
        grid = GridSpec((5, 5, 6), (0.0,) * 3, 0.2)
        coef = CoefficientTensorField.zeros(grid)
        wrong = VectorField.zeros(GridSpec((4, 5), (0.0, 0.0), 0.2), 3)
        with pytest.raises(FaceMismatch):
            propagate_cube(coef, wrong, 10)

    def test_line_matches_integrate_line(self):
        # both run the same RK4 stepper: batched over lines, and on one line
        grid = GridSpec((3, 4, 9), (0.0,) * 3, 0.125)
        rng = np.random.default_rng(4)
        tensor = rng.uniform(-1, 1, (3, 3, 3))
        coef = CoefficientTensorField.constant(grid, tensor)
        face_grid = grid.face(-1)
        face = VectorField(face_grid, rng.uniform(-1, 1, face_grid.shape + (3,)))
        cube = propagate_cube(coef, face, 40)  # 5 substeps per cell, 40 in all
        line = LineCoefficient.constant(tensor[:, 2, :], (0.0, 1.0))
        traj = integrate_line(line, face.values[2, 1], 40)
        expected = traj.values[::5]
        got = cube.values[2, 1]
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_two_dimensional_grid(self):
        grid = GridSpec((7, 13), (0.0, 0.0), 1.0 / 12)
        tensor = np.zeros((2, 2, 2))
        for i in range(2):
            tensor[i, 1, i] = 1.0  # grad(zeta) = zeta e_1^T
        coef = CoefficientTensorField.constant(grid, tensor)
        face = VectorField(GridSpec((7, 1), (0.0, 0.0), 1.0 / 12),
                           np.ones((7, 1, 2)))
        out = propagate_cube(coef, face, 100)
        pts = grid.points()
        exact = np.exp(pts[..., 1])[..., None] * np.ones(2)
        assert np.max(np.abs(out.values - exact)) <= 1e-6
        assert system_residual(out, coef, tol=1e-2).passed


class TestSystemResidual:
    def test_zero_field(self):
        grid = GridSpec((5, 5, 5), (0.0,) * 3, 0.2)
        rng = np.random.default_rng(4)
        coef = CoefficientTensorField(grid, rng.uniform(-1, 1, grid.shape + (3, 3, 3)))
        report = system_residual(VectorField.zeros(grid, 3), coef)
        assert report.max_norm == 0.0
        assert report.passed

    def test_manufactured_solution_second_order(self):
        errs = []
        for shape, spacing in (((7, 7, 9), 0.125), ((13, 13, 17), 0.0625)):
            grid, coef, face, exact = exponential_setup(shape, spacing)
            report = system_residual(VectorField(grid, exact), coef, tol=1.0)
            errs.append(report.max_norm)
        assert math.log2(errs[0] / errs[1]) >= 1.9

    def test_incompatible_coefficient_fails(self):
        grid, coef, face, exact = exponential_setup()
        zeta = propagate_cube(coef, face, 200)
        rng = np.random.default_rng(5)
        bad = CoefficientTensorField(grid, 2.0 + rng.uniform(-1, 1, grid.shape + (3, 3, 3)))
        report = system_residual(zeta, bad, tol=1e-6)
        assert not report.passed
        assert max(report.per_axis[:2]) > 1e-2


class TestFloodPropagate:
    def setup_method(self):
        self.grid = GridSpec((13, 13, 7), (0.0,) * 3, 0.125)
        rng = np.random.default_rng(6)
        self.coef = CoefficientTensorField(
            self.grid, rng.uniform(-1, 1, self.grid.shape + (3, 3, 3)))
        self.zero = VectorField.zeros(self.grid, 3)

    def seed_slab(self, axis=0, thickness=2):
        mask = np.zeros(self.grid.shape, dtype=bool)
        sl = [slice(None)] * 3
        sl[axis] = slice(0, thickness)
        mask[tuple(sl)] = True
        return mask

    def test_single_cuboid_domain(self):
        domain = np.ones(self.grid.shape, dtype=bool)
        report = flood_propagate(domain, self.seed_slab(), self.coef, self.zero)
        assert report.passed
        assert report.n_cuboids == 1
        assert report.covered_fraction == 1.0

    def test_l_shaped_domain_needs_two_cuboids(self):
        domain = np.zeros(self.grid.shape, dtype=bool)
        domain[:, :5, :] = True
        domain[:5, :, :] = True
        seed = self.seed_slab() & domain
        report = flood_propagate(domain, seed, self.coef, self.zero)
        assert report.passed
        assert report.n_cuboids >= 2
        assert report.covered_fraction == 1.0

    def test_nonzero_corner_fails_at_covering_cuboid(self):
        domain = np.ones(self.grid.shape, dtype=bool)
        vals = np.zeros(self.grid.shape + (3,))
        vals[-2:, -2:, -2:, :] = 1.0
        report = flood_propagate(domain, self.seed_slab(), self.coef,
                                 VectorField(self.grid, vals))
        assert not report.passed
        assert "failed" in report.reason
        bad = report.cuboids[-1]
        assert bad.zeta_max > report.tolerance

    def test_seed_must_be_inside(self):
        domain = np.zeros(self.grid.shape, dtype=bool)
        domain[:, :5, :] = True
        seed = np.zeros(self.grid.shape, dtype=bool)
        seed[:, 6, :] = True
        with pytest.raises(SeedOutsideDomain):
            flood_propagate(domain, seed, self.coef, self.zero)

    def test_disconnected_domain(self):
        domain = np.zeros(self.grid.shape, dtype=bool)
        domain[:4] = True
        domain[8:] = True
        with pytest.raises(DisconnectedDomain):
            flood_propagate(domain, self.seed_slab(), self.coef, self.zero)

    def test_disconnected_domain_message_gives_the_count(self):
        domain = np.zeros(self.grid.shape, dtype=bool)
        domain[:3] = True
        domain[5:7] = True
        domain[9:] = True
        # the seed lies in the first part: the other two hold (2 + 4) * 13 * 7 points
        with pytest.raises(DisconnectedDomain, match="^546 domain points are not reached"):
            flood_propagate(domain, self.seed_slab(), self.coef, self.zero)

    def test_nonzero_seed_data_fails_early(self):
        domain = np.ones(self.grid.shape, dtype=bool)
        vals = np.full(self.grid.shape + (3,), 0.5)
        report = flood_propagate(domain, self.seed_slab(), self.coef,
                                 VectorField(self.grid, vals))
        assert not report.passed
        assert "seed" in report.reason

    def test_seed_on_far_side_propagates_backwards(self):
        # the cuboids grow against the direction of axis 2
        domain = np.ones(self.grid.shape, dtype=bool)
        seed = np.zeros(self.grid.shape, dtype=bool)
        seed[:, :, -2:] = True
        report = flood_propagate(domain, seed, self.coef, self.zero)
        assert report.passed
        assert any(rec.direction == -1 for rec in report.cuboids)

    def test_verdict_independent_of_seed_position_for_zero_field(self):
        domain = np.ones(self.grid.shape, dtype=bool)
        for axis in range(3):
            report = flood_propagate(domain, self.seed_slab(axis), self.coef,
                                     self.zero)
            assert report.passed

    def test_two_dimensional_domain(self):
        grid = GridSpec((9, 9), (0.0, 0.0), 0.125)
        rng = np.random.default_rng(9)
        coef = CoefficientTensorField(grid, rng.uniform(-1, 1, grid.shape + (2, 2, 2)))
        domain = np.ones(grid.shape, dtype=bool)
        seed = np.zeros(grid.shape, dtype=bool)
        seed[:2] = True
        report = flood_propagate(domain, seed, coef, VectorField.zeros(grid, 2))
        assert report.passed


    def test_backward_cuboid_residual_is_in_grid_axis_order(self):
        # a non-zero field past the seed: the first cuboid grows backwards
        # along axis 0 and fails, and its residual is the grid-frame one
        rng = np.random.default_rng(11)
        vals = rng.uniform(-1, 1, self.grid.shape + (3,))
        vals[-2:] = 0.0
        seed = np.zeros(self.grid.shape, dtype=bool)
        seed[-2:] = True
        domain = np.ones(self.grid.shape, dtype=bool)
        report = flood_propagate(domain, seed, self.coef, VectorField(self.grid, vals))
        rec = report.cuboids[0]
        assert (rec.axis, rec.direction, rec.passed) == (0, -1, False)
        sub = tuple(slice(lo, hi) for lo, hi in rec.bounds)
        sub_grid = GridSpec(vals[sub].shape[:-1], (0.0,) * 3, self.grid.spacing)
        expected = system_residual(VectorField(sub_grid, vals[sub]),
                                   CoefficientTensorField(sub_grid, self.coef.values[sub]))
        assert rec.residual.per_axis == expected.per_axis
        assert rec.residual.max_norm == expected.max_norm
        assert len(set(expected.per_axis)) == 3

    @pytest.mark.parametrize("shape", [(13, 13, 1), (13,), (13, 13, 7, 1)],
                             ids=["flat-last-axis", "one-axis", "extra-axis"])
    def test_seed_mask_of_another_shape_is_refused(self, shape):
        domain = np.ones(self.grid.shape, dtype=bool)
        with pytest.raises(DimensionMismatch, match="seed mask shape"):
            flood_propagate(domain, np.ones(shape, dtype=bool), self.coef, self.zero)

    def test_seed_mask_may_be_nested_lists(self):
        domain = np.ones(self.grid.shape, dtype=bool)
        seed = self.seed_slab(axis=1)
        from_lists = flood_propagate(domain, seed.tolist(), self.coef, self.zero)
        assert from_lists == flood_propagate(domain, seed, self.coef, self.zero)
        assert from_lists.cuboids[0].axis == 1


def _ball(n, dim):
    """Points of an n^dim grid within (n - 1) / 2 index units of its centre."""
    idx = np.arange(n) - (n - 1) / 2.0
    return sum(c ** 2 for c in np.meshgrid(*[idx] * dim, indexing="ij")) \
        <= ((n - 1) / 2.0) ** 2


def _chain_domains(dim):
    shape = (13, 11, 7)[:dim]
    box = np.ones(shape, dtype=bool)
    l_shape = np.zeros(shape, dtype=bool)
    l_shape[:, :5] = True
    l_shape[:5] = True
    cut_corner = box.copy()
    cut_corner[tuple(slice(n // 2, None) for n in shape)] = False
    walk = np.zeros(shape, dtype=bool)
    rng = np.random.default_rng(17)
    point = np.array(shape) // 2
    for _ in range(150):
        walk[tuple(point)] = True
        axis = rng.integers(dim)
        point[axis] = np.clip(point[axis] + rng.choice((-1, 1)), 0, shape[axis] - 1)
    return {"box": box, "l-shape": l_shape, "cut-corner": cut_corner,
            "ball": _ball(21, dim), "random-walk": walk}


def _face_seed(domain, side):
    """The domain's points on its first (side 0) or last two layers along axis 0."""
    layers = np.flatnonzero(domain.any(axis=tuple(range(1, domain.ndim))))
    keep = layers[:2] if side == 0 else layers[-2:]
    seed = np.zeros_like(domain)
    seed[keep] = domain[keep]
    return seed


class TestCoveringChain:
    """Each cuboid meets the zero set reached before it through its back face."""

    @pytest.mark.parametrize("side", [0, 1], ids=["near", "far"])
    @pytest.mark.parametrize("name", ["box", "l-shape", "cut-corner", "ball",
                                      "random-walk"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_each_cuboid_grows_from_covered_points(self, dim, name, side):
        domain = _chain_domains(dim)[name]
        assert ndimage.label(domain)[1] == 1
        grid = GridSpec(domain.shape, (0.0,) * dim, 0.1)
        rng = np.random.default_rng(dim)
        coef = CoefficientTensorField(grid, rng.uniform(-1, 1, grid.shape + (dim,) * 3))
        seed = _face_seed(domain, side)
        report = flood_propagate(domain, seed, coef, VectorField.zeros(grid, dim))
        assert report.passed and report.covered_fraction == 1.0
        covered = seed.copy()
        for rec in report.cuboids:
            box = [slice(lo, hi) for lo, hi in rec.bounds]
            assert domain[tuple(box)].all()
            lo, hi = rec.bounds[rec.axis]
            back = lo if rec.direction > 0 else hi - 1
            box[rec.axis] = slice(back, back + 1)
            assert covered[tuple(box)].all()
            covered[tuple(slice(lo, hi) for lo, hi in rec.bounds)] = True
        assert np.array_equal(covered, domain)

    @pytest.mark.parametrize("shape", [(9, 9, 1), (1, 9, 9), (9, 1)])
    def test_axis_of_one_point(self, shape):
        # no point has a neighbour along that axis, so no frontier lies along it
        grid = GridSpec(shape, (0.0,) * len(shape), 0.125)
        domain = np.ones(shape, dtype=bool)
        seed = np.zeros(shape, dtype=bool)
        seed[tuple(slice(0, 2) if n > 1 else slice(None) for n in shape)] = True
        report = flood_propagate(domain, seed, CoefficientTensorField.zeros(grid),
                                 VectorField.zeros(grid, len(shape)))
        assert report.passed and report.covered_fraction == 1.0
        assert all(shape[rec.axis] > 1 for rec in report.cuboids)

    def test_flood_ball_cuboid_count(self):
        # the benchmark's flood: the 21^3 ball seeded on two layers of axis 0
        domain = _ball(21, 3)
        seed = np.zeros_like(domain)
        seed[:2] = domain[:2]
        grid = GridSpec(domain.shape, (0.0,) * 3, 1.0 / 20)
        coef = CoefficientTensorField.zeros(grid)
        report = flood_propagate(domain, seed, coef, VectorField.zeros(grid, 3))
        assert report.passed
        assert report.n_cuboids == 126


def _refuse_fields(monkeypatch):
    """Make building the flood's residual or |zeta| field fail the test."""
    def refuse(*args):
        raise AssertionError("a field was built")

    monkeypatch.setattr(transport, "_residual_by_axis", refuse)
    monkeypatch.setattr(transport, "_max_along", refuse)


def _two_bars():
    """Two 3 x 9 x 9 bars of a 9^3 grid, 3 layers apart along axis 0."""
    domain = np.zeros((9, 9, 9), dtype=bool)
    domain[:3] = True
    domain[6:] = True
    return domain


class TestCover:
    """The covering reads the domain and seed masks alone."""

    @pytest.mark.parametrize("side", [0, 1], ids=["near", "far"])
    @pytest.mark.parametrize("name", ["box", "l-shape", "cut-corner", "ball",
                                      "random-walk"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_is_the_chain_of_the_reference_records(self, dim, name, side):
        domain, seed, coef, zeta = _chain_flood(dim, name, side, "zero")
        records = reference_flood(domain, seed, coef, zeta).cuboids
        assert cover(domain, seed) == tuple((rec.bounds, rec.axis, rec.direction)
                                            for rec in records)

    def test_flood_ball_needs_no_field(self, monkeypatch):
        _refuse_fields(monkeypatch)
        domain = _ball(21, 3)
        seed = np.zeros_like(domain)
        seed[:2] = domain[:2]
        assert len(cover(domain, seed)) == 126

    def test_seed_in_every_component_covers_them_all(self):
        domain = _two_bars()
        seed = np.zeros_like(domain)
        seed[:, :2] = domain[:, :2]
        grid = GridSpec(domain.shape, (0.0,) * 3, 0.125)
        coef = CoefficientTensorField(
            grid, np.random.default_rng(3).uniform(-1, 1, grid.shape + (3, 3, 3)))
        report = flood_propagate(domain, seed, coef, VectorField.zeros(grid, 3))
        assert report.passed and report.covered_fraction == 1.0
        painted = seed.copy()
        for rec in report.cuboids:
            painted[tuple(slice(lo, hi) for lo, hi in rec.bounds)] = True
        assert np.array_equal(painted, domain)

    @pytest.mark.parametrize("zeta_kind", ["past-seed", "everywhere"])
    def test_unreached_points_are_refused_before_any_record(self, monkeypatch,
                                                            zeta_kind):
        domain = _two_bars()
        seed = np.zeros_like(domain)
        seed[:2] = domain[:2]
        grid = GridSpec(domain.shape, (0.0,) * 3, 0.125)
        vals = np.ones(grid.shape + (3,))
        if zeta_kind == "past-seed":
            vals[seed] = 0.0
        _refuse_fields(monkeypatch)
        with pytest.raises(DisconnectedDomain, match="^243 domain points"):
            cover(domain, seed)
        with pytest.raises(DisconnectedDomain, match="^243 domain points"):
            flood_propagate(domain, seed, CoefficientTensorField.zeros(grid),
                            VectorField(grid, vals))


def _chain_flood(dim, name, side, zeta_kind, margin=False):
    """A flood over one of _chain_domains, with zero or seeded 1e-13-noise zeta;
    with margin, the domain sits inside a larger grid, apart from its faces."""
    domain = _chain_domains(dim)[name]
    if margin:
        domain = np.pad(domain, [(1 + k, 3 - k) for k in range(dim)])
    grid = GridSpec(domain.shape, (0.0,) * dim, 0.1)
    rng = np.random.default_rng(dim)
    coef = CoefficientTensorField(grid, rng.uniform(-1, 1, grid.shape + (dim,) * 3))
    vals = np.zeros(grid.shape + (dim,))
    if zeta_kind == "noise":
        vals = 1e-13 * np.random.default_rng(23).standard_normal(vals.shape)
    return domain, _face_seed(domain, side), coef, VectorField(grid, vals)


class TestCoveringMatchesReference:
    """The covering equals the reference loop, which tries every growth side
    until a pass adds nothing and differences each cuboid's block anew."""

    # inset: the domain lies apart from the grid's faces, and the residual is
    # built on its bounding box only
    @pytest.mark.parametrize("margin", [False, True], ids=["grid", "inset"])
    @pytest.mark.parametrize("zeta_kind", ["zero", "noise"])
    @pytest.mark.parametrize("side", [0, 1], ids=["near", "far"])
    @pytest.mark.parametrize("name", ["box", "l-shape", "cut-corner", "ball",
                                      "random-walk"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_equals_reference_loop(self, dim, name, side, zeta_kind, margin):
        domain, seed, coef, zeta = _chain_flood(dim, name, side, zeta_kind, margin)
        report = flood_propagate(domain, seed, coef, zeta)
        assert report == reference_flood(domain, seed, coef, zeta)
        assert report.passed
        residuals = [rec.residual.max_norm for rec in report.cuboids
                     if rec.residual is not None]
        # the noise leaves no residual at zero, so the values are compared too
        assert all((r > 0.0) == (zeta_kind == "noise") for r in residuals)

    @pytest.mark.parametrize("side", [0, 1], ids=["near", "far"])
    @pytest.mark.parametrize("name", ["box", "l-shape", "cut-corner", "ball",
                                      "random-walk"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_failing_flood_equals_reference_loop(self, dim, name, side):
        # zeta = 1 on the points that the middle cuboid of the zero flood
        # reaches first, so the flood fails at that cuboid
        domain, seed, coef, zeta = _chain_flood(dim, name, side, "zero")
        records = reference_flood(domain, seed, coef, zeta).cuboids
        k = len(records) // 2
        earlier = seed.copy()
        for rec in records[:k]:
            earlier[tuple(slice(lo, hi) for lo, hi in rec.bounds)] = True
        vals = np.zeros_like(zeta.values)
        vals[tuple(slice(lo, hi) for lo, hi in records[k].bounds)] = 1.0
        vals[earlier] = 0.0
        zeta = VectorField(zeta.grid, vals)
        report = flood_propagate(domain, seed, coef, zeta)
        assert report == reference_flood(domain, seed, coef, zeta)
        assert report.n_cuboids == k + 1 and not report.passed
        share = np.count_nonzero(earlier) / np.count_nonzero(domain)
        assert report.covered_fraction == share

    @pytest.mark.parametrize("dim", [2, 3])
    def test_record_residual_is_that_of_its_block(self, dim):
        domain, seed, coef, zeta = _chain_flood(dim, "cut-corner", 1, "noise")
        report = flood_propagate(domain, seed, coef, zeta)
        checked = 0
        for rec in report.cuboids:
            if rec.residual is None:
                continue
            sub = tuple(slice(lo, hi) for lo, hi in rec.bounds)
            sub_grid = GridSpec(zeta.values[sub].shape[:-1], (0.0,) * dim,
                                zeta.grid.spacing)
            assert rec.residual == system_residual(
                VectorField(sub_grid, zeta.values[sub]),
                CoefficientTensorField(sub_grid, coef.values[sub]))
            checked += 1
        assert checked > 0


class TestOrientation:
    def test_oriented_propagation_matches_exact_solution(self):
        # exponential growth along axis 0, seed on the max side: solution
        # exp(-(x0_max - x0)) backwards is still certified as nonzero -> the
        # residual must vanish for the true field but zeta_max must trip
        grid = GridSpec((9, 5, 5), (0.0,) * 3, 0.25)
        tensor = np.zeros((3, 3, 3))
        for i in range(3):
            tensor[i, 0, i] = 1.0  # grad(zeta) = zeta e_0^T
        coef = CoefficientTensorField.constant(grid, tensor)
        pts = grid.points()
        vals = np.exp(pts[..., 0])[..., None] * np.array([1.0, 1.0, 1.0])
        zeta = VectorField(grid, vals)
        report = system_residual(zeta, coef, tol=1e-1)
        assert report.passed  # the field honestly solves the system
        domain = np.ones(grid.shape, dtype=bool)
        seed = np.zeros(grid.shape, dtype=bool)
        seed[:2] = True
        flood = flood_propagate(domain, seed, coef, zeta)
        assert not flood.passed  # nonzero data cannot pass the vanish check


class TestCounterexample:
    def test_report(self):
        report = counterexample_demo()
        assert report.identity_residual_max <= 1e-12
        assert report.full_divergent
        assert not report.truncated_divergent
        assert report.truncated_solution_max <= 1e-10
        assert report.truncated_bound_at_one == 0.0
        assert report.passed

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            counterexample_demo(epsilon=2.0)


class TestCoefficientTensorField:
    def test_apply_linearity(self):
        grid = GridSpec((4, 4, 4), (0.0,) * 3, 0.25)
        rng = np.random.default_rng(7)
        coef = CoefficientTensorField(grid, rng.uniform(-1, 1, grid.shape + (3, 3, 3)))
        z = VectorField(grid, rng.uniform(-1, 1, grid.shape + (3,)))
        # power-of-two scaling commutes with rounding, so this one is bit-exact
        lhs = coef.apply(VectorField(grid, 2.0 * z.values)).values
        assert np.array_equal(lhs, 2.0 * coef.apply(z).values)
        lhs = coef.apply(VectorField(grid, 3.0 * z.values)).values
        rhs = 3.0 * coef.apply(z).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-15 * max(1.0, np.max(np.abs(rhs)))

    def test_shape_validation(self):
        grid = GridSpec((4, 4, 4), (0.0,) * 3, 0.25)
        with pytest.raises(ValueError):
            CoefficientTensorField(grid, np.zeros(grid.shape + (3, 3)))
