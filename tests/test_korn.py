"""Seminorm, discrete kernel, coefficient tensor, rigid recovery."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from korn_kit import algebra, analytic, korn
from korn_kit.errors import (DeterminantTooSmall, DimensionMismatch,
                             EigensolveFailed, GridTooLarge, GridTooSmall,
                             UnknownKind)
from korn_kit.fields import (GridSpec, MatrixField, VectorField,
                             fd_curl_rowwise, fd_grad, refinement_errors)
from korn_kit.korn import (KornProblem, assemble_form, boundary_mask, build_gp,
                           builtin_p_field, face_mask, kernel_vector_diagnostics,
                           min_rayleigh, norm_property_probe, rigid_recover,
                           seminorm, sweep_roughness, sym_conjugation_sides)
from korn_kit.korn import _band_order, _pair_residual
from reference_algebra import build_l_operators


def unit_cell_grid(n=5):
    # n points spaced 1/n apart: the nodal cells tile a unit volume
    return GridSpec((n,) * 3, (0.0,) * 3, 1.0 / n)


def identity_p(grid):
    return MatrixField.constant(grid, np.eye(3))


def rigid_field(grid, omega, a):
    pts = grid.points()
    return VectorField(grid, np.einsum("ij,...j->...i", algebra.smat(omega), pts) + a)


class TestSeminorm:
    def test_zero(self):
        g = unit_cell_grid()
        assert seminorm(VectorField.zeros(g, 3), identity_p(g)) == 0.0

    def test_rigid_motion_in_kernel(self):
        g = unit_cell_grid()
        u = rigid_field(g, np.array([0.3, -0.2, 0.5]), np.array([1.0, 2.0, 3.0]))
        assert seminorm(u, identity_p(g)) <= 1e-12

    def test_uniaxial_stretch_equals_sqrt_volume(self):
        # sym grad(u) = diag(1, 0, 0) everywhere, so the norm is the square
        # root of the integrated unit density: exactly 1 on a unit volume
        for n in (4, 5, 8):
            g = unit_cell_grid(n)
            pts = g.points()
            vals = np.zeros(g.shape + (3,))
            vals[..., 0] = pts[..., 0]
            direct_quadrature = math.sqrt(g.num_points * g.spacing ** 3)
            assert direct_quadrature == pytest.approx(1.0, abs=1e-15)
            assert seminorm(VectorField(g, vals), identity_p(g)) == \
                pytest.approx(1.0, rel=1e-13)

    def test_determinant_floor(self):
        g = unit_cell_grid()
        p = MatrixField.constant(g, np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(DeterminantTooSmall):
            seminorm(VectorField.zeros(g, 3), p)

    def test_refuses_u_on_another_grid(self):
        g = unit_cell_grid()
        with pytest.raises(DimensionMismatch, match="share a grid"):
            seminorm(VectorField.zeros(unit_cell_grid(6), 3), identity_p(g))


class TestKornProblem:
    def test_gamma_must_touch_boundary_only(self):
        g = unit_cell_grid()
        mask = np.zeros(g.shape, dtype=bool)
        mask[2, 2, 2] = True
        with pytest.raises(ValueError):
            KornProblem(g, identity_p(g), mask)

    def test_gamma_must_be_nonempty(self):
        g = unit_cell_grid()
        with pytest.raises(ValueError):
            KornProblem(g, identity_p(g), np.zeros(g.shape, dtype=bool))

    def test_unconstrained_variant_via_none(self):
        g = unit_cell_grid()
        problem = KornProblem(g, identity_p(g), None)
        assert problem.gamma_mask is None

    def test_determinant_check(self):
        g = unit_cell_grid()
        p = MatrixField.constant(g, -np.eye(3))
        with pytest.raises(DeterminantTooSmall):
            KornProblem(g, p, None)

    def test_boundary_mask_helper(self):
        g = unit_cell_grid(4)
        mask = boundary_mask(g)
        assert mask.sum() == 4 ** 3 - 2 ** 3
        assert face_mask(g, 0, 0).sum() == 16

    @pytest.mark.parametrize("axis, side", [(3, 0), (-1, 0), (0, 2), (0, -1)])
    def test_face_mask_rejects_axis_or_side_out_of_range(self, axis, side):
        with pytest.raises(DimensionMismatch, match="axis in 0..2 and side 0 or 1"):
            face_mask(unit_cell_grid(), axis, side)

    @pytest.mark.parametrize("side, layers", [(0, slice(0, 2)), (1, slice(-2, None))])
    def test_face_mask_takes_thickness_layers(self, side, layers):
        g = GridSpec((4, 5, 6), (0.0,) * 3, 0.25)
        expected = np.zeros(g.shape, dtype=bool)
        expected[:, layers] = True
        assert np.array_equal(face_mask(g, 1, side, thickness=2), expected)
        assert np.array_equal(face_mask(g, 1, side), face_mask(g, 1, side, thickness=1))

    @pytest.mark.parametrize("thickness", [0, -1, 6])
    def test_face_mask_rejects_thickness_out_of_range(self, thickness):
        g = GridSpec((4, 5, 6), (0.0,) * 3, 0.25)
        with pytest.raises(DimensionMismatch, match="got axis 1, side 1, thickness"):
            face_mask(g, 1, 1, thickness)


class TestAssembleForm:
    def test_zero_displacement(self):
        g = unit_cell_grid()
        form = assemble_form(KornProblem(g, identity_p(g), None))
        assert form.apply(VectorField.zeros(g, 3)) == 0.0

    def test_matches_seminorm_squared(self):
        g = unit_cell_grid()
        p_case = analytic.RotationMatrixField(axis=(1.0, 0.5, 0.2), base=0.3,
                                              lin=(0.6, 0.1, 0.4))
        p = p_case.sample(g)
        form = assemble_form(KornProblem(g, p, None))
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = VectorField(g, rng.uniform(-1, 1, g.shape + (3,)))
            expected = seminorm(u, p) ** 2
            assert form.apply(u) == pytest.approx(expected, rel=1e-10)

    def test_clamped_form_positive_on_random(self):
        g = unit_cell_grid()
        problem = KornProblem(g, identity_p(g), face_mask(g, 0, 0))
        form = assemble_form(problem)
        rng = np.random.default_rng(1)
        for _ in range(20):
            vec = rng.uniform(-1, 1, form.n_dofs)
            value = float(vec @ (form.operator @ vec))
            assert value > 0.0

    def test_operator_symmetric_nonnegative(self):
        g = unit_cell_grid()
        form = assemble_form(KornProblem(g, identity_p(g), face_mask(g, 1, 1)))
        k = form.operator.toarray()
        assert np.max(np.abs(k - k.T)) <= 1e-12 * max(1.0, np.max(np.abs(k)))
        w = np.linalg.eigvalsh(k)
        assert w[0] >= -1e-10 * max(1.0, w[-1])

    @pytest.mark.parametrize("shape, clamped", [((2, 5, 5), False), ((5, 5, 2), False),
                                                ((2, 2, 2), True)],
                             ids=["free-2-points-first", "free-2-points-last",
                                  "clamped-2-cubed"])
    def test_refuses_an_axis_too_short_for_the_stencil(self, shape, clamped):
        g = GridSpec(shape, (0.0,) * 3, 0.25)
        gamma = face_mask(g, 0, 0) if clamped else None
        with pytest.raises(GridTooSmall):
            assemble_form(KornProblem(g, identity_p(g), gamma))


class TestMinRayleigh:
    def test_unconstrained_kernel_is_rigid_motions(self):
        g = unit_cell_grid()
        p = identity_p(g)
        form = assemble_form(KornProblem(g, p, None))
        result = min_rayleigh(form, "l2")
        assert result.kernel_dim == 6
        # the six discrete rigid motions indeed have vanishing seminorm
        rng = np.random.default_rng(2)
        for _ in range(6):
            u = rigid_field(g, rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
            assert seminorm(u, p) <= 1e-11

    def test_clamped_positive_both_grams(self):
        g = unit_cell_grid()
        form = assemble_form(KornProblem(g, identity_p(g), face_mask(g, 0, 0)))
        for gram in ("l2", "h1"):
            result = min_rayleigh(form, gram)
            assert result.lambda_min > result.kernel_threshold
            assert result.kernel_dim == 0

    def test_rescaled_p_preserves_kernel_dimension(self):
        g = unit_cell_grid()
        for scale in (1.0, 2.0):
            p = MatrixField.constant(g, scale * np.eye(3))
            form = assemble_form(KornProblem(g, p, None))
            assert min_rayleigh(form, "l2").kernel_dim == 6

    def test_kernel_dimension_six_on_small_grids(self):
        for n in (3, 4, 6):
            g = unit_cell_grid(n)
            form = assemble_form(KornProblem(g, identity_p(g), None))
            assert min_rayleigh(form, "l2").kernel_dim == 6

    def test_eigenvector_is_embedded_on_grid(self):
        g = unit_cell_grid()
        gamma = face_mask(g, 0, 0)
        form = assemble_form(KornProblem(g, identity_p(g), gamma))
        result = min_rayleigh(form, "l2")
        assert result.eigenvector.grid == g
        assert np.max(np.abs(result.eigenvector.values[gamma])) == 0.0

    def test_iterative_path_matches_dense(self):
        g = unit_cell_grid()
        form = assemble_form(KornProblem(g, identity_p(g), face_mask(g, 0, 0)))
        dense = min_rayleigh(form, "l2")
        iterative = min_rayleigh(form, "l2", dense_cap=10)
        assert not iterative.dense
        assert iterative.lambda_min == pytest.approx(dense.lambda_min, rel=1e-8)

    def test_iterative_path_is_reproducible(self):
        g = unit_cell_grid()
        form = assemble_form(KornProblem(g, identity_p(g), face_mask(g, 0, 0)))
        first = min_rayleigh(form, "l2", dense_cap=0)
        second = min_rayleigh(form, "l2", dense_cap=0)
        assert not first.dense
        assert np.array_equal(first.eigenvalues, second.eigenvalues)


class TestEigensolvePaths:
    """The subset dense solve and the banded sparse solve."""

    def forms(self):
        g = unit_cell_grid()
        p = builtin_p_field("rotation-valued", g)
        return {"free": assemble_form(KornProblem(g, p, None)),
                "clamped": assemble_form(KornProblem(g, p, face_mask(g, 0, 0)))}

    def test_dense_subset_matches_full_generalized_solve(self):
        for name, form in self.forms().items():
            for gram in ("l2", "h1"):
                result = min_rayleigh(form, gram)
                full = scipy.linalg.eigh(form.operator.toarray(),
                                         form.gram(gram).toarray(),
                                         eigvals_only=True)[:12]
                assert result.dense and len(result.eigenvalues) == 12
                # relative to the largest compared eigenvalue: the free
                # kernel eigenvalues are roundoff around zero
                gap = np.max(np.abs(result.eigenvalues - full))
                assert gap <= 1e-10 * np.max(np.abs(full)), (name, gram)

    @staticmethod
    def free_7_cubed(family):
        g = unit_cell_grid(7)  # 1029 DOFs, just above DENSE_CAP
        return assemble_form(KornProblem(g, builtin_p_field(family, g), None))

    @pytest.mark.parametrize("family", ["identity", "rotation-valued"])
    @pytest.mark.parametrize("gram", ["l2", "h1"])
    def test_sparse_matches_full_generalized_solve_on_free_problem(self, family,
                                                                   gram):
        form = self.free_7_cubed(family)
        sparse = min_rayleigh(form, gram, dense_cap=0)
        full = scipy.linalg.eigh(form.operator.toarray(), form.gram(gram).toarray(),
                                 eigvals_only=True)[:12]
        assert not sparse.dense
        # relative to the largest eigenvalue: rotation-valued P has a near-kernel
        # pair whose absolute error is roundoff on both paths
        gap = np.max(np.abs(sparse.eigenvalues - full))
        assert gap <= 1e-12 * np.max(np.abs(full))

    def test_default_cap_sends_free_7_cubed_to_the_sparse_path(self):
        form = self.free_7_cubed("identity")
        assert form.n_dofs > korn.DENSE_CAP
        first = min_rayleigh(form, "l2")
        # v0 = ones is a kernel vector, so ARPACK restarts from its own vector
        second = min_rayleigh(form, "l2")
        assert not first.dense and first.kernel_dim == 6
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvector.values, second.eigenvector.values)

    def test_nd_sparse_matches_dense_graded_roughness(self):
        g = GridSpec((7,) * 3, (0.0,) * 3, 1.0 / 6)
        p = builtin_p_field("graded-roughness", g, seed=3, frequency=2.0)
        form = assemble_form(KornProblem(g, p, face_mask(g, 0, 0)))
        for gram in ("l2", "h1"):
            dense = min_rayleigh(form, gram)
            sparse = min_rayleigh(form, gram, dense_cap=0)
            assert dense.dense and not sparse.dense
            assert sparse.lambda_min == pytest.approx(dense.lambda_min, rel=1e-8)
            assert np.allclose(sparse.eigenvalues, dense.eigenvalues,
                               rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("shape,clamped", [((5, 5, 5), True), ((5, 5, 5), False),
                                               ((5, 7, 9), True), ((5, 7, 9), False)])
    def test_nd_order_is_a_permutation_of_the_free_dofs(self, shape, clamped):
        g = GridSpec(shape, (0.0,) * 3, 0.25)
        gamma = face_mask(g, 2, 1) if clamped else None
        form = assemble_form(KornProblem(g, identity_p(g), gamma))
        order = _band_order(form)
        assert np.array_equal(np.sort(order), np.arange(form.n_dofs))

    @pytest.mark.parametrize("shape", [(5, 7, 9), (5, 5, 17)])
    def test_band_sparse_matches_dense_on_boxes(self, shape):
        g = GridSpec(shape, (0.0,) * 3, 0.25)
        p = builtin_p_field("graded-roughness", g, seed=1, frequency=2.0)
        form = assemble_form(KornProblem(g, p, face_mask(g, 0, 0)))
        for gram in ("l2", "h1"):
            dense = min_rayleigh(form, gram)
            sparse = min_rayleigh(form, gram, dense_cap=0)
            assert dense.dense and not sparse.dense
            assert np.allclose(sparse.eigenvalues, dense.eigenvalues,
                               rtol=1e-8, atol=0.0), gram

    @staticmethod
    def bandwidth(form, order):
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        coo = form.operator.tocoo()
        return int(np.max(np.abs(rank[coo.row] - rank[coo.col])))

    def test_band_order_narrows_an_elongated_box(self):
        g = GridSpec((5, 5, 17), (0.0,) * 3, 0.25)
        form = assemble_form(KornProblem(g, identity_p(g), face_mask(g, 0, 0)))
        natural = self.bandwidth(form, np.arange(form.n_dofs))
        assert 3 * self.bandwidth(form, _band_order(form)) < natural

    @staticmethod
    def point_major(form):
        """Free DOFs point by point, the grid's longest axis slowest."""
        shape = form.grid.shape
        axes = sorted(range(3), key=lambda ax: -shape[ax])
        points = np.arange(form.grid.num_points).reshape(shape).transpose(axes)
        dofs = (3 * points.reshape(-1)[:, None] + np.arange(3)).reshape(-1)
        return (np.cumsum(form.free) - 1)[dofs[form.free[dofs]]]

    @pytest.mark.parametrize("shape", [(5, 5, 5), (5, 7, 9), (5, 5, 17), (9, 9, 9)])
    @pytest.mark.parametrize("clamped", [True, False])
    def test_band_order_is_no_wider_than_point_major(self, shape, clamped):
        g = GridSpec(shape, (0.0,) * 3, 0.25)
        p = builtin_p_field("graded-roughness", g, seed=1, frequency=2.0)
        form = assemble_form(KornProblem(g, p, face_mask(g, 0, 0) if clamped else None))
        assert (self.bandwidth(form, _band_order(form))
                <= self.bandwidth(form, self.point_major(form)))

    def test_band_order_narrows_a_cube_by_a_quarter(self):
        g = unit_cell_grid(13)
        p = builtin_p_field("graded-roughness", g, seed=1, frequency=2.0)
        form = assemble_form(KornProblem(g, p, face_mask(g, 0, 0)))
        chosen = self.bandwidth(form, _band_order(form))
        assert chosen <= 0.75 * self.bandwidth(form, self.point_major(form))

    def test_sparse_matches_dense_on_free_9_cubed(self):
        g = unit_cell_grid(9)
        form = assemble_form(KornProblem(g, identity_p(g), None))
        # the order differs from point-major here, so this covers the other candidate
        assert (self.bandwidth(form, _band_order(form))
                < self.bandwidth(form, self.point_major(form)))
        for gram in ("l2", "h1"):
            dense = min_rayleigh(form, gram, dense_cap=form.n_dofs)
            sparse = min_rayleigh(form, gram, dense_cap=0)
            assert dense.dense and not sparse.dense
            assert sparse.kernel_dim == dense.kernel_dim == 6
            # relative to the largest eigenvalue: the kernel pairs are roundoff
            gap = np.max(np.abs(sparse.eigenvalues - dense.eigenvalues))
            assert gap <= 1e-8 * np.max(np.abs(dense.eigenvalues)), gram

    @pytest.mark.parametrize("gram", ["l2", "h1"])
    def test_sparse_finds_every_copy_of_repeated_eigenvalues(self, gram):
        # P = I on a free cube: a 6-fold kernel, then 6-fold eigenvalues
        g = unit_cell_grid(8)
        form = assemble_form(KornProblem(g, identity_p(g), None))
        dense = min_rayleigh(form, gram, dense_cap=form.n_dofs)
        assert np.sum(np.isclose(dense.eigenvalues, dense.eigenvalues[-1])) > 1
        sparse = min_rayleigh(form, gram, dense_cap=0)
        gap = np.max(np.abs(sparse.eigenvalues - dense.eigenvalues))
        assert gap <= 1e-10 * np.max(np.abs(dense.eigenvalues))

    def test_ritz_pairs_drop_repeated_directions(self):
        form = self.forms()["clamped"]
        a, m = form.operator, form.gram("h1")
        w, v = scipy.linalg.eigh(a.toarray(), m.toarray(), subset_by_index=(0, 11))
        rw, rv = korn._ritz_pairs(a, m, np.column_stack([v, 2.0 * v[:, :6]]), 12)
        assert np.allclose(rw, w, rtol=1e-12, atol=0.0)
        assert _pair_residual(a, m, rw, rv) <= 1e-12

    def test_oversized_band_is_refused_before_the_factor(self, monkeypatch):
        g = unit_cell_grid(7)
        form = assemble_form(KornProblem(g, identity_p(g), face_mask(g, 0, 0)))
        needed = (self.bandwidth(form, _band_order(form)) + 1) * form.n_dofs * 8
        monkeypatch.setattr(korn, "_BAND_BYTES_CAP", needed)
        assert not min_rayleigh(form, "l2", dense_cap=0).dense
        monkeypatch.setattr(korn, "_BAND_BYTES_CAP", needed - 1)
        with pytest.raises(GridTooLarge):
            min_rayleigh(form, "l2", dense_cap=0)

    def test_indefinite_shifted_operator_is_eigensolve_failure(self):
        form = self.forms()["clamped"]
        negated = dataclasses.replace(form, operator=-form.operator)
        with pytest.raises(EigensolveFailed) as excinfo:
            min_rayleigh(negated, "l2", dense_cap=0)
        assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)

    def test_sparse_path_does_not_call_splu(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("splu called")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
        form = self.forms()["clamped"]
        for gram in ("l2", "h1"):
            assert not min_rayleigh(form, gram, dense_cap=0).dense

    def test_census_incomplete_when_kernel_fills_the_batch(self):
        g = unit_cell_grid()
        free = assemble_form(KornProblem(g, identity_p(g), None))
        for cap in (6000, 0):
            short = min_rayleigh(free, "l2", dense_cap=cap, n_eigs=6)
            full = min_rayleigh(free, "l2", dense_cap=cap)
            assert short.dense == full.dense == (cap > 0)
            assert short.kernel_dim == full.kernel_dim == 6
            assert short.census_complete is False
            assert full.census_complete is True

    def test_residuals_are_reported_on_both_paths(self):
        form = self.forms()["clamped"]
        for cap in (6000, 0):
            for gram in ("l2", "h1"):
                result = min_rayleigh(form, gram, dense_cap=cap)
                assert 0.0 <= result.eigenpair_residual <= 1e-12

    def test_residual_check_rejects_doctored_pairs(self):
        form = self.forms()["clamped"]
        a, m = form.operator, form.gram("h1")
        w, v = scipy.linalg.eigh(a.toarray(), m.toarray(), subset_by_index=(0, 11))
        assert _pair_residual(a, m, w, v) <= 1e-12
        with pytest.raises(EigensolveFailed):
            _pair_residual(a, m, w[::-1], v)  # eigenvalues out of order
        with pytest.raises(EigensolveFailed):
            _pair_residual(a, m, w, v[::-1])  # rows left permuted
        with pytest.raises(EigensolveFailed):
            _pair_residual(a, m, w, v * np.nan)


class TestBuildGP:
    def test_identity_p_gives_zero(self):
        g = unit_cell_grid()
        assert build_gp(identity_p(g)).max_norm() == 0.0

    def test_scaling_in_zeta(self):
        g = unit_cell_grid()
        p = builtin_p_field("rotation-valued", g)
        gp = build_gp(p)
        rng = np.random.default_rng(3)
        z = VectorField(g, rng.uniform(-1, 1, g.shape + (3,)))
        doubled = gp.apply(VectorField(g, 2.0 * z.values)).values
        assert np.array_equal(doubled, 2.0 * gp.apply(z).values)

    def test_definition_inverts_l(self):
        # mat(L_P vec(G_P zeta)) == -smat(zeta) curl(P) by construction
        g = unit_cell_grid()
        p = builtin_p_field("rotation-valued", g)
        curl_p = fd_curl_rowwise(p)
        gp = build_gp(p, curl_p)
        rng = np.random.default_rng(4)
        z = rng.uniform(-1, 1, g.shape + (3,))
        gz = np.einsum("...ijk,...k->...ij", gp.values, z)
        l_full = build_l_operators(p.values).full
        lhs = np.einsum("...pq,...q->...p", l_full, gz.reshape(g.shape + (9,)))
        rhs = -(algebra.smat(z) @ curl_p.values).reshape(g.shape + (9,))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_field_identity_second_order(self):
        zeta_case = analytic._random_trig((3,), 5, 1.0, 2.0)
        p_case = analytic.RotationMatrixField(axis=(1.0, 2.0, 2.0), base=0.4,
                                              lin=(0.8, 0.5, 0.3), amp=0.2,
                                              freq=(1.5, 0.0, 1.0))

        def identity_gap(grid):
            zeta = zeta_case.sample(grid)
            p = p_case.sample(grid)
            product = MatrixField(grid, algebra.smat(zeta.values) @ p.values)
            lhs = fd_curl_rowwise(product).values
            l_full = build_l_operators(p.values).full
            hat_grad = fd_grad(zeta).values.reshape(grid.shape + (9,))
            rhs = algebra.mat_of_vec(
                np.einsum("...pq,...q->...p", l_full, hat_grad)) \
                + algebra.smat(zeta.values) @ fd_curl_rowwise(p).values
            inner = grid.interior()
            return float(np.max(np.abs(lhs[inner] - rhs[inner])))

        base = GridSpec((9,) * 3, (0.0,) * 3, 1.0 / 8)
        report = refinement_errors(identity_gap, base, levels=3)
        assert report.min_order >= 1.9

    def test_matches_inverse_reference(self):
        g = unit_cell_grid(7)
        for p in (builtin_p_field("rotation-valued", g),
                  builtin_p_field("graded-roughness", g, seed=2, frequency=3.0)):
            curl_p = fd_curl_rowwise(p)
            l_inv = np.linalg.inv(build_l_operators(p.values).full)
            x9 = np.einsum("mik,...kj->...ijm", algebra.smat(np.eye(3)),
                           curl_p.values).reshape(g.shape + (9, 3))
            expected = -np.einsum("...pq,...qm->...pm", l_inv, x9)
            got = build_gp(p, curl_p).values.reshape(g.shape + (9, 3))
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_determinant_floor(self):
        g = unit_cell_grid()
        p = MatrixField.constant(g, np.diag([1.0, -1.0, 1.0]))
        with pytest.raises(DeterminantTooSmall):
            build_gp(p)

    def test_peak_memory_is_a_few_outputs(self):
        # no (points, 9, 9) array: the closed-form inverse works on 3x3 blocks
        g = unit_cell_grid(17)
        p = builtin_p_field("rotation-valued", g)
        curl_p = fd_curl_rowwise(p)
        tracemalloc.start()
        try:
            gp = build_gp(p, curl_p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * gp.values.nbytes


class TestProbe:
    def test_clamped_identity_no_kernel(self):
        g = unit_cell_grid()
        probe = norm_property_probe(
            KornProblem(g, identity_p(g), face_mask(g, 0, 0)))
        assert not probe.kernel_found
        assert probe.diagnostics is None
        assert "norm" in probe.diagnosis

    def test_unconstrained_flags_missing_boundary_condition(self):
        g = unit_cell_grid()
        probe = norm_property_probe(KornProblem(g, identity_p(g), None))
        assert probe.kernel_found
        assert probe.rayleigh.kernel_dim == 6
        diag = probe.diagnostics
        assert diag.boundary_condition_missing
        assert diag.skewness_residual <= 1e-10
        # rigid-motion kernel: axial vector constant, transport consistent
        z = diag.zeta.values
        assert np.max(np.abs(z - z.reshape(-1, 3)[0])) <= 1e-9
        assert diag.transport_residual.passed

    def test_zero_displacement_diagnostics(self):
        g = unit_cell_grid()
        problem = KornProblem(g, identity_p(g), face_mask(g, 0, 0))
        diag = kernel_vector_diagnostics(problem, VectorField.zeros(g, 3))
        assert diag.skewness_residual == 0.0
        assert diag.zeta_gamma_max == 0.0
        assert diag.transport_residual.max_norm == 0.0

    def test_diagnostics_refuse_u_on_another_grid(self):
        g = unit_cell_grid()
        problem = KornProblem(g, identity_p(g), face_mask(g, 0, 0))
        with pytest.raises(DimensionMismatch, match="problem grid"):
            kernel_vector_diagnostics(problem, VectorField.zeros(unit_cell_grid(6), 3))

    @pytest.mark.parametrize("n, clamp, kernel_dim, dense", [
        (5, "point", 3, True), (7, "point", 3, False), (5, "segment", 1, True),
    ], ids=["point-5-dense", "point-7-band", "segment-5-dense"])
    def test_clamp_of_measure_zero_leaves_rotations(self, n, clamp, kernel_dim, dense):
        # a clamped point or segment is no boundary patch: the rotations about
        # it stay in the kernel, and their constant axial vector solves the
        # transport system but does not vanish on the clamp
        g = unit_cell_grid(n)
        mask = np.zeros(g.shape, dtype=bool)
        mask[(0, 0, 0) if clamp == "point" else (slice(None), 0, 0)] = True
        probe = norm_property_probe(KornProblem(g, identity_p(g), mask))
        assert (probe.rayleigh.kernel_dim, probe.rayleigh.dense) == (kernel_dim, dense)
        assert probe.rayleigh.census_complete
        diag = probe.diagnostics
        assert diag.skewness_residual <= 1e-10
        assert diag.transport_residual.passed
        z = diag.zeta.values
        assert np.max(np.abs(z - z.reshape(-1, 3)[0])) <= 1e-9
        if clamp == "segment":  # only the rotation about the segment's own axis
            assert np.max(np.abs(z[..., 1:])) <= 1e-9
        assert diag.zeta_gamma_max >= 0.5
        assert probe.diagnosis.startswith(
            "kernel displacement found although the transport chain is consistent")


class TestRigidRecover:
    def test_affine_identity_psi(self):
        g = unit_cell_grid(6)
        omega = np.array([0.4, -0.7, 0.2])
        a = np.array([1.0, -2.0, 0.5])
        phi = rigid_field(g, omega, a)
        psi = VectorField(g, g.points())
        rec = rigid_recover(phi, psi)
        assert rec.skewness_residual <= 1e-12
        assert rec.constancy_residual <= 1e-12
        assert rec.reconstruction_residual <= 1e-12
        assert rec.rotation.axial == pytest.approx(omega, abs=1e-13)
        assert rec.translation == pytest.approx(a, abs=1e-13)

    def test_rotated_psi_exact(self):
        g = unit_cell_grid(6)
        theta = 0.8
        r = np.array([[math.cos(theta), -math.sin(theta), 0.0],
                      [math.sin(theta), math.cos(theta), 0.0],
                      [0.0, 0.0, 1.0]])
        pts = g.points()
        psi = VectorField(g, np.einsum("ij,...j->...i", r, pts))
        omega = np.array([0.1, 0.6, -0.3])
        a = np.array([0.2, 0.0, -1.0])
        phi = VectorField(g, np.einsum("ij,...j->...i", algebra.smat(omega),
                                       psi.values) + a)
        rec = rigid_recover(phi, psi)
        assert rec.reconstruction_residual <= 1e-12
        assert rec.rotation.axial == pytest.approx(omega, abs=1e-12)

    def test_curvilinear_manufactured(self):
        g = GridSpec((33,) * 3, (0.0,) * 3, 1.0 / 32)
        pts = g.points()
        psi_vals = pts.copy()
        psi_vals[..., 2] += 0.25 * pts[..., 0] ** 2
        omega = np.array([0.37, -0.81, 0.55])
        a = np.array([0.9, -0.1, 0.4])
        phi_vals = np.einsum("ij,...j->...i", algebra.smat(omega), psi_vals) + a
        rec = rigid_recover(VectorField(g, phi_vals), VectorField(g, psi_vals))
        h = g.spacing
        assert np.max(np.abs(rec.rotation.axial - omega)) <= 1e-6
        assert rec.reconstruction_residual <= h ** 2
        assert rec.skewness_residual <= h ** 2

    def test_non_rigid_displacement_detected(self):
        g = unit_cell_grid(6)
        pts = g.points()
        psi = VectorField(g, pts)
        stretch = np.zeros(g.shape + (3,))
        stretch[..., 0] = 0.3 * pts[..., 0]
        phi = VectorField(g, stretch)
        rec = rigid_recover(phi, psi)
        assert rec.skewness_residual >= 0.1

    def test_determinant_floor(self):
        g = unit_cell_grid()
        psi = VectorField(g, np.zeros(g.shape + (3,)))
        with pytest.raises(DeterminantTooSmall):
            rigid_recover(psi, psi)

    def test_refuses_fields_on_different_grids(self):
        g = unit_cell_grid()
        psi = VectorField(g, g.points())
        with pytest.raises(DimensionMismatch, match="share a grid"):
            rigid_recover(VectorField.zeros(unit_cell_grid(6), 3), psi)


class TestSymConjugation:
    def test_seeded_random_pairs(self):
        rng = np.random.default_rng(5)
        grad_phi = rng.uniform(-1, 1, (1000, 3, 3))
        grad_psi = np.eye(3) + 0.25 * rng.uniform(-1, 1, (1000, 3, 3))
        lhs, rhs = sym_conjugation_sides(grad_phi, grad_psi)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_sides_are_symmetric(self):
        rng = np.random.default_rng(6)
        lhs, rhs = sym_conjugation_sides(rng.uniform(-1, 1, (3, 3)),
                                         np.eye(3) + 0.2 * rng.uniform(-1, 1, (3, 3)))
        assert np.max(np.abs(lhs - lhs.T)) <= 1e-14
        assert np.max(np.abs(rhs - rhs.T)) <= 1e-14

    @settings(max_examples=50)
    @given(arrays(float, (3, 3),
                  elements=st.floats(min_value=-1.0, max_value=1.0,
                                     allow_nan=False)),
           arrays(float, (3, 3),
                  elements=st.floats(min_value=-0.25, max_value=0.25,
                                     allow_nan=False)))
    def test_identity_property(self, grad_phi, perturbation):
        grad_psi = np.eye(3) + perturbation
        lhs, rhs = sym_conjugation_sides(grad_phi, grad_psi)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestPFamilies:
    def test_identity(self):
        g = unit_cell_grid()
        p = builtin_p_field("identity", g)
        assert np.array_equal(p.values, np.broadcast_to(np.eye(3), g.shape + (3, 3)))

    def test_rotation_valued_det_one(self):
        g = unit_cell_grid()
        p = builtin_p_field("rotation-valued", g)
        assert np.max(np.abs(np.linalg.det(p.values) - 1.0)) <= 1e-13

    def test_graded_roughness_det_guard(self):
        g = unit_cell_grid()
        p = builtin_p_field("graded-roughness", g, amplitude=0.05, frequency=2.0)
        assert np.min(np.linalg.det(p.values)) > 0.1
        with pytest.raises(DeterminantTooSmall):
            builtin_p_field("graded-roughness", g, amplitude=0.9, frequency=2.0)

    def test_unknown_family(self):
        with pytest.raises(UnknownKind):
            builtin_p_field("sobolev", unit_cell_grid())

    @pytest.mark.parametrize("name, params", [
        ("identity", {"amplitude": 0.1}),
        ("graded-roughness", {"frequncy": 2.0}),
        ("rotation-valued", {"amplitude": 0.1}),
    ])
    def test_unknown_keyword_is_refused(self, name, params):
        with pytest.raises(TypeError, match="accepts"):
            builtin_p_field(name, unit_cell_grid(), **params)

    @pytest.mark.parametrize("name, params", [
        ("graded-roughness", {"seed": 2.7}),
        ("graded-roughness", {"seed": True}),
        ("graded-roughness", {"seed": -1}),
        ("graded-roughness", {"amplitude": "0.1"}),
        ("graded-roughness", {"frequency": float("inf")}),
        ("graded-roughness", {"min_det": -1}),
        ("graded-roughness", {"min_det": 0.0}),
        ("rotation-valued", {"base": True}),
        ("rotation-valued", {"phase": float("nan")}),
        ("rotation-valued", {"axis": (0.0, 0.0, 0.0)}),
        ("rotation-valued", {"lin": (0.1, 0.2)}),
        ("rotation-valued", {"freq": (1.0, True, 0.0)}),
        ("rotation-valued", {"freq": np.zeros((3, 3))}),
    ])
    def test_keyword_value_is_checked(self, name, params):
        with pytest.raises(ValueError, match="must be"):
            builtin_p_field(name, unit_cell_grid(), **params)

    def test_numpy_keyword_values_are_accepted(self):
        g = unit_cell_grid()
        p = builtin_p_field("graded-roughness", g, seed=np.int64(1),
                            frequency=np.float64(2.0))
        assert np.array_equal(p.values, builtin_p_field(
            "graded-roughness", g, seed=1, frequency=2.0).values)
        builtin_p_field("rotation-valued", g, axis=np.array([0.0, 1.0, 1.0]))


class TestRoughnessSweep:
    def test_reports_trend_points(self):
        g = unit_cell_grid(4)
        sweep = sweep_roughness(g, face_mask(g, 0, 0), [0.5, 1.0, 2.0],
                                amplitude=0.05, seed=0)
        assert len(sweep.points) == 3
        assert all(p.lambda_min > 0 for p in sweep.points)
        assert all(p.kernel_dim == 0 for p in sweep.points)
        assert "not a proof" in sweep.note


class TestGridConventions:
    def test_problem_requires_3d(self):
        g = GridSpec((5, 5), (0.0, 0.0), 0.2)
        with pytest.raises(DimensionMismatch):
            KornProblem(g, MatrixField.constant(g, np.eye(2)), None)
