"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s) and
asserts the criterion.  Runtime-limited criteria are timed with
perf_counter around exactly the work the criterion names.
"""

import math
import time

import numpy as np
import pytest

from korn_kit import algebra, analytic, korn, transport
from korn_kit.errors import NotIntegrable
from korn_kit.fields import (GridSpec, MatrixField, VectorField,
                             curl_product_discrepancy, fd_curl_rowwise, fd_grad,
                             refinement_errors)
from reference_algebra import build_l_operators


def verdict(number, description, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {number}: {description} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_determinant_identity():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    ys = rng.uniform(-1.0, 1.0, (1000, 3, 3))
    det_l = np.linalg.det(build_l_operators(ys).full)
    det_y = np.linalg.det(ys)
    gap = np.abs(det_l + 2.0 * det_y ** 3) / np.maximum(1.0, np.abs(det_y) ** 3)
    elapsed = time.perf_counter() - start
    worst = float(np.max(gap))
    ok = worst <= 1e-10 and elapsed < 1.0
    verdict(1, "determinant identity on 1000 seeded samples", ok,
            f"worst {worst:.3e} <= 1e-10, {elapsed:.2f}s < 1s")


def test_criterion_2_curl_product_field_identity():
    start = time.perf_counter()
    grid17 = GridSpec((17,) * 3, (0.0,) * 3, 1.0 / 16)
    x_quad = analytic.random_polynomial_matrix(1002, per_axis_degree=1)
    y_quad = analytic.random_polynomial_matrix(1003, per_axis_degree=1)
    quad_gap = curl_product_discrepancy(x_quad.sample(grid17), y_quad.sample(grid17))

    x_trig = analytic.random_trig_matrix(1004, wavenumber=2.0)
    y_trig = analytic.random_trig_matrix(1005, wavenumber=2.0)
    report = refinement_errors(
        lambda g: curl_product_discrepancy(x_trig.sample(g), y_trig.sample(g)),
        grid17, levels=2)
    elapsed = time.perf_counter() - start
    ok = quad_gap <= 1e-9 and report.min_order >= 1.9 and elapsed < 30.0
    verdict(2, "curl-of-product identity at field level", ok,
            f"quadratic gap {quad_gap:.3e} <= 1e-9, order {report.min_order:.3f} "
            f">= 1.9, {elapsed:.1f}s < 30s")


def test_criterion_3_skew_specialization():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(100):
        zeta = rng.uniform(-1.0, 1.0, 3)
        grad_axl = rng.uniform(-1.0, 1.0, (3, 3))
        y = rng.uniform(-1.0, 1.0, (3, 3))
        curl_y = rng.uniform(-1.0, 1.0, (3, 3))
        grad27 = np.zeros((9, 3))
        for c in range(3):
            grad27 += algebra.smat(np.eye(3)[c]).reshape(9, 1) * grad_axl[c][None, :]
        general = algebra.curl_product_pointwise(grad27, algebra.smat(zeta), y,
                                                 curl_y)
        special = algebra.curl_product_skew_pointwise(
            grad_axl, algebra.SkewMat3(zeta), y, curl_y)
        worst = max(worst, float(np.max(np.abs(general - special))))
    ok = worst <= 1e-13
    verdict(3, "skew specialization of the product formula", ok,
            f"worst gap {worst:.3e} <= 1e-13 on 100 seeded samples")


def _bounded_line_coefficient(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (3, 3))
    b = rng.uniform(-1.0, 1.0, (3, 3))
    omega = rng.uniform(0.5, 3.0)
    return transport.LineCoefficient(
        lambda t: a + b * math.sin(omega * t), (0.0, 1.0), 3)


def test_criterion_4_gronwall_uniqueness_and_envelope():
    worst_zero = 0.0
    worst_ratio = 0.0
    for seed in range(20):
        coef = _bounded_line_coefficient(2000 + seed)
        zero_traj = transport.integrate_line(coef, np.zeros(3), 200)
        worst_zero = max(worst_zero, zero_traj.max_norm())

        z0 = np.array([1.0, -0.5, 0.25])
        traj = transport.integrate_line(coef, z0, 200)
        bound = transport.gronwall_bound(coef, float(np.max(np.abs(z0))))
        for t, z in zip(traj.times[::10], traj.values[::10]):
            ratio = float(np.max(np.abs(z))) / bound(float(t))
            worst_ratio = max(worst_ratio, ratio)
    ok = worst_zero <= 1e-10 and worst_ratio <= 1.0 + 1e-6
    verdict(4, "line uniqueness and Gronwall envelope", ok,
            f"zero-data max {worst_zero:.3e} <= 1e-10, envelope ratio "
            f"{worst_ratio:.9f} <= 1 + 1e-6 over 20 seeded coefficients")


def test_criterion_5_counterexample():
    report = transport.counterexample_demo(epsilon=1e-3, steps=1000)
    full = transport.LineCoefficient(lambda t: np.array([[1.0 / t]]), (0.0, 1.0), 1)
    with pytest.raises(NotIntegrable):
        transport.gronwall_bound(full, 1.0)(1.0)
    ok = (report.identity_residual_max <= 1e-12 and report.full_divergent
          and report.truncated_solution_max <= 1e-10)
    verdict(5, "singular-coefficient counterexample", ok,
            f"identity residual {report.identity_residual_max:.3e} <= 1e-12, "
            f"1/t flagged not integrable, truncated zero-data max "
            f"{report.truncated_solution_max:.3e} <= 1e-10")


def test_criterion_6_cube_and_flood_propagation():
    start = time.perf_counter()
    grid = GridSpec((33,) * 3, (0.0,) * 3, 1.0 / 32)
    rng = np.random.default_rng(1007)
    coef = transport.CoefficientTensorField(
        grid, rng.uniform(-1.0, 1.0, grid.shape + (3, 3, 3)))
    zeta = transport.propagate_cube(coef, VectorField.zeros(grid.face(-1), 3), 200)
    residual = transport.system_residual(zeta, coef, tol=1e-10)
    cube_ok = zeta.max_norm() <= 1e-10 and residual.passed

    l_grid = GridSpec((25, 25, 13), (0.0,) * 3, 1.0 / 24)
    domain = np.zeros(l_grid.shape, dtype=bool)
    domain[:, :10, :] = True
    domain[:10, :, :] = True
    seed_mask = np.zeros(l_grid.shape, dtype=bool)
    seed_mask[:2, :10, :] = True
    l_coef = transport.CoefficientTensorField(
        l_grid, rng.uniform(-1.0, 1.0, l_grid.shape + (3, 3, 3)))
    flood = transport.flood_propagate(domain, seed_mask, l_coef,
                                      VectorField.zeros(l_grid, 3))
    elapsed = time.perf_counter() - start
    ok = cube_ok and flood.passed and flood.n_cuboids >= 2 and elapsed < 60.0
    verdict(6, "cube propagation and voxel flood covering", ok,
            f"zero-data max {zeta.max_norm():.3e} <= 1e-10, residual pass "
            f"{residual.passed}, L-domain cuboids {flood.n_cuboids} >= 2, "
            f"verdict {flood.passed}, {elapsed:.1f}s < 60s")


def test_criterion_7_korn_kernel_structure():
    start = time.perf_counter()
    grid = GridSpec((5,) * 3, (0.0,) * 3, 0.2)
    p = MatrixField.constant(grid, np.eye(3))
    free_form = korn.assemble_form(korn.KornProblem(grid, p, None))
    clamped_form = korn.assemble_form(
        korn.KornProblem(grid, p, korn.face_mask(grid, 0, 0)))
    results = {}
    for gram in ("l2", "h1"):
        results[("free", gram)] = korn.min_rayleigh(free_form, gram)
        results[("clamped", gram)] = korn.min_rayleigh(clamped_form, gram)
    elapsed = time.perf_counter() - start
    kernel_ok = all(results[("free", g)].kernel_dim == 6 for g in ("l2", "h1"))
    positive_ok = all(
        results[("clamped", g)].lambda_min > results[("clamped", g)].kernel_threshold
        for g in ("l2", "h1"))
    ok = kernel_ok and positive_ok and elapsed < 60.0
    verdict(7, "discrete Korn kernel structure on the 5^3 grid", ok,
            f"unconstrained kernel dim "
            f"{[results[('free', g)].kernel_dim for g in ('l2', 'h1')]} == 6, "
            f"clamped lambda_min "
            f"{[round(results[('clamped', g)].lambda_min, 6) for g in ('l2', 'h1')]}"
            f" > 0, {elapsed:.1f}s < 60s")


def test_criterion_8_gp_consistency_identity():
    zeta_case = analytic._random_trig((3,), 1008, 1.0, 2.0)
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
        rhs = algebra.mat_of_vec(np.einsum("...pq,...q->...p", l_full, hat_grad)) \
            + algebra.smat(zeta.values) @ fd_curl_rowwise(p).values
        inner = grid.interior()
        return float(np.max(np.abs(lhs[inner] - rhs[inner])))

    base = GridSpec((9,) * 3, (0.0,) * 3, 1.0 / 8)
    report = refinement_errors(identity_gap, base, levels=3)
    ok = report.min_order >= 1.9
    verdict(8, "transport-coefficient identity for skew products", ok,
            f"errors {[f'{e:.2e}' for e in report.max_errors]}, "
            f"order {report.min_order:.3f} >= 1.9")


def test_criterion_9_rigid_displacement_recovery():
    grid_small = GridSpec((9,) * 3, (0.0,) * 3, 1.0 / 8)
    pts = grid_small.points()
    omega = np.array([0.37, -0.81, 0.55])
    shift = np.array([0.9, -0.1, 0.4])
    phi = VectorField(grid_small, np.einsum(
        "ij,...j->...i", algebra.smat(omega), pts) + shift)
    psi = VectorField(grid_small, pts)
    affine = korn.rigid_recover(phi, psi)
    affine_ok = (affine.reconstruction_residual <= 1e-12
                 and affine.skewness_residual <= 1e-12
                 and float(np.max(np.abs(affine.rotation.axial - omega))) <= 1e-12)

    grid33 = GridSpec((33,) * 3, (0.0,) * 3, 1.0 / 32)
    pts = grid33.points()
    psi_vals = pts.copy()
    psi_vals[..., 2] += 0.25 * pts[..., 0] ** 2
    phi_vals = np.einsum("ij,...j->...i", algebra.smat(omega), psi_vals) + shift
    curvi = korn.rigid_recover(VectorField(grid33, phi_vals),
                               VectorField(grid33, psi_vals))
    h = grid33.spacing
    rotation_err = float(np.max(np.abs(curvi.rotation.axial - omega)))
    curvi_ok = (rotation_err <= 1e-6 and curvi.reconstruction_residual <= h ** 2)
    ok = affine_ok and curvi_ok
    verdict(9, "rigid displacement recovery", ok,
            f"affine residual {affine.reconstruction_residual:.3e} <= 1e-12, "
            f"curvilinear rotation error {rotation_err:.3e} <= 1e-6, "
            f"reconstruction {curvi.reconstruction_residual:.3e} <= h^2 = {h ** 2:.3e}")


def test_criterion_10_conjugation_identity():
    # Jacobian factors drawn with bounded conditioning: identity plus a
    # uniform [-0.25, 0.25] perturbation keeps the inverse tame, which is
    # what a 1e-12 pointwise tolerance presumes
    rng = np.random.default_rng(1010)
    grad_phi = rng.uniform(-1.0, 1.0, (1000, 3, 3))
    grad_psi = np.eye(3) + 0.25 * rng.uniform(-1.0, 1.0, (1000, 3, 3))
    lhs, rhs = korn.sym_conjugation_sides(grad_phi, grad_psi)
    worst = float(np.max(np.abs(lhs - rhs)))
    ok = worst <= 1e-12
    verdict(10, "strain conjugation identity", ok,
            f"worst gap {worst:.3e} <= 1e-12 on 1000 seeded pairs")
