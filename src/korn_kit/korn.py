"""Generalized Korn seminorm, its discrete kernel, and rigid displacements.

The seminorm of a displacement field u with coefficient field P is the
discrete L2 norm of sym(grad(u) P^{-1}).  Displacements live as nodal
values; gradients are the package's second-order finite differences, and
quadrature assigns each node its own cell of volume h^3, so a grid with
n*h = 1 per side integrates over a unit cube.

Whether the seminorm is a norm on boundary-constrained displacements is
probed through the smallest generalized Rayleigh quotient of the assembled
quadratic form against an L2 or H1 Gram matrix.  A near-kernel displacement
is run through the chain that connects the seminorm to a transport system:
its strain-free gradient is A = grad(u) P^{-1}, skew up to discretization,
and the axial vector of A solves grad(zeta) = G_P zeta with G_P built from
L_P^{-1} and curl(P).

scipy is imported by the functions that assemble a form or eigensolve it,
not by the module, so importing korn (and the package) needs only numpy.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import algebra
from .analytic import RotationMatrixField, random_trig_matrix
from .errors import DimensionMismatch, EigensolveFailed, GridTooLarge, UnknownKind
from .fields import (CoefficientTensorField, GridSpec, MatrixField, VectorField,
                     _gradient, _require_stencil_room, fd_curl_rowwise, fd_grad)
from .transport import ResidualReport, system_residual

if TYPE_CHECKING:  # annotations only; the solvers import scipy when they run
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

# bytes above which the band of the shift-invert factor is refused up front
_BAND_BYTES_CAP = 2 ** 32
# relative eigenpair residual above which a solve counts as failed
_PAIR_RESIDUAL_BOUND = 1e-8
# DOFs up to which min_rayleigh solves densely: the measured crossover with the
# banded shift-invert path, which wins 1.8-6x from 1029 DOFs (README)
DENSE_CAP = 1024


def boundary_mask(grid: GridSpec) -> np.ndarray:
    """Points with at least one extremal index: all but the interior."""
    mask = np.ones(grid.shape, dtype=bool)
    mask[grid.interior()] = False
    return mask


def face_mask(grid: GridSpec, axis: int = 0, side: int = 0,
              thickness: int = 1) -> np.ndarray:
    """Boolean mask of the thickness layers of grid points at one boundary face:
    side 0 is the face at index 0, side 1 the one at the last index."""
    if not (0 <= axis < grid.dim and side in (0, 1) and 1 <= thickness <= grid.shape[axis]):
        raise DimensionMismatch(f"a face of a {grid.dim}-d grid needs axis in "
                                f"0..{grid.dim - 1} and side 0 or 1, and a thickness "
                                f"up to the points along the axis, got axis {axis}, "
                                f"side {side}, thickness {thickness}")
    mask = np.zeros(grid.shape, dtype=bool)
    idx = [slice(None)] * grid.dim
    idx[axis] = slice(0, thickness) if side == 0 else slice(-thickness, None)
    mask[tuple(idx)] = True
    return mask


@dataclass(frozen=True)
class KornProblem:
    """Grid, coefficient field P, clamped boundary patch, determinant floor.

    gamma_mask marks the boundary points where displacements are pinned to
    zero; it must be non-empty and must only touch boundary points.  Passing
    None selects the deliberately unconstrained variant used for kernel
    experiments.
    """

    grid: GridSpec
    P: MatrixField
    gamma_mask: Optional[np.ndarray]
    min_det: float = algebra.DEFAULT_MIN_DET

    def __post_init__(self):
        if self.grid.dim != 3:
            raise DimensionMismatch("Korn problems are three-dimensional")
        if self.P.grid != self.grid:
            raise ValueError("P must live on the problem grid")
        algebra.det_floor(self.P.values, self.min_det, "P")
        if self.gamma_mask is not None:
            mask = np.asarray(self.gamma_mask, dtype=bool)
            if mask.shape != self.grid.shape:
                raise ValueError("gamma mask shape must match the grid")
            if not mask.any():
                raise ValueError("gamma mask must be non-empty; use None for the "
                                 "unconstrained variant")
            if np.any(mask & ~boundary_mask(self.grid)):
                raise ValueError("gamma mask may only mark boundary points")
            object.__setattr__(self, "gamma_mask", mask)


def seminorm(u: VectorField, P: MatrixField) -> float:
    """Discrete L2 norm of sym(grad(u) P^{-1}), nodal cells of volume h^3."""
    if u.grid != P.grid:
        raise DimensionMismatch("u and P must share a grid")
    algebra.det_floor(P.values, algebra.DEFAULT_MIN_DET, "P")
    p_inv = np.linalg.inv(P.values)
    strain = algebra.sym(fd_grad(u).values @ p_inv)
    h = u.grid.spacing
    return float(math.sqrt(h ** u.grid.dim * np.sum(strain * strain)))


def _gradient_operators(grid: GridSpec):
    """Sparse nodal derivative operators D_k on scalar point fields.

    Each 1-D factor is the package's stencil applied to the identity, so the
    operators and fd_grad difference alike.
    """
    import scipy.sparse as sp

    h = grid.spacing
    eyes = [sp.identity(n, format="csr") for n in grid.shape]
    ds = [sp.csr_matrix(_gradient(np.eye(n), h, 0)) for n in grid.shape]
    return [
        sp.kron(sp.kron(ds[0], eyes[1]), eyes[2], format="csr"),
        sp.kron(sp.kron(eyes[0], ds[1]), eyes[2], format="csr"),
        sp.kron(sp.kron(eyes[0], eyes[1]), ds[2], format="csr"),
    ]


@dataclass(frozen=True)
class DiscreteForm:
    """Constrained quadratic form of the seminorm, with companion Grams."""

    operator: sp.csr_matrix
    gram_l2: sp.csr_matrix
    gram_h1: sp.csr_matrix
    free: np.ndarray
    grid: GridSpec

    @property
    def n_dofs(self) -> int:
        return self.operator.shape[0]

    def gram(self, which: str) -> sp.csr_matrix:
        if which == "l2":
            return self.gram_l2
        if which == "h1":
            return self.gram_h1
        raise ValueError("gram must be 'l2' or 'h1'")

    def apply(self, u: VectorField) -> float:
        """Evaluate the form on a displacement field (clamped values dropped)."""
        flat = u.values.reshape(-1)[self.free]
        return float(flat @ (self.operator @ flat))

    def embed(self, vec: np.ndarray) -> VectorField:
        """Lift a constrained DOF vector back to a grid field, zeros on the clamp."""
        full = np.zeros(self.free.shape[0])
        full[self.free] = vec
        return VectorField(self.grid, full.reshape(self.grid.shape + (3,)))


def assemble_form(problem: KornProblem) -> DiscreteForm:
    """Assemble the seminorm-squared form and the L2 and H1 Gram matrices.

    DOFs are nodal displacement components ordered point-major; clamped
    points are eliminated.  The form is B^T B scaled by the cell volume, so
    it is symmetric non-negative by construction.  The 3-point stencils need
    at least 3 points along every axis; a smaller grid raises GridTooSmall.
    """
    import scipy.sparse as sp

    grid = problem.grid
    _require_stencil_room(grid)
    npts = grid.num_points
    h = grid.spacing
    d_ops = _gradient_operators(grid)
    unit_rows = [sp.csr_matrix((np.ones(1), ([0], [i])), shape=(1, 3)) for i in range(3)]

    # d_j = sum_k diag(P^-1[:, k, j]) D_k; d_j u_i is the (i, j) entry of grad(u) P^-1
    p_inv = np.linalg.inv(problem.P.values).reshape(npts, 3, 3)
    dirs = []
    for j in range(3):
        t0, t1, t2 = (sp.diags(p_inv[:, k, j]) @ d_ops[k] for k in range(3))
        dirs.append(t0 + t1 + t2)
    blocks = [0.5 * (sp.kron(dirs[j], unit_rows[i], format="csr")
                     + sp.kron(dirs[i], unit_rows[j], format="csr"))
              for i in range(3) for j in range(3)]
    b = sp.vstack(blocks, format="csr")
    operator = (h ** 3) * (b.T @ b)
    operator = 0.5 * (operator + operator.T)

    # (npts, 3 npts) operator for d_k u_i, rows ordered (i, k)
    grad_stack = sp.vstack([sp.kron(d_ops[k], unit_rows[i], format="csr")
                            for i in range(3) for k in range(3)], format="csr")
    eye = sp.identity(3 * npts, format="csr")
    gram_l2 = (h ** 3) * eye
    gram_h1 = (h ** 3) * (eye + grad_stack.T @ grad_stack)
    gram_h1 = 0.5 * (gram_h1 + gram_h1.T)

    if problem.gamma_mask is None:
        free = np.ones(3 * npts, dtype=bool)
    else:
        free = ~np.repeat(problem.gamma_mask.reshape(-1), 3)

    def restrict(m):
        return m.tocsr()[free][:, free].tocsr()

    return DiscreteForm(restrict(operator), restrict(gram_l2), restrict(gram_h1),
                        free, grid)


@dataclass(frozen=True)
class RayleighResult:
    """Smallest generalized eigenpairs of (form, gram) plus kernel census.

    census_complete says whether kernel_dim counts the whole kernel: either
    every pair was computed or the largest computed eigenvalue clears the
    kernel threshold.  eigenpair_residual is the largest relative residual
    ||A v - lambda M v|| / (||A||_1 ||v||) over the computed pairs.
    """

    lambda_min: float
    eigenvector: VectorField
    eigenvalues: np.ndarray
    kernel_dim: int
    kernel_threshold: float
    gram: str
    dense: bool
    census_complete: bool
    eigenpair_residual: float


def _identity_scale(m: sp.spmatrix) -> Optional[float]:
    """c when m is c times the identity with c > 0, else None."""
    diag = m.diagonal()
    if (diag.size and diag[0] > 0 and np.all(diag == diag[0])
            and m.count_nonzero() == diag.size):
        return float(diag[0])
    return None


def _half_bandwidth(a: sp.spmatrix, order: np.ndarray) -> int:
    """Largest |i - j| over the nonzeros of a with its DOFs taken in order."""
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    coo = a.tocoo()
    return int(np.max(np.abs(rank[coo.row] - rank[coo.col])))


def _band_order(form: DiscreteForm) -> np.ndarray:
    """Permutation of the free DOFs that narrows the band of the form.

    Two candidates: reverse Cuthill-McKee on the form's pattern, whose level
    sets are the diagonal sheets of the stencil graph, and the point-major
    order with grid axes running longest slowest (ties keep their order) and
    each point's three components together, clamped DOFs dropped.  The one
    with the smaller half-bandwidth wins, point-major on a tie: RCM is about
    a quarter narrower on a cube but wider on elongated boxes.
    """
    import scipy.sparse.csgraph as csgraph

    shape = form.grid.shape
    axes = sorted(range(len(shape)), key=lambda ax: -shape[ax])
    points = np.arange(form.grid.num_points).reshape(shape).transpose(axes)
    dofs = (3 * points.reshape(-1)[:, None] + np.arange(3)).reshape(-1)
    free_index = np.cumsum(form.free) - 1
    point_major = free_index[dofs[form.free[dofs]]]
    rcm = csgraph.reverse_cuthill_mckee(form.operator, symmetric_mode=True)
    return min((point_major, rcm.astype(point_major.dtype)),
               key=lambda order: _half_bandwidth(form.operator, order))


def _shift_invert(a: sp.spmatrix, m: sp.spmatrix, sigma: float,
                  order: np.ndarray) -> spla.LinearOperator:
    """(a - sigma m)^{-1} through one banded Cholesky factor in the given DOF order.

    a - sigma m is symmetric positive definite for sigma < 0; a band above
    _BAND_BYTES_CAP raises GridTooLarge before it is allocated.
    """
    import scipy.linalg
    import scipy.sparse.linalg as spla

    shifted = (a - sigma * m).tocoo()
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    rows, cols = rank[shifted.row], rank[shifted.col]
    keep = rows >= cols
    rows, cols = rows[keep], cols[keep]
    width = int(np.max(rows - cols))
    if (width + 1) * order.size * 8 > _BAND_BYTES_CAP:
        raise GridTooLarge(f"shift-invert band of {width + 1} x {order.size} needs "
                           f"more than {_BAND_BYTES_CAP} bytes")
    band = np.zeros((width + 1, order.size), order="F")
    band[rows - cols, cols] = shifted.data[keep]
    factor = scipy.linalg.cholesky_banded(band, overwrite_ab=True, lower=True,
                                          check_finite=False)

    def solve(b):
        x = np.empty_like(b)
        x[order] = scipy.linalg.cho_solve_banded((factor, True), b[order],
                                                 check_finite=False)
        return x

    return spla.LinearOperator(a.shape, matvec=solve, dtype=float)


def _pair_residual(a: sp.spmatrix, m: sp.spmatrix, w: np.ndarray,
                   v: np.ndarray) -> float:
    """max_i ||a v_i - w_i m v_i|| / (||a||_1 ||v_i||); fails above the bound."""
    import scipy.sparse.linalg as spla

    norms = np.linalg.norm(a @ v - (m @ v) * w, axis=0) / np.linalg.norm(v, axis=0)
    residual = float(np.max(norms)) / float(spla.norm(a, 1))
    if not residual <= _PAIR_RESIDUAL_BOUND:
        raise EigensolveFailed(f"eigenpair residual {residual:.3e} exceeds "
                               f"{_PAIR_RESIDUAL_BOUND:.0e}")
    return residual


def _ritz_pairs(a: sp.spmatrix, m: sp.spmatrix, basis: np.ndarray,
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest Rayleigh-Ritz pairs of (a, m) on the span of basis.

    The basis is made m-orthonormal first, dropping directions that its
    columns repeat, so the columns need not be independent.
    """
    import scipy.linalg

    g, u = scipy.linalg.eigh(basis.T @ (m @ basis))
    kept = g > 1e-10 * g[-1]
    q = basis @ (u[:, kept] / np.sqrt(g[kept]))
    w, y = scipy.linalg.eigh(q.T @ (a @ q))
    return w[:k], q @ y[:, :k]


def _has_repeats(w: np.ndarray, threshold: float) -> bool:
    """Whether two eigenvalues above the kernel threshold agree to 1e-8 relative."""
    live = w[w >= threshold]
    return bool(live.size > 1 and np.any(np.diff(live) <= 1e-8 * live[-1]))


def min_rayleigh(form: DiscreteForm, gram: str = "l2", *, dense_cap: int = DENSE_CAP,
                 n_eigs: int = 12) -> RayleighResult:
    """The n_eigs smallest Rayleigh quotients of the form against the chosen Gram.

    Up to dense_cap DOFs (DENSE_CAP by default) LAPACK computes only those
    pairs; a Gram that is a multiple c I of the identity (the L2 Gram) gives
    the standard problem on the form alone, with eigenvalues divided by c.
    Above the cap, shift-and-invert Lanczos finds min(n_eigs, DOFs - 1)
    pairs from one banded Cholesky factor of the shifted form, its DOFs in
    the narrower-band order of reverse Cuthill-McKee and point-major (see
    _band_order); a band too large for memory raises GridTooLarge before it
    is allocated.  The Lanczos eigenvalues are recovered as sigma + 1/theta,
    which is only first order in the residual and worst on free problems,
    whose 6-fold kernel sits at 1/|sigma|; so a Rayleigh-Ritz step on the
    returned vectors replaces them by Rayleigh quotients, as accurate as the
    dense solve's.  Single-vector Lanczos can miss a copy of a repeated
    eigenvalue (a symmetric problem such as P = I on a cube has 6-fold
    ones), so when two computed eigenvalues above the kernel threshold
    agree, a second Lanczos run from another fixed start joins the
    Rayleigh-Ritz step; a repeated eigenvalue of which only one copy was
    found shows no such agreement and is not caught.
    Eigenvalues below 1e-10 * trace(form)/DOFs count as kernel; the census
    is complete only when it cannot miss kernel pairs beyond the computed
    ones.  Every pair is checked by its relative residual, and a solve whose
    residual exceeds 1e-8 raises EigensolveFailed.
    """
    import scipy.linalg
    import scipy.sparse.linalg as spla

    n = form.n_dofs
    a = form.operator
    m = form.gram(gram)
    threshold = 1e-10 * float(a.diagonal().sum()) / max(n, 1)
    dense = n <= dense_cap
    k = min(n_eigs, n if dense else n - 1)
    try:
        if dense:
            scale = _identity_scale(m)
            if scale is None:
                w, v = scipy.linalg.eigh(a.toarray(), m.toarray(),
                                         subset_by_index=(0, k - 1))
            else:
                w, v = scipy.linalg.eigh(a.toarray(), subset_by_index=(0, k - 1))
                w = w / scale
        else:
            sigma = -1e-6 * max(float(a.diagonal().max()), 1.0)
            op = _shift_invert(a, m, sigma, _band_order(form))
            # fixed start vectors keep ARPACK, and so the report, reproducible;
            # not ones, a rigid motion, on which every free problem breaks down
            # at once and ARPACK restarts from its own process-wide generator
            starts = np.random.default_rng(0).standard_normal((2, n))
            _, v = spla.eigsh(a, k=k, M=m, sigma=sigma, which="LM", v0=starts[0],
                              OPinv=op)
            w, v = _ritz_pairs(a, m, v, k)
            if _has_repeats(w, threshold):
                # one Lanczos run holds one direction per eigenspace, and the
                # further copies of a repeated eigenvalue grow only from
                # roundoff, so one can be missed at the end of the batch; a
                # run from the second start adds a second direction
                _, v2 = spla.eigsh(a, k=k, M=m, sigma=sigma, which="LM",
                                   v0=starts[1], OPinv=op)
                w, v = _ritz_pairs(a, m, np.column_stack([v, v2]), k)
    except GridTooLarge:  # a ValueError, but a refusal up front, not a failed solve
        raise
    except (RuntimeError, ValueError) as exc:  # arpack / lapack failures
        raise EigensolveFailed(str(exc)) from exc
    residual = _pair_residual(a, m, w, v)
    kernel_dim = int(np.count_nonzero(w < threshold))
    census_complete = bool(k == n or w[-1] >= threshold)
    vec = v[:, 0]
    peak = np.max(np.abs(vec))
    if peak > 0:
        vec = vec / peak
    return RayleighResult(float(w[0]), form.embed(vec), w, kernel_dim,
                          float(threshold), gram, dense, census_complete, residual)


def build_gp(P: MatrixField, curl_p: Optional[MatrixField] = None,
             min_det: float = algebra.DEFAULT_MIN_DET) -> CoefficientTensorField:
    """Coefficient tensor of the transport system satisfied by axial vectors.

    Per point the linear map is zeta -> -mat(L_P^{-1} vec(smat(zeta) curl P)),
    so column m of G_P is -L_P^{-1}(smat(e_m) curl P), applied by the closed
    form algebra.apply_l_inverse with no 9x9 matrix per point.  It vanishes
    wherever curl P does, and L_P is invertible because det P is bounded below.
    """
    grid = P.grid
    if grid.dim != 3:
        raise DimensionMismatch("the coefficient tensor is three-dimensional")
    dets = algebra.det_floor(P.values, min_det, "P")
    if curl_p is None:
        curl_p = fd_curl_rowwise(P)
    elif curl_p.grid != grid:
        raise ValueError("curl_p must live on the grid of P")
    values = np.empty(grid.shape + (3, 3, 3))
    # -smat(e_m) carries the sign, since L_P^{-1} is linear
    for m, neg_e_m in enumerate(algebra.smat(-np.eye(3))):
        values[..., m] = algebra.apply_l_inverse(P.values, neg_e_m @ curl_p.values,
                                                 dets)
    return CoefficientTensorField(grid, values)


@dataclass(frozen=True)
class KernelDiagnostics:
    """Trace of the seminorm-to-transport chain on one displacement."""

    skewness_residual: float
    zeta: VectorField
    zeta_gamma_max: Optional[float]
    transport_residual: ResidualReport
    boundary_condition_missing: bool


def kernel_vector_diagnostics(problem: KornProblem, u: VectorField) -> KernelDiagnostics:
    """Follow a candidate kernel displacement through the transport chain."""
    if u.grid != problem.grid:
        raise DimensionMismatch("u must live on the problem grid")
    p_inv = np.linalg.inv(problem.P.values)
    a_field = fd_grad(u).values @ p_inv
    skewness = float(np.max(np.abs(algebra.sym(a_field))))
    zeta = VectorField(problem.grid, algebra.axl(algebra.skew(a_field)))
    gp = build_gp(problem.P, min_det=problem.min_det)
    residual = system_residual(zeta, gp)
    if problem.gamma_mask is None:
        gamma_max = None
        missing = True
    else:
        gamma_max = float(np.max(np.abs(zeta.values[problem.gamma_mask])))
        missing = False
    return KernelDiagnostics(skewness, zeta, gamma_max, residual, missing)


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of probing whether the seminorm is a norm at this resolution."""

    rayleigh: RayleighResult
    diagnostics: Optional[KernelDiagnostics]
    diagnosis: str

    @property
    def kernel_found(self) -> bool:
        return self.rayleigh.lambda_min < self.rayleigh.kernel_threshold


def norm_property_probe(problem: KornProblem, gram: str = "l2", *,
                        dense_cap: int = DENSE_CAP) -> ProbeReport:
    """Eigen-probe the constrained form; dissect any kernel vector found."""
    ray = min_rayleigh(assemble_form(problem), gram, dense_cap=dense_cap)
    diag = None
    message = ("smallest Rayleigh quotient is positive: the seminorm "
               "is a norm on the constrained space at this resolution")
    if ray.lambda_min < ray.kernel_threshold:  # the report's kernel_found
        diag = kernel_vector_diagnostics(problem, ray.eigenvector)
        if diag.boundary_condition_missing:
            message = ("kernel displacement found; its axial vector solves the "
                       "transport system but no boundary condition pins it down "
                       "(no clamped patch), so uniqueness cannot engage")
        elif diag.zeta_gamma_max is not None and diag.transport_residual.passed:
            message = ("kernel displacement found although the transport chain is "
                       "consistent; boundary trace of the axial vector is "
                       f"{diag.zeta_gamma_max:.3e}")
        else:
            message = ("kernel displacement found; the transport identity fails at "
                       "this resolution, pointing at discretization error")
    return ProbeReport(ray, diag, message)


@dataclass(frozen=True)
class RigidRecovery:
    """Constant skew map and translation recovered from two configurations."""

    rotation: algebra.SkewMat3
    translation: np.ndarray
    skewness_residual: float
    constancy_residual: float
    reconstruction_residual: float


def rigid_recover(phi: VectorField, psi: VectorField,
                  min_det: float = algebra.DEFAULT_MIN_DET) -> RigidRecovery:
    """Recover A and a with phi ~= A psi + a from pointwise gradient ratios.

    A(x) = grad(phi) grad(psi)^{-1} should be skew and constant when phi is
    an infinitesimal rigid displacement of psi; the residuals report how far
    the sampled fields are from that ideal.
    """
    if phi.grid != psi.grid:
        raise DimensionMismatch("phi and psi must share a grid")
    grad_phi = fd_grad(phi).values
    grad_psi = fd_grad(psi).values
    algebra.det_floor(grad_psi, min_det, "grad(psi)")
    a_field = grad_phi @ np.linalg.inv(grad_psi)
    skewness = float(np.max(np.abs(algebra.sym(a_field))))
    spatial = tuple(range(phi.grid.dim))
    a_bar = a_field.mean(axis=spatial)
    rotation = algebra.SkewMat3(algebra.axl(algebra.skew(a_bar)))
    constancy = float(np.max(np.abs(a_field - rotation.matrix)))
    mapped = np.einsum("ij,...j->...i", rotation.matrix, psi.values)
    translation = (phi.values - mapped).mean(axis=spatial)
    reconstruction = float(np.max(np.abs(phi.values - mapped - translation)))
    return RigidRecovery(rotation, translation, skewness, constancy, reconstruction)


def sym_conjugation_sides(grad_phi, grad_psi):
    """Both sides of the strain conjugation identity, batched.

    Left: F_psi^{-T} sym(F_phi^T F_psi) F_psi^{-1}; right: sym(F_phi F_psi^{-1}).
    They agree identically for invertible F_psi.
    """
    f_phi = np.asarray(grad_phi, dtype=float)
    f_psi = np.asarray(grad_psi, dtype=float)
    inv = np.linalg.inv(f_psi)
    inv_t = np.swapaxes(inv, -1, -2)
    lhs = inv_t @ algebra.sym(np.swapaxes(f_phi, -1, -2) @ f_psi) @ inv
    rhs = algebra.sym(f_phi @ inv)
    return lhs, rhs


def _is_real(v) -> bool:
    """Whether v is a finite real number; a bool is never a number."""
    # comparing first keeps a huge int from overflowing a float conversion
    return (isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))
            and -sys.float_info.max <= v <= sys.float_info.max)


def _is_vector(v) -> bool:
    return ((isinstance(v, (list, tuple)) or getattr(v, "ndim", 0) == 1)
            and len(v) == 3 and all(map(_is_real, v)))


_REAL = ("a finite number", _is_real)
_VECTOR = ("three finite numbers", _is_vector)

# keyword -> (default, (what a value must be, its check)) for each built-in
# coefficient family
_FAMILY_KEYWORDS = {
    "identity": {},
    "rotation-valued": {
        "axis": ((0.0, 0.0, 1.0), ("three finite numbers, not all zero",
                                   lambda v: _is_vector(v) and any(v))),
        "base": (0.3, _REAL), "lin": ((0.4, 0.2, 0.1), _VECTOR), "amp": (0.0, _REAL),
        "freq": ((0.0, 0.0, 0.0), _VECTOR), "phase": (0.0, _REAL)},
    "graded-roughness": {
        "amplitude": (0.1, _REAL), "frequency": (1.0, _REAL),
        "seed": (0, ("an integer >= 0", lambda v: isinstance(v, numbers.Integral)
                     and _is_real(v) and v >= 0)),
        "min_det": (0.1, ("a positive finite number", lambda v: _is_real(v) and v > 0))},
}


def builtin_p_field(name: str, grid: GridSpec, **params) -> MatrixField:
    """Built-in coefficient families: identity, rotation-valued, graded-roughness.

    The graded-roughness family is identity plus a seeded trigonometric
    perturbation whose wavenumber acts as the roughness knob; amplitudes are
    kept small enough that the determinant floor stays safe.  An unknown
    family raises UnknownKind and a keyword the family does not accept
    raises TypeError, so a misspelt parameter never falls back to its default.
    A keyword of the wrong type or out of range raises ValueError.
    """
    if not isinstance(name, str) or name not in _FAMILY_KEYWORDS:
        raise UnknownKind(f"unknown coefficient family {name!r}; the families are "
                          f"{', '.join(_FAMILY_KEYWORDS)}")
    accepted = _FAMILY_KEYWORDS[name]
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise TypeError(f"{name} accepts {', '.join(accepted) or 'no keywords'}, "
                        f"got {', '.join(map(repr, unknown))}")
    for key, value in params.items():
        wanted, accept = accepted[key][1]
        if not accept(value):
            raise ValueError(f"{name} {key} must be {wanted}, got {value!r}")
    kw = {key: params.get(key, default) for key, (default, _) in accepted.items()}
    if name == "identity":
        return MatrixField.constant(grid, np.eye(3))
    if name == "rotation-valued":
        return RotationMatrixField(**kw).sample(grid)
    trig = random_trig_matrix(int(kw["seed"]), amplitude=float(kw["amplitude"]),
                              wavenumber=float(kw["frequency"]))
    values = np.broadcast_to(np.eye(3), grid.shape + (3, 3)) + trig.value(grid.points())
    algebra.det_floor(values, float(kw["min_det"]), "of the graded-roughness field")
    return MatrixField(grid, values)


@dataclass(frozen=True)
class SweepPoint:
    frequency: float
    lambda_min: float
    kernel_dim: int


@dataclass(frozen=True)
class RoughnessSweep:
    """Trend of the smallest Rayleigh quotient against coefficient roughness.

    Numerical evidence only: a monotone trend at fixed resolution neither
    proves nor refutes anything about the continuum problem.
    """

    points: tuple
    amplitude: float
    gram: str
    note: str = "numerical evidence only, not a proof"


def sweep_roughness(grid: GridSpec, gamma_mask, frequencies, *, amplitude: float = 0.1,
                    seed: int = 0, gram: str = "l2",
                    dense_cap: int = DENSE_CAP) -> RoughnessSweep:
    """Sweep the graded-roughness family and record lambda_min per frequency."""
    points = []
    for freq in frequencies:
        p = builtin_p_field("graded-roughness", grid, amplitude=amplitude,
                            frequency=float(freq), seed=seed)
        problem = KornProblem(grid, p, gamma_mask)
        ray = min_rayleigh(assemble_form(problem), gram, dense_cap=dense_cap)
        points.append(SweepPoint(float(freq), ray.lambda_min, ray.kernel_dim))
    return RoughnessSweep(tuple(points), float(amplitude), gram)
