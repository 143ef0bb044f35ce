"""Pointwise algebra of 3x3 matrices and their 9-vector identifications.

Conventions used throughout the package:

* ``vec`` flattens a 3x3 matrix row-major, so entry (i, j) sits at index
  3*i + j; ``mat`` is its inverse.
* For a skew-symmetric matrix A the axial vector a = axl(A) satisfies
  A @ x == cross(a, x) for every x, and smat is the inverse map.
* The row-built 9x9 operators L_diag, L_skew, L_sym and L = L_skew + L_sym
  of a 3x3 matrix Y have every nonzero block +-smat(row of Y).  L is
  symmetric and det L == -2 * det(Y)**3, so L is invertible exactly when Y
  is.  The curl-of-product formulas apply them as cross products of the
  rows of Y and apply_l_inverse inverts L in closed form, so the fields
  build no 9x9 matrix; selftest reads them off those kernels.
* A "grad27" value collects the nine entry gradients of a matrix field,
  shape (9, 3): row k is the spatial gradient of vec(X)[k].

All functions broadcast over leading axes, so they apply equally to a
single matrix or to a whole grid of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DeterminantTooSmall

DEFAULT_MIN_DET = 1e-12

# vec indices of the diagonal, strictly-upper and strictly-lower entries,
# with signs, as read by the three extraction maps and, on grad27, by the
# curl of a product; each sign is a row so that it scales a whole gathered row.
_DVEC_IDX = (0, 4, 8)
_DVEC_SIGN = np.array([[1.0], [1.0], [1.0]])
_SKEWVEC_IDX = (5, 2, 1)
_SKEWVEC_SIGN = np.array([[-1.0], [1.0], [-1.0]])
_SYMVEC_IDX = (7, 6, 3)
_SYMVEC_SIGN = np.array([[1.0], [-1.0], [1.0]])


def _as_float_array(a, shape_suffix, name):
    arr = np.asarray(a, dtype=float)
    if arr.shape[len(arr.shape) - len(shape_suffix):] != shape_suffix:
        raise ValueError(f"{name} must have trailing shape {shape_suffix}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def mat_of_vec(v):
    """Reshape a 9-vector into a 3x3 matrix, row-major."""
    v = _as_float_array(v, (9,), "v")
    return v.reshape(v.shape[:-1] + (3, 3))


def vec_of_mat(m):
    """Flatten a 3x3 matrix into a 9-vector, row-major."""
    m = _as_float_array(m, (3, 3), "m")
    return m.reshape(m.shape[:-2] + (9,))


def sym(m):
    """Symmetric part 0.5 * (m + m^T)."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def skew(m):
    """Skew part 0.5 * (m - m^T); exactly antisymmetric in IEEE arithmetic."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m - np.swapaxes(m, -1, -2))


def det_floor(m, min_det: float, name: str) -> np.ndarray:
    """det of 3x3 matrices; DeterminantTooSmall, naming the matrix, below min_det."""
    dets = np.linalg.det(m)
    if np.any(dets < min_det):
        raise DeterminantTooSmall(
            f"det {name} reaches {float(dets.min()):g}, floor is {min_det:g}")
    return dets


def smat(a):
    """Skew-symmetric matrix of a 3-vector: smat(a) @ x == cross(a, x)."""
    a = _as_float_array(a, (3,), "a")
    out = np.zeros(a.shape[:-1] + (3, 3), dtype=float)
    out[..., 0, 1] = -a[..., 2]
    out[..., 0, 2] = a[..., 1]
    out[..., 1, 0] = a[..., 2]
    out[..., 1, 2] = -a[..., 0]
    out[..., 2, 0] = -a[..., 1]
    out[..., 2, 1] = a[..., 0]
    return out


def axl(a):
    """Axial vector of a skew-symmetric matrix (inverse of smat).

    Accepts a SkewMat3 or an exactly skew-symmetric array; rejects
    anything whose transpose is not the exact negative, because the
    extraction is meaningless off so(3).
    """
    if isinstance(a, SkewMat3):
        return a.axial.copy()
    m = _as_float_array(a, (3, 3), "a")
    if not np.array_equal(np.swapaxes(m, -1, -2), -m):
        raise ValueError("axl requires an exactly skew-symmetric matrix")
    return np.stack([m[..., 2, 1], m[..., 0, 2], m[..., 1, 0]], axis=-1)


@dataclass(frozen=True)
class SkewMat3:
    """Skew-symmetric 3x3 matrix stored by its axial vector.

    Storing the three independent entries makes skew-symmetry a structural
    fact rather than a numerical one; the curl-of-product shortcut for skew
    factors is only valid on exactly skew input.
    """

    axial: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "axial", _as_float_array(self.axial, (3,), "axial"))

    @classmethod
    def from_matrix(cls, m):
        """Build from a 3x3 matrix whose symmetric part is exactly zero."""
        m = _as_float_array(m, (3, 3), "m")
        worst = float(np.max(np.abs(sym(m))))
        if worst > 0.0:
            raise ValueError(f"matrix is not skew-symmetric (|sym part| = {worst:g})")
        return cls(axl(skew(m)))

    @property
    def matrix(self) -> np.ndarray:
        return smat(self.axial)


def _gather(rows, idx, sign):
    # rows idx of a (..., 9, k) array in one take, each scaled (exactly) by its sign
    out = np.take(rows, idx, axis=-2)
    out *= sign
    return out


def dvec(m):
    """Diagonal entries of a 3x3 matrix as a 3-vector."""
    return _gather(vec_of_mat(m)[..., None], _DVEC_IDX, _DVEC_SIGN)[..., 0]


def skewvec(m):
    """Strictly-upper entry data (-m23, m13, -m12); equals axl on so(3)."""
    return _gather(vec_of_mat(m)[..., None], _SKEWVEC_IDX, _SKEWVEC_SIGN)[..., 0]


def symvec(m):
    """Strictly-lower entry data (m32, -m31, m21); equals axl on so(3)."""
    return _gather(vec_of_mat(m)[..., None], _SYMVEC_IDX, _SYMVEC_SIGN)[..., 0]


def apply_l_inverse(y, h, det_y) -> np.ndarray:
    """mat(L_Y^{-1} vec(H)) for batched 3x3 Y and H, given det Y.

    L_Y is the derivative of the cofactor map at Y: row n of cof Y is the
    cross product of the other two rows, whose derivative gives the
    +-smat(row of Y) blocks.  Differentiating cof Y = det(Y) Y^{-T} and
    solving L_Y(K) = H gives K = (tr(Y^T H)/2 Y - Y H^T Y) / det Y, two 3x3
    products and a trace; at Y = I it is Nye's formula tr(H)/2 I - H^T.
    The caller has det Y and guards its floor.
    """
    out = 0.5 * np.einsum("...ij,...ij->...", y, h)[..., None, None] * y
    out -= y @ np.swapaxes(h, -1, -2) @ y
    out /= np.asarray(det_y)[..., None, None]
    return out


def curl_row(d) -> np.ndarray:
    """Curl (..., 3) of row l of a matrix field from d[c][j] = d_j M_lc."""
    return np.stack([d[2][1] - d[1][2], d[0][2] - d[2][0], d[1][0] - d[0][1]],
                    axis=-1)


def _apply_l(y, gd, gs, gm) -> np.ndarray:
    """Rows of L_diag @ gd + L_skew @ gs + L_sym @ gm, shape (..., 3, 3).

    y holds Y and gd, gs, gm the 9-vectors as (..., 3, 3) blocks of three.
    Every nonzero 3x3 block of the operators is +-smat of a row of Y, so
    each block product is a cross product with that row.  gd=None drops
    L_diag.
    """
    y0, y1, y2 = y[..., 0, :], y[..., 1, :], y[..., 2, :]
    rows = [np.cross(y1, gs[..., 2, :]) - np.cross(y2, gs[..., 1, :]),
            np.cross(y2, gs[..., 0, :]) - np.cross(y0, gm[..., 2, :]),
            np.cross(y0, gm[..., 1, :]) - np.cross(y1, gm[..., 0, :])]
    if gd is not None:
        rows = [r - np.cross(y[..., n, :], gd[..., n, :]) for n, r in enumerate(rows)]
    return np.stack(rows, axis=-2)


def curl_product_pointwise(grad_x, x, y, curl_y) -> np.ndarray:
    """Row-wise curl of the product X @ Y from pointwise data.

    Evaluates mat(L_diag @ g_d + L_skew @ g_s + L_sym @ g_m) + X @ curl(Y),
    where g_d, g_s, g_m are the stacked gradients of the diagonal,
    strictly-upper and strictly-lower extractions of X, read off grad_x.
    The L products are cross products of the rows of Y (see _apply_l), so
    memory stays a few 3x3 arrays per point.
    """
    grad_x = _as_float_array(grad_x, (9, 3), "grad_x")
    x = _as_float_array(x, (3, 3), "x")
    y = _as_float_array(y, (3, 3), "y")
    curl_y = _as_float_array(curl_y, (3, 3), "curl_y")
    gd, gs, gm = (_gather(grad_x, idx, sign)
                  for idx, sign in ((_DVEC_IDX, _DVEC_SIGN),
                                    (_SKEWVEC_IDX, _SKEWVEC_SIGN),
                                    (_SYMVEC_IDX, _SYMVEC_SIGN)))
    return _apply_l(y, gd, gs, gm) + x @ curl_y


def curl_product_skew_pointwise(grad_axl, a, y, curl_y) -> np.ndarray:
    """Row-wise curl of A @ Y for skew A, from the gradient of its axial vector.

    grad_axl is the 3x3 Jacobian of the axial vector (row i is the gradient
    of component i); the result is mat(L @ vec(grad_axl)) + A @ curl(Y),
    with L @ g applied as L_skew @ g + L_sym @ g.
    """
    grad_axl = _as_float_array(grad_axl, (3, 3), "grad_axl")
    if not isinstance(a, SkewMat3):
        a = SkewMat3.from_matrix(a)
    y = _as_float_array(y, (3, 3), "y")
    curl_y = _as_float_array(curl_y, (3, 3), "curl_y")
    return _apply_l(y, None, grad_axl, grad_axl) + a.matrix @ curl_y


# the nine unit 9-vectors as 3x3 matrices, vec(_UNITS[k]) = e_k, and smat(e_c)
_UNITS = np.eye(9).reshape(9, 3, 3)
_SKEWS = smat(np.eye(3))


def read_l_operators(ys):
    """L, L_skew and L_sym of each Y in ys, read column by column off the kernels.

    Column k of L is the skew formula fed the axial-vector Jacobian e_k.
    Column 3 i + j of L_skew (L_sym) is the general formula fed the entry
    gradients e_j of the strictly-upper (strictly-lower) part of smat(e_i),
    whose skewvec (symvec) is e_i and whose other extractions are zero.
    """
    ys = np.asarray(ys, dtype=float)[..., None, :, :]
    zero = np.zeros((3, 3))
    columns = [curl_product_skew_pointwise(_UNITS, SkewMat3(np.zeros(3)), ys, zero)]
    for part in (np.triu(_SKEWS, 1), np.tril(_SKEWS, -1)):
        grad27 = np.einsum("ipq,jr->ijpqr", part, np.eye(3)).reshape(9, 9, 3)
        columns.append(curl_product_pointwise(grad27, zero, ys, zero))
    # entry k of each stack is mat(column k)
    return [np.swapaxes(c.reshape(c.shape[:-3] + (9, 9)), -1, -2) for c in columns]


def selftest(rng, tol_det: float, tol_skew: float) -> list:
    """Rows [check, samples, worst, tolerance, passed] of the algebra's checks.

    The samples are drawn from rng, and each check is one batched expression
    over them.  L is read off the curl-of-product kernels and inverted by
    apply_l_inverse, so the checks certify the code the fields run.
    """
    vs = rng.uniform(-1, 1, (100, 9))
    axes, xs = rng.uniform(-1, 1, (2, 100, 3))
    ys = rng.uniform(-1, 1, (1000, 3, 3))
    # per sample: zeta, then the axial Jacobian, Y and curl Y as 3x3 blocks
    zeta, *blocks = np.split(rng.uniform(-1, 1, (100, 30)), [3, 12, 21], axis=1)
    grad_axl, y, curl_y = (block.reshape(100, 3, 3) for block in blocks)
    y_inv = rng.uniform(-1, 1, (20, 3, 3))
    y_inv /= np.cbrt(np.abs(np.linalg.det(y_inv)))[:, None, None]

    layout = np.arange(1.0, 10.0)
    skews = smat(axes)
    l_full, l_skew, l_sym = read_l_operators(ys)
    det_y = np.linalg.det(ys)
    # entry gradients of smat(zeta) when the axial vector has Jacobian grad_axl
    grad27 = np.einsum("cpq,nck->npqk", _SKEWS, grad_axl).reshape(100, 9, 3)
    general = curl_product_pointwise(grad27, smat(zeta), y, curl_y)
    special = curl_product_skew_pointwise(grad_axl, SkewMat3(zeta), y, curl_y)
    columns = apply_l_inverse(y_inv[:, None], _UNITS, np.linalg.det(y_inv)[:, None])
    l_inv = np.swapaxes(columns.reshape(20, 9, 9), -1, -2)

    checks = [
        ("mat_of_vec_layout", 1, np.max(np.abs(mat_of_vec(layout) - layout.reshape(3, 3))),
         0.0),
        ("vec_mat_roundtrip", 100, np.max(np.abs(vec_of_mat(mat_of_vec(vs)) - vs)), 0.0),
        ("smat_cross_product", 100,
         np.max(np.abs(np.einsum("nij,nj->ni", skews, xs) - np.cross(axes, xs))), 1e-15),
        ("so3_extractions", 100,
         np.max(np.abs([skewvec(skews) - axes, symvec(skews) - axes, dvec(skews)])), 0.0),
        ("l_symmetry", 1000, np.max(np.abs(l_full - np.swapaxes(l_full, -1, -2))), 0.0),
        ("l_decomposition", 1000, np.max(np.abs(l_full - (l_skew + l_sym))), 0.0),
        ("l_determinant_identity", 1000,
         np.max(np.abs(np.linalg.det(l_full) + 2.0 * det_y ** 3)
                / np.maximum(1.0, np.abs(det_y) ** 3)), tol_det),
        ("skew_specialization", 100, np.max(np.abs(general - special)), tol_skew),
        ("l_inverse_residual", 20,
         np.max(np.abs(read_l_operators(y_inv)[0] @ l_inv - np.eye(9))), 1e-12),
    ]
    return [[name, samples, float(worst), float(tolerance), bool(worst <= tolerance)]
            for name, samples, worst, tolerance in checks]
