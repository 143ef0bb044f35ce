"""Manufactured fields with exact derivatives, used as verification oracles.

Each family evaluates both the field and its analytic derivatives, so tests
and experiments can measure discretization error directly.  Polynomial
families expose per-axis degree control: second-order stencils are exact on
per-axis quadratics, which makes "formula holds up to roundoff" cases
possible alongside genuine O(h^2) convergence cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .fields import GridSpec, MatrixField, VectorField


def _monomials(points, exponents):
    # points (..., 3), exponents (T, 3) -> (..., T)
    return np.prod(points[..., None, :] ** exponents[None, :, :], axis=-1)


def _monomial_derivatives(points, exponents):
    # d/dx_j of each monomial -> (..., T, 3)
    out = np.zeros(points.shape[:-1] + exponents.shape, dtype=float)
    for j in range(3):
        e = exponents[:, j]
        mask = e > 0
        if not np.any(mask):
            continue
        lowered = exponents[mask].copy()
        lowered[:, j] -= 1
        vals = _monomials(points, lowered) * e[mask]
        out[..., mask, j] = vals
    return out


class AnalyticField:
    """Sampling, entry gradients and curl shared by the families.

    A family defines value and jacobian at points of shape (..., 3): the
    value has the per-point shape (3,) or (3, 3) of the family's arrays, and
    the jacobian appends the derivative axis j, so its last axis is d_j.
    """

    def sample(self, grid: GridSpec) -> VectorField | MatrixField:
        points = grid.points()
        values = self.value(points)
        return (VectorField if values.ndim == points.ndim else MatrixField)(grid, values)

    def sample_jacobian(self, grid: GridSpec) -> MatrixField:
        """The jacobian of a vector family on grid."""
        return MatrixField(grid, self.jacobian(grid.points()))

    def entry_jacobian(self, points):
        """The vec-ordered entry gradients (..., 9, 3) of a matrix family."""
        grad = self.jacobian(points)
        return grad.reshape(grad.shape[:-3] + (9, 3))

    def curl(self, points):
        """Curl of a vector family, or the row-wise curl of a matrix family."""
        # the moved view has d[c][j] = d_j F_c, with any row index last
        return algebra.curl_row(np.moveaxis(self.jacobian(points), (-2, -1), (0, 1)))


@dataclass(frozen=True)
class LazyMatrixSample:
    """A matrix family on a grid, evaluated a range of axis-0 planes at a time.

    It stands in for the family's MatrixField sample where the values are
    consumed slab by slab, as fields.curl_product_discrepancy does, so no
    whole-grid array is made.
    """

    family: AnalyticField
    grid: GridSpec

    def sample_planes(self, start: int, stop: int) -> np.ndarray:
        return self.family.value(self.grid.plane_points(start, stop))


def _lead(array):
    # einsum letters of the per-point axes, all but array's last: "c" for a
    # vector family, "rc" for a matrix family
    return "rc"[3 - array.ndim:]


@dataclass(frozen=True)
class PolynomialField(AnalyticField):
    """Polynomial components: coeffs (3, T) or (3, 3, T), exponents (T, 3)."""

    coeffs: np.ndarray
    exponents: np.ndarray

    def value(self, points):
        lead = _lead(self.coeffs)
        return np.einsum(f"{lead}t,...t->...{lead}", self.coeffs,
                         _monomials(points, self.exponents))

    def jacobian(self, points):
        lead = _lead(self.coeffs)
        return np.einsum(f"{lead}t,...tj->...{lead}j", self.coeffs,
                         _monomial_derivatives(points, self.exponents))


@dataclass(frozen=True)
class TrigField(AnalyticField):
    """Components amp * sin(wave . x + phase): amplitude and phase (3,) or
    (3, 3), wave the same with a trailing axis of 3."""

    amplitude: np.ndarray
    wave: np.ndarray
    phase: np.ndarray

    def _wave_dot(self, points):
        lead = _lead(self.wave)
        return np.einsum(f"{lead}j,...j->...{lead}", self.wave, points)

    def value(self, points):
        # one output-sized buffer: the phase, sine and amplitude act in place
        out = self._wave_dot(points)
        out += self.phase
        np.sin(out, out=out)
        out *= self.amplitude
        return out

    def jacobian(self, points):
        arg = self._wave_dot(points) + self.phase
        return (self.amplitude * np.cos(arg))[..., None] * self.wave


@dataclass(frozen=True)
class RotationMatrixField(AnalyticField):
    """Rotation-valued field R(theta(x)) about a fixed unit axis.

    theta(x) = base + lin . x + amp * sin(freq . x + phase), so the jacobian
    follows from dR/dtheta = cos(theta) K + sin(theta) K^2 with K = smat(axis).
    """

    axis: np.ndarray
    base: float = 0.0
    lin: np.ndarray = (0.0, 0.0, 0.0)
    amp: float = 0.0
    freq: np.ndarray = (0.0, 0.0, 0.0)
    phase: float = 0.0

    def _theta(self, points):
        """theta at points, and the argument of its sine."""
        arg = points @ np.asarray(self.freq, dtype=float) + self.phase
        return (self.base + points @ np.asarray(self.lin, dtype=float)
                + self.amp * np.sin(arg)), arg

    def _k(self):
        axis = np.asarray(self.axis, dtype=float)
        # scaled to a largest entry of 1 first, so the norm neither overflows
        # nor underflows; an axis whose largest entry is 1 keeps its bits
        axis = axis / np.max(np.abs(axis))
        k = algebra.smat(axis / np.linalg.norm(axis))
        return k, k @ k

    def value(self, points):
        theta, _ = self._theta(points)
        k, k2 = self._k()
        return (np.eye(3) + np.sin(theta)[..., None, None] * k
                + (1.0 - np.cos(theta))[..., None, None] * k2)

    def jacobian(self, points):
        theta, arg = self._theta(points)
        dtheta = (np.asarray(self.lin, dtype=float)
                  + (self.amp * np.cos(arg))[..., None] * np.asarray(self.freq, dtype=float))
        k, k2 = self._k()
        dr_dtheta = (np.cos(theta)[..., None, None] * k
                     + np.sin(theta)[..., None, None] * k2)
        return dr_dtheta[..., :, :, None] * dtheta[..., None, None, :]


def _quadratic_exponents(per_axis_degree, total_degree):
    exps = []
    d = per_axis_degree
    for e1 in range(d + 1):
        for e2 in range(d + 1):
            for e3 in range(d + 1):
                if e1 + e2 + e3 <= total_degree:
                    exps.append((e1, e2, e3))
    return np.array(exps, dtype=int)


def _random_polynomial(lead, seed, per_axis_degree, total_degree):
    rng = np.random.default_rng(seed)
    exps = _quadratic_exponents(per_axis_degree, total_degree)
    return PolynomialField(rng.uniform(-1.0, 1.0, lead + (len(exps),)), exps)


def _random_trig(lead, seed, amplitude, wavenumber):
    # the draw order, amplitudes then wave vectors then phases, fixes each seed's field
    rng = np.random.default_rng(seed)
    return TrigField(amplitude * rng.uniform(0.5, 1.0, lead),
                     wavenumber * rng.uniform(-1.0, 1.0, lead + (3,)),
                     rng.uniform(0.0, 2.0 * np.pi, lead))


def random_polynomial_matrix(seed, per_axis_degree=1) -> PolynomialField:
    """Seeded polynomial matrix field of total degree at most 2; per-axis degree 1
    keeps products stencil-exact under second-order differences."""
    return _random_polynomial((3, 3), seed, per_axis_degree, 2)


def random_trig_matrix(seed, amplitude=1.0, wavenumber=1.0) -> TrigField:
    return _random_trig((3, 3), seed, amplitude, wavenumber)
