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


class AnalyticVectorField:
    """Sampling shared by the vector families, which define value and jacobian."""

    def sample(self, grid: GridSpec) -> VectorField:
        return VectorField(grid, self.value(grid.points()))

    def sample_jacobian(self, grid: GridSpec) -> MatrixField:
        return MatrixField(grid, self.jacobian(grid.points()))


class AnalyticMatrixField:
    """Curl and sampling shared by the matrix families.

    A family defines value and entry_jacobian, the vec-ordered entry
    gradients of shape (..., 9, 3), at points of shape (..., 3).
    """

    def curl(self, points):
        grad27 = self.entry_jacobian(points)
        # row l of the curl; the moved view has d[c][j] = d_j M_lc
        return np.stack([algebra.curl_row(np.moveaxis(grad27[..., 3 * l:3 * l + 3, :],
                                                      (-2, -1), (0, 1)))
                         for l in range(3)], axis=-2)

    def sample(self, grid: GridSpec) -> MatrixField:
        return MatrixField(grid, self.value(grid.points()))


@dataclass(frozen=True)
class LazyMatrixSample:
    """A matrix family on a grid, evaluated a range of axis-0 planes at a time.

    It stands in for the family's MatrixField sample where the values are
    consumed slab by slab, as fields.curl_product_discrepancy does, so no
    whole-grid array is made.
    """

    family: AnalyticMatrixField
    grid: GridSpec

    def sample_planes(self, start: int, stop: int) -> np.ndarray:
        return self.family.value(self.grid.plane_points(start, stop))


@dataclass(frozen=True)
class PolynomialVectorField(AnalyticVectorField):
    """Vector field with polynomial components: coeffs (3, T), exponents (T, 3)."""

    coeffs: np.ndarray
    exponents: np.ndarray

    def value(self, points):
        return np.einsum("ct,...t->...c", self.coeffs, _monomials(points, self.exponents))

    def jacobian(self, points):
        d = _monomial_derivatives(points, self.exponents)
        return np.einsum("ct,...tj->...cj", self.coeffs, d)


@dataclass(frozen=True)
class PolynomialMatrixField(AnalyticMatrixField):
    """Matrix field with polynomial entries: coeffs (3, 3, T), exponents (T, 3)."""

    coeffs: np.ndarray
    exponents: np.ndarray

    def value(self, points):
        return np.einsum("rct,...t->...rc", self.coeffs, _monomials(points, self.exponents))

    def entry_jacobian(self, points):
        d = _monomial_derivatives(points, self.exponents)
        grad = np.einsum("rct,...tj->...rcj", self.coeffs, d)
        return grad.reshape(grad.shape[:-3] + (9, 3))


@dataclass(frozen=True)
class TrigMatrixField(AnalyticMatrixField):
    """Matrix field with entries amp * sin(wave . x + phase)."""

    amplitude: np.ndarray  # (3, 3)
    wave: np.ndarray       # (3, 3, 3)
    phase: np.ndarray      # (3, 3)

    def value(self, points):
        # one output-sized buffer: the phase, sine and amplitude act in place
        out = np.einsum("rcj,...j->...rc", self.wave, points)
        out += self.phase
        np.sin(out, out=out)
        out *= self.amplitude
        return out

    def entry_jacobian(self, points):
        arg = np.einsum("rcj,...j->...rc", self.wave, points) + self.phase
        grad = (self.amplitude * np.cos(arg))[..., None] * self.wave
        return grad.reshape(grad.shape[:-3] + (9, 3))


@dataclass(frozen=True)
class TrigVectorField(AnalyticVectorField):
    """Vector field with components amp * sin(wave . x + phase)."""

    amplitude: np.ndarray  # (3,)
    wave: np.ndarray       # (3, 3)
    phase: np.ndarray      # (3,)

    def value(self, points):
        out = np.einsum("cj,...j->...c", self.wave, points)
        out += self.phase
        np.sin(out, out=out)
        out *= self.amplitude
        return out

    def jacobian(self, points):
        arg = np.einsum("cj,...j->...c", self.wave, points) + self.phase
        return (self.amplitude * np.cos(arg))[..., None] * self.wave


@dataclass(frozen=True)
class RotationMatrixField(AnalyticMatrixField):
    """Rotation-valued field R(theta(x)) about a fixed unit axis.

    theta(x) = base + lin . x + amp * sin(freq . x + phase), so the entry
    gradients follow from dR/dtheta = cos(theta) K + sin(theta) K^2 with
    K = smat(axis).
    """

    axis: np.ndarray
    base: float = 0.0
    lin: np.ndarray = (0.0, 0.0, 0.0)
    amp: float = 0.0
    freq: np.ndarray = (0.0, 0.0, 0.0)
    phase: float = 0.0

    def _theta(self, points):
        lin = np.asarray(self.lin, dtype=float)
        freq = np.asarray(self.freq, dtype=float)
        theta = self.base + points @ lin + self.amp * np.sin(points @ freq + self.phase)
        dtheta = np.broadcast_to(lin, points.shape).copy()
        dtheta = dtheta + (self.amp * np.cos(points @ freq + self.phase))[..., None] * freq
        return theta, dtheta

    def _k(self):
        axis = np.asarray(self.axis, dtype=float)
        k = algebra.smat(axis / np.linalg.norm(axis))
        return k, k @ k

    def value(self, points):
        theta, _ = self._theta(points)
        k, k2 = self._k()
        eye = np.eye(3)
        return (eye + np.sin(theta)[..., None, None] * k
                + (1.0 - np.cos(theta))[..., None, None] * k2)

    def entry_jacobian(self, points):
        theta, dtheta = self._theta(points)
        k, k2 = self._k()
        dr_dtheta = (np.cos(theta)[..., None, None] * k
                     + np.sin(theta)[..., None, None] * k2)
        grad = dr_dtheta[..., :, :, None] * dtheta[..., None, None, :]
        return grad.reshape(grad.shape[:-3] + (9, 3))


def _quadratic_exponents(per_axis_degree, total_degree):
    exps = []
    d = per_axis_degree
    for e1 in range(d + 1):
        for e2 in range(d + 1):
            for e3 in range(d + 1):
                if e1 + e2 + e3 <= total_degree:
                    exps.append((e1, e2, e3))
    return np.array(exps, dtype=int)


def _random_polynomial(cls, lead, seed, per_axis_degree, total_degree):
    rng = np.random.default_rng(seed)
    exps = _quadratic_exponents(per_axis_degree, total_degree)
    return cls(rng.uniform(-1.0, 1.0, lead + (len(exps),)), exps)


def _random_trig(cls, lead, seed, amplitude, wavenumber):
    # the draw order, amplitudes then wave vectors then phases, fixes each seed's field
    rng = np.random.default_rng(seed)
    return cls(amplitude * rng.uniform(0.5, 1.0, lead),
               wavenumber * rng.uniform(-1.0, 1.0, lead + (3,)),
               rng.uniform(0.0, 2.0 * np.pi, lead))


def random_polynomial_matrix(seed, per_axis_degree=1,
                             total_degree=2) -> PolynomialMatrixField:
    """Seeded polynomial matrix field; per-axis degree 1 keeps products
    stencil-exact under second-order differences."""
    return _random_polynomial(PolynomialMatrixField, (3, 3), seed, per_axis_degree,
                              total_degree)


def random_polynomial_vector(seed, per_axis_degree=1,
                             total_degree=2) -> PolynomialVectorField:
    return _random_polynomial(PolynomialVectorField, (3,), seed, per_axis_degree,
                              total_degree)


def random_trig_matrix(seed, amplitude=1.0, wavenumber=1.0) -> TrigMatrixField:
    return _random_trig(TrigMatrixField, (3, 3), seed, amplitude, wavenumber)


def random_trig_vector(seed, amplitude=1.0, wavenumber=1.0) -> TrigVectorField:
    return _random_trig(TrigVectorField, (3,), seed, amplitude, wavenumber)

