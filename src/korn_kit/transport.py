"""Transport of boundary data along grid lines for first-order systems.

The systems have the form grad(zeta) = G zeta with zeta prescribed on a
boundary face.  Along any grid line parallel to the last axis the system
restricts to a linear ODE zeta' = G_line zeta, which is integrated with
classic fixed-step RK4.  A Gronwall envelope |zeta(a)| * exp(int |G|)
certifies that zero boundary data forces the zero solution whenever the
coefficient norm is integrable; the envelope machinery also exposes the
failure mode for non-integrable coefficients such as 1/t on (0, 1).

A flood covers a voxel domain in two steps.  cover reads the domain and
seed masks alone and grows a chain of overlapping axis-aligned cuboids from
the seed, each meeting the seed and the cuboids before it through its back
face; the domain points the seed does not reach make it raise
DisconnectedDomain.  flood_propagate then checks each cuboid on its own
block of the grid arrays by its zero face data, zeta_max and the
full-system residual, not by propagation: RK4 on zero face data of a
linear system returns exactly zero.  The residual is built once per flood
at the interior points of the domain's bounding box, and each cuboid reads
the block of its own interior points, where the central differences are
the cuboid's own.

The coefficient G is a CoefficientTensorField, defined in fields next to
the vector and matrix fields and importable from here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (DisconnectedDomain, DimensionMismatch, FaceMismatch,
                     NonFiniteCoefficient, NotIntegrable, SeedOutsideDomain)
from .fields import CoefficientTensorField, VectorField, _central, _require_stencil_room

# adaptive quadrature of coefficient norms (see integrate_norm)
QUAD_VALUE_CAP = 1e6
QUAD_MAX_DEPTH = 40
QUAD_RTOL = 1e-9
# interior max-norm of grad(zeta) - G zeta that a residual check passes
RESIDUAL_TOL = 1e-8
# counterexample_demo's bounds: identity residual, truncated zero-data solution
IDENTITY_RESIDUAL_TOL = 1e-12
TRUNCATED_SOLUTION_TOL = 1e-10
# covered layers behind a frontier point that a covering cuboid takes along
_BASE_SLAB = 2


def operator_norm(matrix) -> float:
    """Max absolute row sum; compatible with the max-abs vector norm."""
    m = np.asarray(matrix, dtype=float)
    return float(np.max(np.sum(np.abs(m), axis=-1)))


def _milne(f, lo, hi):
    # open 3-point Newton-Cotes rule, fourth order, no endpoint evaluations
    length = hi - lo
    f1 = f(lo + 0.25 * length)
    f2 = f(lo + 0.50 * length)
    f3 = f(lo + 0.75 * length)
    return (length / 3.0) * (2.0 * f1 - f2 + 2.0 * f3)


def integrate_norm(f: Callable[[float], float], a: float, b: float):
    """Adaptive dyadic quadrature of a non-negative integrand.

    Uses an open fourth-order rule, so the integrand is never evaluated at
    the interval endpoints and may blow up there.  Returns a pair
    (estimate, divergent); divergent is set when the running value exceeds
    QUAD_VALUE_CAP, or a segment still disagrees at QUAD_MAX_DEPTH levels of
    dyadic refinement while contributing more than a negligible sliver.
    """
    if not b > a:
        raise ValueError("need b > a")
    total_len = b - a
    est0 = _milne(f, a, b)
    if not math.isfinite(est0):
        return est0, True
    stack = [(a, b, est0, 0)]
    total = 0.0
    while stack:
        lo, hi, parent, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _milne(f, lo, mid)
        right = _milne(f, mid, hi)
        children = left + right
        if not math.isfinite(children):
            return total + parent, True
        tol = 1e-12 * abs(children) \
            + QUAD_RTOL * ((hi - lo) / total_len) * max(1.0, total)
        if abs(children - parent) <= tol:
            total += children
            if total > QUAD_VALUE_CAP:
                return total, True
            continue
        if depth >= QUAD_MAX_DEPTH:
            # a still-disagreeing sliver is absorbed if its whole
            # contribution is below the reporting accuracy; anything larger
            # marks the integral as divergent
            if children <= 1e-5 * max(1.0, total + children):
                total += children
                continue
            return total + children, True
        stack.append((mid, hi, right, depth + 1))
        stack.append((lo, mid, left, depth + 1))
    return total, False


@dataclass(frozen=True)
class LineCoefficient:
    """Matrix-valued coefficient t -> G(t) on an interval.

    The sampler must be finite on the open interval; blow-up at the
    endpoints is allowed and is exactly what integrate_norm of norm_at
    detects.  Norms are operator max-row-sum norms.
    """

    sampler: Callable[[float], np.ndarray]
    interval: tuple
    dim: int

    def __post_init__(self):
        a, b = (float(self.interval[0]), float(self.interval[1]))
        if not a < b:
            raise ValueError("interval must satisfy a < b")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        object.__setattr__(self, "interval", (a, b))

    def sample(self, t: float) -> np.ndarray:
        g = np.asarray(self.sampler(t), dtype=float)
        if g.shape != (self.dim, self.dim):
            raise DimensionMismatch(
                f"coefficient sample at t={t:g} has shape {g.shape}, expected "
                f"({self.dim}, {self.dim})")
        if not np.all(np.isfinite(g)):
            raise NonFiniteCoefficient(f"coefficient sample is not finite at t={t:g}")
        return g

    def norm_at(self, t: float) -> float:
        return operator_norm(self.sampler(t))

    @classmethod
    def constant(cls, matrix, interval):
        m = np.asarray(matrix, dtype=float)
        return cls(lambda t: m, tuple(interval), m.shape[0])


def gronwall_bound(coefficient: LineCoefficient,
                   initial_norm: float) -> Callable[[float], float]:
    """Envelope x -> |zeta(a)| * exp(int_a^x |G|) for solutions of zeta' = G zeta.

    Each call integrates the norm from a.  It raises ValueError for x outside
    the interval and NotIntegrable when the norm integral diverges on [a, x].
    """
    if initial_norm < 0:
        raise ValueError("initial_norm must be non-negative")
    initial_norm = float(initial_norm)
    a, b = coefficient.interval

    def bound(x: float) -> float:
        if not a <= x <= b:
            raise ValueError(f"x={x:g} outside [{a:g}, {b:g}]")
        if x == a:
            return initial_norm
        value, divergent = integrate_norm(coefficient.norm_at, a, x)
        if divergent or value > QUAD_VALUE_CAP:
            raise NotIntegrable(
                f"norm integral diverges on [{a:g}, {x:g}] "
                f"(estimate {value:g}, cap {QUAD_VALUE_CAP:g})")
        if initial_norm == 0.0:
            return 0.0
        try:
            return initial_norm * math.exp(value)
        except OverflowError:
            return math.inf

    return bound


@dataclass(frozen=True)
class Trajectory:
    """RK4 samples of a line solution with step-halving error estimates."""

    times: np.ndarray
    values: np.ndarray
    error_estimates: np.ndarray

    @property
    def final_value(self) -> np.ndarray:
        return self.values[-1]

    @property
    def final_error(self) -> float:
        return float(self.error_estimates[-1])

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def _rk4(g_at, out, substeps, dt):
    """Classic RK4 of z' = G z from out[0]: out[k + 1] along axis 0 is out[k]
    after substeps steps of dt, substep s reading g_at(k, frac), G at the part
    frac = (s + c) / substeps of the way to sample k + 1, at c = 0, 1/2, 1."""
    z = out[0].copy()
    for k in range(len(out) - 1):
        for s in range(substeps):
            g_start, g_mid, g_end = (g_at(k, (s + c) / substeps) for c in (0.0, 0.5, 1.0))
            k1 = np.einsum("...ij,...j->...i", g_start, z)
            k2 = np.einsum("...ij,...j->...i", g_mid, z + 0.5 * dt * k1)
            k3 = np.einsum("...ij,...j->...i", g_mid, z + 0.5 * dt * k2)
            k4 = np.einsum("...ij,...j->...i", g_end, z + dt * k3)
            z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = z


def _rk4_line(coefficient: LineCoefficient, z0: np.ndarray, n: int) -> np.ndarray:
    a, b = coefficient.interval
    h = (b - a) / n
    out = np.empty((n + 1, z0.shape[0]))
    out[0] = z0
    _rk4(lambda k, frac: coefficient.sample(a + k * h + frac * h), out, 1, h)
    return out


def integrate_line(coefficient: LineCoefficient, zeta0, steps: int) -> Trajectory:
    """Fixed-step RK4 for zeta' = G(t) zeta, with a step-halving estimate.

    The returned values use the requested step count; the error estimate at
    each sample is the max-abs gap to a run with half the step size.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    z0 = np.atleast_1d(np.asarray(zeta0, dtype=float))
    if z0.shape != (coefficient.dim,):
        raise DimensionMismatch(
            f"zeta0 has shape {z0.shape}, expected ({coefficient.dim},)")
    a, b = coefficient.interval
    coarse = _rk4_line(coefficient, z0, steps)
    fine = _rk4_line(coefficient, z0, 2 * steps)
    estimates = np.max(np.abs(coarse - fine[::2]), axis=1)
    times = a + (b - a) * np.arange(steps + 1) / steps
    return Trajectory(times, coarse, estimates)


def propagate_cube(coefficient: CoefficientTensorField, face_data: VectorField,
                   steps: int = 200) -> VectorField:
    """Integrate every grid line parallel to the last axis from face data.

    The face is the side where the last coordinate is smallest.  Along a
    line, the system restricts to zeta' = M(x) zeta with M the last-column
    slice of the coefficient tensor; M is interpolated linearly between grid
    points and all lines advance together with RK4.  The requested total
    step count is rounded up to a whole number of substeps per grid cell so
    samples land exactly on grid points.
    """
    grid = coefficient.grid
    n = grid.dim
    n_last = grid.shape[-1]
    if n_last < 2:
        raise FaceMismatch("propagation needs at least 2 points along the last axis")
    if n == 3:
        expected_face = grid.face(-1)
        if face_data.grid != expected_face:
            raise FaceMismatch(
                f"face grid {face_data.grid} does not match {expected_face}")
    else:
        # a 2d cuboid's face is a line of points, carried as an (n0, 1) grid
        if face_data.grid.dim != 2 or \
                face_data.grid.shape != (grid.shape[0], 1):
            raise FaceMismatch(
                f"face data must live on ({grid.shape[0]}, 1) points")
    if face_data.components != n:
        raise FaceMismatch(
            f"face data has {face_data.components} components, expected {n}")

    line_ode = coefficient.values[..., :, n - 1, :]  # (*shape, N, N)
    perp = int(np.prod(grid.shape[:-1]))
    line_ode = line_ode.reshape(perp, n_last, n, n)

    out = np.empty((perp, n_last, n))
    out[:, 0] = face_data.values.reshape(perp, n)
    substeps = max(1, math.ceil(steps / max(1, n_last - 1)))
    _rk4(lambda m, frac: line_ode[:, m] + frac * (line_ode[:, m + 1] - line_ode[:, m]),
         out.swapaxes(0, 1), substeps, grid.spacing / substeps)
    return VectorField(grid, out.reshape(grid.shape + (n,)))


@dataclass(frozen=True)
class ResidualReport:
    """Interior max-norm of grad(zeta) - G zeta; per_axis[j] is along grid axis j."""

    max_norm: float
    per_axis: tuple
    tolerance: float
    passed: bool


def _residual_by_axis(z: np.ndarray, g: np.ndarray, spacing: float) -> np.ndarray:
    """max over i of |d_j z_i - (g z)_ij| at every interior point of a block.

    z holds a block's vectors and g its coefficient tensors, grid axes first.
    Entry [..., j] of the result belongs to the block point one index further
    along every axis.  The derivative there is fields._central's, the
    expression np.gradient (and so fd_grad) uses at interior points, and
    g z is CoefficientTensorField.apply's einsum, so each entry equals the
    whole-grid one of fd_grad(zeta) - G zeta bit for bit, and so does its
    max over any block.  The work goes one plane of axis 0 at a time, so no
    dim x dim array per grid point is made.
    """
    n = z.ndim - 1
    if z.shape[-1] != n:
        raise DimensionMismatch(
            f"the residual needs {n} components on a {n}d grid, got {z.shape[-1]}")
    inner = (slice(1, -1),) * (n - 1)
    out = np.empty(tuple(m - 2 for m in z.shape[:-1]) + (n,))
    for p in range(1, z.shape[0] - 1):
        row = np.empty(out.shape[1:-1] + (n, n))
        for j in range(n):
            row[..., j] = _central(z[p - 1:p + 2], spacing, j, n)[0]
        row -= np.einsum("...ijk,...k->...ij", g[p][inner], z[p][inner])
        np.abs(row, out=row)
        out[p - 1] = _max_along(row, -2)
    return out


def _max_along(values: np.ndarray, axis: int) -> np.ndarray:
    """values.max(axis) for a short axis counted from the end (axis < 0).

    np.maximum goes over its slices: numpy's own reduction over an axis of
    2 or 3 entries runs one short inner loop per output point and is many
    times slower.  A maximum is one of its inputs and NaN propagates
    through both, so the result is the same, bit for bit.
    """
    tail = (slice(None),) * (-1 - axis)
    out = values[(..., 0) + tail].copy()
    for i in range(1, values.shape[axis]):
        np.maximum(out, values[(..., i) + tail], out=out)
    return out


def _residual_report(by_axis: np.ndarray, tol: float) -> ResidualReport:
    """The report of a block of _residual_by_axis: its max per grid axis."""
    per_axis = tuple(float(by_axis[..., j].max()) for j in range(by_axis.shape[-1]))
    max_norm = max(per_axis)
    return ResidualReport(max_norm, per_axis, float(tol), max_norm <= tol)


def system_residual(zeta: VectorField, coefficient: CoefficientTensorField,
                    tol: float = RESIDUAL_TOL) -> ResidualReport:
    """Check the full first-order system, not just the propagated direction."""
    if zeta.grid != coefficient.grid:
        raise DimensionMismatch("zeta and coefficient must share a grid")
    _require_stencil_room(zeta.grid)
    return _residual_report(
        _residual_by_axis(zeta.values, coefficient.values, zeta.grid.spacing), tol)


@dataclass(frozen=True)
class CuboidRecord:
    """One covering cuboid: bounds are half-open index ranges per axis."""

    bounds: tuple
    axis: int
    direction: int
    face_max: float
    zeta_max: float
    residual: Optional[ResidualReport]
    passed: bool


@dataclass(frozen=True)
class CoverageReport:
    """Outcome of covering a voxel domain by propagation cuboids."""

    cuboids: tuple
    covered_fraction: float
    tolerance: float
    passed: bool
    reason: str

    @property
    def n_cuboids(self) -> int:
        return len(self.cuboids)


def _frontier(domain: np.ndarray, covered: np.ndarray):
    """(axis, direction, point) of the first uncovered domain point, in C order,
    whose neighbour at -direction along axis is covered; axes are tried in
    order, +1 before -1.  None when there is no such point."""
    uncovered = domain & ~covered
    for axis in range(domain.ndim):
        for direction in (1, -1):
            # a point and its neighbour at -direction: one step apart along axis
            lead = (slice(None),) * axis
            ahead, behind = (slice(1, None), slice(None, -1))[::direction]
            hits = uncovered[lead + (ahead,)] & covered[lead + (behind,)]
            if hits.any():
                point = [int(i) for i in np.unravel_index(hits.argmax(), hits.shape)]
                point[axis] += direction > 0
                return axis, direction, tuple(point)
    return None


class _SummedArea:
    """Whether a box holds only set points of a boolean mask, by a summed-area table.

    The table holds the zero-padded prefix sums of the mask (Crow, SIGGRAPH
    1984), so the number of set points in a box of half-open index ranges
    is an inclusion-exclusion over its eight corners: eight integer lookups,
    exact, and the box is full when that number is its volume.  A mask of
    one or two axes gets leading axes of one point, so one three-axis
    formula serves every mask.  origin is the grid index of the mask's first
    point along each axis, and full takes boxes in grid indices.
    """

    __slots__ = ("table", "lead", "offsets")

    def __init__(self, mask: np.ndarray, origin):
        lead = 3 - mask.ndim
        # a grid holds at most fields.POINT_CAP = 2**24 points: int32 counts do not overflow
        table = np.zeros((2,) * lead + tuple(n + 1 for n in mask.shape), dtype=np.int32)
        sums = table[(1,) * lead]
        sums[(slice(1, None),) * mask.ndim] = mask
        for k in range(mask.ndim):
            np.add.accumulate(sums, axis=k, out=sums)
        steps = [s // table.itemsize for s in table.strides]
        # read as Python ints, without a list of them
        self.table = memoryview(table.reshape(-1))
        # a leading axis of one point spans [0, 1); per axis, entry i is the
        # flat offset of the table plane before grid index i
        self.lead = [(0, 1)] * lead
        self.offsets = [[0, s] for s in steps[:lead]] + [
            list(range(-o * s, (n + 1) * s, s))
            for o, n, s in zip(origin, mask.shape, steps[lead:])]

    def full(self, box) -> bool:
        (l0, h0), (l1, h1), (l2, h2) = self.lead + box
        o0, o1, o2 = self.offsets
        a0, a1, b0, b1, c0, c1 = o0[l0], o0[h0], o1[l1], o1[h1], o2[l2], o2[h2]
        t = self.table
        return (t[a1 + b1 + c1] - t[a0 + b1 + c1] - t[a1 + b0 + c1] + t[a0 + b0 + c1]
                - t[a1 + b1 + c0] + t[a0 + b1 + c0] + t[a1 + b0 + c0] - t[a0 + b0 + c0]
                == (h0 - l0) * (h1 - l1) * (h2 - l2))


def _bounding_box(domain: np.ndarray) -> tuple:
    """Per axis, the slice of grid indices that holds a non-empty mask's points."""
    box = []
    for j in range(domain.ndim):
        hit = np.flatnonzero(domain.any(axis=tuple(k for k in range(domain.ndim) if k != j)))
        box.append(slice(int(hit[0]), int(hit[-1]) + 1))
    return tuple(box)


def cover(domain_mask: np.ndarray, seed) -> tuple:
    """The chain of cuboids that covers a voxel domain from a seed region.

    domain_mask and seed are boolean masks of one shape.  Returns one
    (bounds, axis, direction) per cuboid in growth order, bounds being
    half-open index ranges per axis.  Each cuboid lies in the domain, and its
    back face (its side at -direction along axis) in the seed and the cuboids
    before it, so zero seed data reaches it; the chain reads the masks alone.
    Raises DisconnectedDomain, giving the number of domain points left, when
    the frontier runs out first: the seed does not reach those points.

    A cuboid starts at the first frontier point (see _frontier) with up to
    _BASE_SLAB covered layers behind it as its base slab, and grows a layer
    at a time on every side but its back.  A layer is added when it lies in
    the domain and, off the growth axis, is covered beside the slab.  A side
    whose layer fails, or whose edge leaves the domain's bounding box, is not
    tried again for that cuboid: its edge stays put and the other axes only
    widen, so each later layer on that side holds the failed one.  Both tests
    are counts on summed-area tables, one of the domain on its bounding box
    and one per cuboid, built at its first beside test, of the slab's
    projection along the growth axis (covered at every slab layer).  The
    counts are exact, so each answer is that of .all() on the same block.
    """
    domain = np.asarray(domain_mask, dtype=bool)
    seed_mask = np.asarray(seed, dtype=bool)
    if seed_mask.shape != domain.shape:
        raise DimensionMismatch("seed mask shape must match the domain mask")
    if not seed_mask.any():
        raise SeedOutsideDomain("seed region is empty")
    if np.any(seed_mask & ~domain):
        raise SeedOutsideDomain("seed region leaves the domain mask")

    near = _bounding_box(domain)
    first = [b.start for b in near]
    last = [b.stop for b in near]
    inside = _SummedArea(domain[near], first)
    covered = seed_mask.copy()
    cuboids = []
    while (frontier := _frontier(domain, covered)) is not None:
        axis, direction, point = frontier
        c = point[axis]
        # base slab: the run of covered layers behind the point, at most
        # _BASE_SLAB and at least the frontier's one; the back face never moves,
        # so neither does the slab
        line = covered[point[:axis] + (slice(None),) + point[axis + 1:]]
        back = (line[c - 1::-1] if direction > 0 else line[c + 1:])[:_BASE_SLAB].tolist()
        depth = (back + [False]).index(False)
        slab = [c - depth, c] if direction > 0 else [c + 1, c + 1 + depth]
        box = [[p, p + 1] for p in point]
        box[axis] = [min(c, slab[0]), max(c + 1, slab[1])]

        # the box lies in the domain and its slab is covered, so a growth step
        # tests only the layer it adds; a side that fails once is dropped
        sides = [(ax, d) for ax in range(domain.ndim) for d in (1, -1)
                 if not (ax == axis and d == -direction)]
        beside = None
        while sides:
            live = []
            for ax, d in sides:
                lo, hi = box[ax]
                edge = hi if d > 0 else lo - 1
                if not first[ax] <= edge < last[ax]:
                    continue
                layer = box.copy()
                layer[ax] = (edge, edge + 1)
                if not inside.full(layer):
                    continue
                if ax != axis:
                    if beside is None:
                        # covered and the slab stay fixed while the box grows
                        beside = _SummedArea(
                            covered[near[:axis] + (slice(*slab),) + near[axis + 1:]].all(axis),
                            first[:axis] + first[axis + 1:])
                    del layer[axis]
                    if not beside.full(layer):
                        continue
                box[ax] = (lo, edge + 1) if d > 0 else (edge, hi)
                live.append((ax, d))
            sides = live

        cuboids.append((tuple(tuple(r) for r in box), axis, direction))
        covered[tuple(slice(*r) for r in box)] = True

    unreached = int(np.count_nonzero(domain & ~covered))
    if unreached:
        raise DisconnectedDomain(
            f"{unreached} domain points are not reached from the seed region")
    return tuple(cuboids)


def flood_propagate(domain_mask: np.ndarray, seed, coefficient: CoefficientTensorField,
                    zeta: VectorField, *, tol: Optional[float] = None) -> CoverageReport:
    """Certify zeta == 0 on a voxel domain by the chain of cuboids of cover.

    seed is a boolean mask of the grid's shape, like domain_mask.  Each cuboid
    is checked, not propagated (zero face data propagates to exactly zero):
    its face data and zeta must vanish, and the full system residual must
    pass when it is 3 points thick on every axis.  The report stops at the
    first failed cuboid, with the seed and the cuboids before it as its
    covered_fraction.  Every record's residual is taken on the cuboid's block
    of the grid as it lies, so its per_axis[j] is grid axis j.

    The residual is built once, at the interior points of the domain's
    bounding box, and a cuboid reads the block of its own interior points,
    where its central differences are the box's.  face_max and zeta_max are
    maxima of one field, max_i |zeta_i| on the box, over the face and the
    block, and a maximum returns one of its inputs, NaN included.  So each
    record is the one its block alone would give.
    """
    grid = zeta.grid
    if coefficient.grid != grid:
        raise DimensionMismatch("zeta and coefficient must share a grid")
    domain = np.asarray(domain_mask, dtype=bool)
    if domain.shape != grid.shape:
        raise DimensionMismatch("domain mask shape must match the grid")
    seed_mask = np.asarray(seed, dtype=bool)
    cuboids = cover(domain, seed_mask)

    seed_scale = float(np.max(np.abs(zeta.values[seed_mask])))
    if tol is None:
        tol = 1e-10 * (1.0 + seed_scale)
    n_domain = np.count_nonzero(domain)
    if seed_scale > tol:
        return CoverageReport((), float(np.count_nonzero(seed_mask) / n_domain), float(tol),
                              False, f"seed data is not zero (max {seed_scale:g} > tol {tol:g})")

    # every cuboid lies in the domain's bounding box, so the residual and the
    # |zeta| field are built on that block only; a cuboid has a residual only
    # when it is 3 points thick on every axis, so a thinner block needs none
    near = _bounding_box(domain)
    first = [b.start for b in near]
    by_axis = None
    if all(b.stop - b.start >= 3 for b in near):
        by_axis = _residual_by_axis(zeta.values[near], coefficient.values[near], grid.spacing)
    zabs = _max_along(np.abs(zeta.values[near]), -1)
    records = []
    for bounds, axis, direction in cuboids:
        held = zabs[tuple(slice(lo - f, hi - f) for (lo, hi), f in zip(bounds, first))]
        face_max = float(held[(slice(None),) * axis + (0 if direction > 0 else -1,)].max())
        zeta_max = float(held.max())
        residual = None
        if all(hi - lo >= 3 for lo, hi in bounds):
            residual = _residual_report(
                by_axis[tuple(slice(lo - f, hi - 2 - f) for (lo, hi), f in zip(bounds, first))],
                RESIDUAL_TOL)
        passed = (face_max <= tol and zeta_max <= tol
                  and (residual is None or residual.passed))
        records.append(CuboidRecord(bounds, axis, direction, face_max, zeta_max, residual,
                                    passed))
        if not passed:
            covered = seed_mask.copy()
            for earlier, _, _ in cuboids[:len(records) - 1]:
                covered[tuple(slice(*r) for r in earlier)] = True
            return CoverageReport(tuple(records), float(np.count_nonzero(covered) / n_domain),
                                  float(tol), False,
                                  f"cuboid {len(records) - 1} at {bounds} failed")

    return CoverageReport(tuple(records), 1.0, float(tol), True,
                          "domain covered; zeta vanishes at tolerance")


@dataclass(frozen=True)
class CounterexampleReport:
    """Three-part demonstration of why coefficient integrability matters.

    Part one: the identity field solves zeta' = zeta / t on [epsilon, 1]
    with zero residual, so zero boundary data at an excluded singular
    endpoint does not force uniqueness by itself.  Part two: 1/t is not
    integrable over (0, 1).  Part three: truncating the coefficient to
    1/max(t, epsilon) restores integrability, and the zero-data solution is
    identically zero.
    """

    epsilon: float
    identity_residual_max: float
    identity_reconstruction_error: float
    full_integral_estimate: float
    full_divergent: bool
    truncated_integral_estimate: float
    truncated_divergent: bool
    truncated_solution_max: float
    truncated_bound_at_one: float
    passed: bool


def counterexample_demo(epsilon: float = 1e-3, steps: int = 1000) -> CounterexampleReport:
    """Run the 1d singular-coefficient demonstration."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")

    # part one: zeta(t) = t against zeta' = (1/t) zeta on [epsilon, 1]
    ts = epsilon + (1.0 - epsilon) * np.arange(steps + 1) / steps
    residual_max = float(np.max(np.abs(1.0 - (1.0 / ts) * ts)))
    line = LineCoefficient(lambda t: np.array([[1.0 / t]]), (epsilon, 1.0), 1)
    traj = integrate_line(line, np.array([epsilon]), steps)
    reconstruction = float(abs(traj.final_value[0] - 1.0))

    # part two: 1/t is not L1 near zero
    full = LineCoefficient(lambda t: np.array([[1.0 / t]]), (0.0, 1.0), 1)
    full_estimate, full_divergent = integrate_norm(full.norm_at, *full.interval)

    # part three: the truncated coefficient is integrable and zero data stays zero
    truncated = LineCoefficient(
        lambda t: np.array([[1.0 / max(t, epsilon)]]), (0.0, 1.0), 1)
    trunc_estimate, trunc_divergent = integrate_norm(truncated.norm_at,
                                                     *truncated.interval)
    trunc_traj = integrate_line(truncated, np.array([0.0]), steps)
    # gronwall_bound integrates the same norm again, and raises where it diverged
    trunc_bound = math.inf if trunc_divergent else gronwall_bound(truncated, 0.0)(1.0)

    passed = (residual_max <= IDENTITY_RESIDUAL_TOL
              and full_divergent
              and not trunc_divergent
              and trunc_traj.max_norm() <= TRUNCATED_SOLUTION_TOL
              and trunc_bound == 0.0)
    return CounterexampleReport(
        epsilon=float(epsilon),
        identity_residual_max=residual_max,
        identity_reconstruction_error=reconstruction,
        full_integral_estimate=float(full_estimate),
        full_divergent=full_divergent,
        truncated_integral_estimate=float(trunc_estimate),
        truncated_divergent=trunc_divergent,
        truncated_solution_max=float(trunc_traj.max_norm()),
        truncated_bound_at_one=float(trunc_bound),
        passed=bool(passed),
    )
