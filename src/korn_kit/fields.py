"""Regular-grid fields on cuboids, with finite differences.

Grids are uniform with spacing h on every axis.  The vector, matrix and
coefficient tensor fields (the G of grad(zeta) = G zeta) share one base that
checks the component shape and finiteness of the values.

Gradients use second-order central stencils in the interior and
second-order one-sided stencils on the boundary faces, so differentiating
any polynomial of per-axis degree <= 2 is exact up to roundoff.  The
row-wise curl of a matrix field applies the usual vector curl to each row.

Verification of the curl-of-product identity compares the finite-difference
curl of X @ Y against the pointwise formula fed with finite-difference entry
gradients; on smooth data the interior discrepancy shrinks like h**2.  The
whole check streams along axis 0: each slab of interior planes needs X and
Y on its planes plus one halo plane per side, takes central differences at
its interior points only and evaluates the formula there, so the peak memory
of sampling, differencing and the formula scales with the slab, not the
grid.  Neighbouring slabs share their two boundary planes, which are carried
over, so every plane is sampled once.  The interior planes are split into one
contiguous part per usable CPU, each streamed in a thread of its own with
slabs that many times smaller; the two planes at each cut are sampled once,
up front, and handed to both parts, so the result does not depend on the
number of parts.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import algebra
from .errors import DimensionMismatch, GridTooLarge, GridTooSmall

POINT_CAP = 2 ** 24
# interior grid points per slab of the streamed curl-of-product check, summed
# over the parts that run at once
_SLAB_POINTS = 2 ** 15


@dataclass(frozen=True)
class GridSpec:
    """Uniform point grid over an axis-aligned cuboid in 2 or 3 dimensions."""

    shape: tuple
    origin: tuple
    spacing: float

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        origin = tuple(float(c) for c in self.origin)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", float(self.spacing))
        if len(shape) not in (2, 3):
            raise DimensionMismatch(f"grid dimension must be 2 or 3, got {len(shape)}")
        if len(origin) != len(shape):
            raise ValueError("origin length must match grid dimension")
        if any(n < 1 for n in shape):
            raise ValueError("grid shape entries must be positive")
        if self.num_points > POINT_CAP:
            raise GridTooLarge(f"grid has {self.num_points} points, cap is {POINT_CAP}")
        if not all(math.isfinite(c) for c in origin):
            raise ValueError(f"grid origin must be finite, got {origin}")
        if not (math.isfinite(self.spacing) and self.spacing > 0.0):
            raise ValueError(f"grid spacing must be positive and finite, got {self.spacing}")
        # the cell measure h**dim weighs every quadrature; by multiplication,
        # since a float power raises OverflowError where a product gives inf
        cell = math.prod((self.spacing,) * len(shape))
        if not sys.float_info.min <= cell <= sys.float_info.max:
            raise ValueError(f"grid spacing {self.spacing} gives a cell measure "
                             f"spacing**{len(shape)} = {cell} outside the normal "
                             f"float range")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def num_points(self) -> int:
        return math.prod(self.shape)

    def axes(self):
        """Per-axis coordinate arrays."""
        return tuple(self.origin[k] + self.spacing * np.arange(self.shape[k])
                     for k in range(self.dim))

    def points(self) -> np.ndarray:
        """All grid points, shape (*shape, dim)."""
        return self.plane_points(0, self.shape[0])

    def plane_points(self, start: int, stop: int) -> np.ndarray:
        """The points of planes [start, stop) along axis 0, in one array."""
        axes = self.axes()
        axes = (axes[0][start:stop],) + axes[1:]
        out = np.empty(tuple(a.size for a in axes) + (self.dim,))
        for k, a in enumerate(axes):
            out[..., k] = a.reshape((-1,) + (1,) * (self.dim - 1 - k))
        return out

    def refine(self) -> "GridSpec":
        """Halve the spacing, keeping the same cuboid: n points become 2n-1."""
        return GridSpec(tuple(2 * n - 1 for n in self.shape), self.origin,
                        self.spacing / 2.0)

    def face(self, axis: int = -1) -> "GridSpec":
        """The (dim-1)-grid of a face where the given axis is extremal.

        Both faces normal to the axis share this geometry.
        """
        axis = axis % self.dim
        shape = tuple(n for k, n in enumerate(self.shape) if k != axis)
        origin = tuple(c for k, c in enumerate(self.origin) if k != axis)
        if len(shape) < 2:
            raise DimensionMismatch("face grids are only defined for 3d grids")
        return GridSpec(shape, origin, self.spacing)

    def interior(self):
        """Slices selecting interior points on every axis."""
        return tuple(slice(1, -1) for _ in range(self.dim))


@dataclass(frozen=True)
class GridField:
    """Per-point values on a grid; a subclass fixes the component shape."""

    grid: GridSpec
    values: np.ndarray
    _rank = 0  # component axes after the grid axes, each of length grid.dim

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        shape = self.grid.shape + self._trailing(values)
        if values.shape != shape:
            raise ValueError(f"{type(self).__name__} values must have shape {shape}, "
                             f"got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{type(self).__name__} contains non-finite entries")
        object.__setattr__(self, "values", values)

    def _trailing(self, values) -> tuple:
        return (self.grid.dim,) * self._rank

    @classmethod
    def constant(cls, grid, value):
        value = np.asarray(value, dtype=float)
        return cls(grid, np.broadcast_to(value, grid.shape + value.shape).copy())

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def sample_planes(self, start: int, stop: int) -> np.ndarray:
        """Values on planes [start, stop) along axis 0, as a view."""
        return self.values[start:stop]


class VectorField(GridField):
    """Per-point real vectors on a grid; component count may differ from dim."""

    def _trailing(self, values) -> tuple:
        if values.ndim != self.grid.dim + 1:
            raise ValueError("vector field values must have one component axis")
        return values.shape[-1:]

    @property
    def components(self) -> int:
        return self.values.shape[-1]

    @classmethod
    def zeros(cls, grid, components):
        return cls(grid, np.zeros(grid.shape + (components,)))


class MatrixField(GridField):
    """Per-point square dim x dim matrices on a grid."""

    _rank = 2


class CoefficientTensorField(GridField):
    """Per-point linear maps from R^N to R^(N x N), indexed [row, col, input]."""

    _rank = 3

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape + (grid.dim,) * 3))

    def apply(self, zeta: VectorField) -> MatrixField:
        """Pointwise matrix G(x) zeta(x)."""
        if zeta.grid != self.grid:
            raise DimensionMismatch("zeta must live on the tensor's grid")
        vals = np.einsum("...ijk,...k->...ij", self.values, zeta.values)
        return MatrixField(self.grid, vals)


def _require_stencil_room(grid):
    if any(n < 3 for n in grid.shape):
        raise GridTooSmall(f"need >= 3 points per axis for derivatives, shape {grid.shape}")


def _gradient(values, spacing, axis):
    # np.gradient with edge_order=2: central interior, 3-point one-sided edges
    return np.gradient(values, spacing, axis=axis, edge_order=2)


def _central(values, spacing, axis, ndim=3):
    """Central difference along a grid axis, on the interior of all ndim.

    The ndim grid axes come first.  Each value is (f[+1] - f[-1]) / (2h), the
    expression np.gradient uses at interior points, so the two agree bit for
    bit; edge points are read as stencil input and never differenced.
    """
    ahead = [slice(1, -1)] * ndim
    behind = list(ahead)
    ahead[axis], behind[axis] = slice(2, None), slice(None, -2)
    out = values[tuple(ahead)] - values[tuple(behind)]
    out /= 2. * spacing
    return out


def _jacobian(values, spacing, diff, dim):
    """Differences of every component along each of the dim leading grid axes.

    Entry [..., k] is the difference along axis k.  One difference per axis
    covers all components and goes into one output, so the peak holds the
    output and one difference.
    """
    first = diff(values, spacing, 0)
    out = np.empty(first.shape + (dim,))
    out[..., 0] = first
    del first
    for k in range(1, dim):
        out[..., k] = diff(values, spacing, k)
    return out


def _curl_rows(values, spacing, diff):
    # curl_row never reads the derivative of entry c along axis c
    return np.stack([algebra.curl_row([[diff(values[..., l, c], spacing, j) if j != c
                                        else None for j in range(3)]
                                       for c in range(3)])
                     for l in range(3)], axis=-2)


def fd_grad(f: VectorField) -> MatrixField:
    """Jacobian of a vector field: row i of the result is the gradient of f_i."""
    grid = f.grid
    _require_stencil_room(grid)
    if f.components != grid.dim:
        raise DimensionMismatch(
            f"fd_grad needs {grid.dim} components on a {grid.dim}d grid, got {f.components}")
    return MatrixField(grid, _jacobian(f.values, grid.spacing, _gradient, grid.dim))


def fd_curl_rowwise(m: MatrixField) -> MatrixField:
    """Row-wise curl of a 3d matrix field."""
    grid = m.grid
    if grid.dim != 3:
        raise DimensionMismatch("row-wise curl requires a 3d grid")
    _require_stencil_room(grid)
    return MatrixField(grid, _curl_rows(m.values, grid.spacing, _gradient))


@dataclass(frozen=True)
class ConvergenceReport:
    """Max-norm errors across grids refined by spacing halving."""

    spacings: tuple
    max_errors: tuple

    def __post_init__(self):
        spacings = tuple(float(h) for h in self.spacings)
        errors = tuple(float(e) for e in self.max_errors)
        if len(spacings) != len(errors) or not spacings:
            raise ValueError("need one error per spacing")
        for a, b in zip(spacings, spacings[1:]):
            if not math.isclose(a / b, 2.0, rel_tol=1e-9):
                raise ValueError("spacings must refine by exact factors of 2")
        object.__setattr__(self, "spacings", spacings)
        object.__setattr__(self, "max_errors", errors)

    @property
    def orders(self) -> tuple:
        """Observed order log2(err(h) / err(h/2)) per refinement step."""
        out = []
        for e0, e1 in zip(self.max_errors, self.max_errors[1:]):
            if e1 == 0.0:
                out.append(float("inf"))
            else:
                out.append(math.log2(e0 / e1))
        return tuple(out)

    @property
    def min_order(self) -> float:
        orders = self.orders
        return min(orders) if orders else float("nan")


def refinement_errors(error_fn, base_grid: GridSpec, levels: int = 2) -> ConvergenceReport:
    """Evaluate a grid-indexed error functional on successively refined grids."""
    if levels < 1:
        raise ValueError("need at least one level")
    # every level's grid is built, and so checked against POINT_CAP, before any work
    grids = [base_grid]
    for _ in range(levels - 1):
        grids.append(grids[-1].refine())
    return ConvergenceReport(tuple(g.spacing for g in grids),
                             tuple(float(error_fn(g)) for g in grids))


def curl_product_discrepancy(x, y) -> float:
    """Interior max-norm gap between FD curl(X @ Y) and the pointwise formula.

    x and y are MatrixFields, or any fields with a grid and a
    sample_planes(start, stop) that returns their values on planes [start,
    stop) of axis 0, such as an analytic family sampled lazily.  Each slab
    of interior planes sees one halo plane per side, and only its interior
    points are differenced, with the expression np.gradient uses there, so
    the result equals a whole-grid pass bit for bit, whatever the number of
    parts the planes are split into.  sample_planes may be called from
    several threads at once.
    """
    if x.grid != y.grid:
        raise DimensionMismatch("X and Y must share a grid")
    if x.grid.dim != 3:
        raise DimensionMismatch("the curl-of-product identity lives on 3d grids")
    grid = x.grid
    _require_stencil_room(grid)
    last = grid.shape[0] - 1
    # the planes one serial slab holds, its two halo planes included; the
    # parts' slabs share them, so the working set is one serial slab's
    budget = max(1, _SLAB_POINTS // (grid.shape[1] * grid.shape[2])) + 2
    # two interior planes per part and per slab at least: the planes at two
    # cuts are never the same plane, and no slab holds more halo planes than
    # planes it differences
    parts = max(1, min(_usable_cpus(), (last - 1) // 2, budget // 4))
    edges = [1 + (last - 1) * p // parts for p in range(parts + 1)]
    planes = budget // parts - 2
    # the planes [edge - 1, edge + 1) at each cut end one part and start the next
    x_cuts, y_cuts = ([None] + [f.sample_planes(e - 1, e + 1) for e in edges[1:-1]]
                      + [None] for f in (x, y))
    parts_args = [(x, y,
                   [(start, min(start + planes, b)) for start in range(a, b, planes)],
                   x_cuts[p:p + 2], y_cuts[p:p + 2])
                  for p, (a, b) in enumerate(zip(edges, edges[1:]))]
    return max(_in_threads(_part_gap, parts_args))


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_threads(fn, args_list) -> list:
    """fn(*args) for each args in args_list, all but the first in threads.

    The first call runs in the calling thread, so one call starts no thread.
    Every thread is joined before this returns or raises, and an exception
    raised in a thread is raised here, the earliest call's first.
    """
    results = [None] * len(args_list)
    errors = [None] * len(args_list)

    def run(k):
        try:
            results[k] = fn(*args_list[k])
        except BaseException as exc:  # raised again in the calling thread
            errors[k] = exc

    started = []
    try:
        for k in range(1, len(args_list)):
            thread = threading.Thread(target=run, args=(k,))
            thread.start()
            started.append(thread)
        results[0] = fn(*args_list[0])
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _part_gap(x, y, bounds, x_ends, y_ends) -> float:
    """The gap over one part's slabs; x_ends and y_ends are its (head, tail)."""
    grid = x.grid
    h = grid.spacing
    inner = grid.interior()
    slab_max = []
    for xs, ys in zip(_halo_slabs(x, bounds, *x_ends), _halo_slabs(y, bounds, *y_ends)):
        lhs = _curl_rows(xs @ ys, h, _central)
        # row 3 * i + j of the entry gradients holds entry (i, j)
        grad_x = _jacobian(xs, h, _central, 3)
        rhs = algebra.curl_product_pointwise(grad_x.reshape(grad_x.shape[:-3] + (9, 3)),
                                             xs[inner], ys[inner],
                                             _curl_rows(ys, h, _central))
        slab_max.append(np.max(np.abs(lhs - rhs)))
    return float(np.max(slab_max))


def _halo_slabs(field, bounds, head=None, tail=None):
    """A field's values on planes [start - 1, stop + 1) for each slab in turn.

    Consecutive slabs (each start is the previous stop) share two planes,
    which are carried over, so every plane is sampled once.  With a the
    first slab's start and b the last slab's stop, head holds planes
    [a - 1, a + 1) and tail planes [b - 1, b + 1), where given; neither is
    sampled again.
    """
    # planes from here on come from the tail
    tail_start = bounds[-1][1] + 1 if tail is None else bounds[-1][1] - 1
    values = head
    for start, stop in bounds:
        held = start - 1 if values is None else start + 1  # first plane not held
        pieces = [] if values is None else [values[-2:]]
        if min(stop + 1, tail_start) > held:
            pieces.append(field.sample_planes(held, min(stop + 1, tail_start)))
        if stop + 1 > tail_start:
            pieces.append(tail[max(held, tail_start) - tail_start:stop + 1 - tail_start])
        values = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        del pieces  # the previous slab's values are freed before this slab's work
        yield values
