"""Reference covering loop that the tests check flood_propagate against.

The program reads every cuboid's residual off one field built for the whole
grid, and stops trying a growth side once its layer has failed.  Here each
growth pass tries every side again until a whole pass adds nothing, and each
cuboid's residual is fd_grad(zeta) - G zeta taken on a grid of its own block,
so a test can ask that both pick the same cuboids and report the same values.
The frontier search is a copy of its own, written another way.  The input
checks of flood_propagate are left out: callers pass valid input.
"""

import numpy as np

from korn_kit.fields import CoefficientTensorField, GridSpec, VectorField, fd_grad
from korn_kit.transport import (_BASE_SLAB, RESIDUAL_TOL, CoverageReport, CuboidRecord,
                                ResidualReport)


def reference_frontier(domain, covered):
    """(axis, direction, point) of the first uncovered domain point in C order whose
    neighbour at -direction along axis is covered, axes in order, +1 before -1."""
    for axis in range(domain.ndim):
        for direction in (1, -1):
            # behind[p] is covered[p - direction * e_axis], False past the grid
            behind = np.zeros_like(covered)
            to, frm = [slice(None)] * domain.ndim, [slice(None)] * domain.ndim
            to[axis], frm[axis] = ((slice(1, None), slice(None, -1)) if direction > 0
                                   else (slice(None, -1), slice(1, None)))
            behind[tuple(to)] = covered[tuple(frm)]
            hits = np.argwhere(domain & ~covered & behind)
            if len(hits):
                return axis, direction, tuple(int(i) for i in hits[0])
    return None


def block_residual(zeta_vals, g_vals, spacing) -> ResidualReport:
    """Interior max-norm of fd_grad(zeta) - G zeta on a grid of the block alone."""
    grid = GridSpec(zeta_vals.shape[:-1], (0.0,) * (zeta_vals.ndim - 1), spacing)
    zeta = VectorField(grid, zeta_vals)
    residual = fd_grad(zeta).values \
        - CoefficientTensorField(grid, g_vals).apply(zeta).values
    inner = grid.interior()
    per_axis = tuple(float(np.max(np.abs(residual[inner][..., :, j])))
                     for j in range(grid.dim))
    max_norm = max(per_axis)
    return ResidualReport(max_norm, per_axis, RESIDUAL_TOL, max_norm <= RESIDUAL_TOL)


def reference_flood(domain, seed, coefficient, zeta, tol=None) -> CoverageReport:
    grid = zeta.grid
    seed_scale = float(np.max(np.abs(zeta.values[seed])))
    if tol is None:
        tol = 1e-10 * (1.0 + seed_scale)
    covered = seed.copy()
    n_domain = np.count_nonzero(domain)
    if seed_scale > tol:
        return CoverageReport((), float(np.count_nonzero(covered) / n_domain), float(tol),
                              False, f"seed data is not zero (max {seed_scale:g} > tol {tol:g})")
    records = []
    while (frontier := reference_frontier(domain, covered)) is not None:
        axis, direction, point = frontier
        c = point[axis]
        line = covered[point[:axis] + (slice(None),) + point[axis + 1:]]
        back = (line[c - 1::-1] if direction > 0 else line[c + 1:])[:_BASE_SLAB]
        depth = len(back) if back.all() else int(back.argmin())
        slab = [c - depth, c] if direction > 0 else [c + 1, c + 1 + depth]
        box = [[p, p + 1] for p in point]
        box[axis] = [min(c, slab[0]), max(c + 1, slab[1])]

        grown = True
        while grown:
            grown = False
            for ax in range(grid.dim):
                for d in (1, -1):
                    edge = box[ax][1] if d > 0 else box[ax][0] - 1
                    if (ax == axis and d == -direction) or not 0 <= edge < grid.shape[ax]:
                        continue
                    added = box[:ax] + [[edge, edge + 1]] + box[ax + 1:]
                    beside = added[:axis] + [slab] + added[axis + 1:]
                    if (domain[tuple(slice(*r) for r in added)].all()
                            and (ax == axis or covered[tuple(slice(*r) for r in beside)].all())):
                        box[ax] = [min(box[ax][0], edge), max(box[ax][1], edge + 1)]
                        grown = True

        sub = tuple(slice(*r) for r in box)
        zeta_vals = zeta.values[sub]
        face = np.take(zeta_vals, 0 if direction > 0 else -1, axis=axis)
        face_max = float(np.max(np.abs(face)))
        zeta_max = float(np.max(np.abs(zeta_vals)))
        residual = None
        if all(m >= 3 for m in zeta_vals.shape[:-1]):
            residual = block_residual(zeta_vals, coefficient.values[sub], grid.spacing)
        passed = (face_max <= tol and zeta_max <= tol
                  and (residual is None or residual.passed))
        record = CuboidRecord(tuple((lo, hi) for lo, hi in box), axis, direction,
                              face_max, zeta_max, residual, passed)
        records.append(record)
        if not passed:
            return CoverageReport(tuple(records), float(np.count_nonzero(covered) / n_domain),
                                  float(tol), False,
                                  f"cuboid {len(records) - 1} at {record.bounds} failed")
        covered[sub] = True
    return CoverageReport(tuple(records), 1.0, float(tol), True,
                          "domain covered; zeta vanishes at tolerance")
