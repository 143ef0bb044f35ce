"""Growth tests of the flood covering on summed-area tables."""

import numpy as np
import pytest

from korn_kit.fields import GridSpec, VectorField
from korn_kit.transport import CoefficientTensorField, _SummedArea, flood_propagate
from reference_covering import reference_flood


class TestSummedArea:
    """full(box) says whether every point of a box is set, as mask[box].all() does."""

    @pytest.mark.parametrize("shape", [(12,), (9, 7), (6, 5, 7), (1, 6), (4, 1, 3)])
    def test_agrees_with_all_on_every_small_box(self, shape):
        rng = np.random.default_rng(len(shape))
        origin = [int(v) for v in rng.integers(0, 4, len(shape))]
        for density in (0.6, 0.95):
            mask = rng.random(shape) < density
            table = _SummedArea(mask, origin)
            boxes = 0
            for lo in np.ndindex(*shape):
                for hi in np.ndindex(*(min(n - l, 3) for l, n in zip(lo, shape))):
                    box = [(o + l, o + l + h + 1) for o, l, h in zip(origin, lo, hi)]
                    block = mask[tuple(slice(l, l + h + 1) for l, h in zip(lo, hi))]
                    assert table.full(box) == bool(block.all()), box
                    boxes += 1
            assert boxes > 0

    def test_whole_mask(self):
        mask = np.ones((5, 4, 3), dtype=bool)
        table = _SummedArea(mask, [2, 0, 7])
        assert table.full([(2, 7), (0, 4), (7, 10)])
        mask[4, 3, 2] = False
        table = _SummedArea(mask, [2, 0, 7])
        assert not table.full([(2, 7), (0, 4), (7, 10)])
        assert table.full([(2, 6), (0, 4), (7, 10)])


def _ball(n, dim):
    idx = np.arange(n) - (n - 1) / 2.0
    return sum(c ** 2 for c in np.meshgrid(*[idx] * dim, indexing="ij")) \
        <= ((n - 1) / 2.0) ** 2


class TestBenchmarkFlood:
    """The benchmark's flood: the 21^3 ball seeded on two layers of axis 0."""

    @pytest.mark.parametrize("zeta_kind", ["zero", "noise"])
    def test_equals_reference_loop(self, zeta_kind):
        domain = _ball(21, 3)
        seed = np.zeros_like(domain)
        seed[:2] = domain[:2]
        grid = GridSpec(domain.shape, (0.0,) * 3, 1.0 / 20)
        rng = np.random.default_rng(901)
        coef = CoefficientTensorField(grid, rng.uniform(-1, 1, grid.shape + (3, 3, 3)))
        vals = np.zeros(grid.shape + (3,))
        if zeta_kind == "noise":
            vals = 1e-13 * np.random.default_rng(29).standard_normal(vals.shape)
        zeta = VectorField(grid, vals)
        report = flood_propagate(domain, seed, coef, zeta)
        assert report == reference_flood(domain, seed, coef, zeta)
        assert report.passed and report.n_cuboids == 126
        residuals = [rec.residual.max_norm for rec in report.cuboids
                     if rec.residual is not None]
        assert residuals and all((r > 0.0) == (zeta_kind == "noise") for r in residuals)
