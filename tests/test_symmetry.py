"""Symmetry oracles: a constant rotation Q acting on the displacement and on P.

For (u, P) -> (Q u, Q P), grad(Q u) (Q P)^{-1} = Q (grad u P^{-1}) Q^T, so
the seminorm and both Gram matrices are invariant and the discrete spectra
do not move.  On the transport side curl(Q P) = Q curl(P), and each slice
G[..., :, k, :] of the coefficient tensor is conjugated by Q.  Both hold on
the grid because the stencils are linear, so no tolerance beyond round-off
is needed.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from korn_kit.fields import GridSpec, MatrixField
from korn_kit.korn import KornProblem, assemble_form, build_gp, builtin_p_field, face_mask

GRID = GridSpec((5, 5, 5), (0.0,) * 3, 0.2)
FAMILIES = {
    "graded-roughness": {"amplitude": 0.2, "frequency": 2.0, "seed": 3},
    "rotation-valued": {"amp": 0.3, "freq": [1.0, 0.5, 0.0]},
}
# a rotation from a unit quaternion; a short quaternion is drawn again
quaternions = st.tuples(*[st.floats(-1.0, 1.0) for _ in range(4)])
SYMMETRY_SETTINGS = settings(max_examples=4, deadline=None)


def rotation(quaternion):
    w, x, y, z = np.asarray(quaternion) / np.linalg.norm(quaternion)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def rotated(p, q):
    return MatrixField(p.grid, q @ p.values)


def spectrum(p, mask, gram):
    form = assemble_form(KornProblem(GRID, p, mask))
    return scipy.linalg.eigh(form.operator.toarray(), form.gram(gram).toarray(),
                             eigvals_only=True)


@pytest.mark.parametrize("clamped", [True, False], ids=["clamped", "free"])
@pytest.mark.parametrize("family", FAMILIES)
@SYMMETRY_SETTINGS
@given(quaternion=quaternions)
def test_left_rotation_keeps_both_spectra(family, clamped, quaternion):
    assume(np.linalg.norm(quaternion) > 0.1)
    q = rotation(quaternion)
    p = builtin_p_field(family, GRID, **FAMILIES[family])
    mask = face_mask(GRID, 0, 0) if clamped else None
    for gram in ("l2", "h1"):
        plain, turned = spectrum(p, mask, gram), spectrum(rotated(p, q), mask, gram)
        np.testing.assert_allclose(turned, plain, rtol=0,
                                   atol=1e-10 * np.max(np.abs(plain)))


@pytest.mark.parametrize("family", FAMILIES)
@SYMMETRY_SETTINGS
@given(quaternion=quaternions)
def test_left_rotation_conjugates_each_slice_of_gp(family, quaternion):
    assume(np.linalg.norm(quaternion) > 0.1)
    q = rotation(quaternion)
    p = builtin_p_field(family, GRID, **FAMILIES[family])
    plain, turned = build_gp(p).values, build_gp(rotated(p, q)).values
    peak = np.max(np.abs(plain))
    assert peak > 0.01  # a vanishing tensor would satisfy the relation trivially
    for j in range(3):
        np.testing.assert_allclose(turned[..., :, j, :], q @ plain[..., :, j, :] @ q.T,
                                   rtol=0, atol=1e-12 * peak)
