"""Pointwise algebra: identifications, L operators, curl-of-product formula."""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from korn_kit import algebra
from reference_algebra import build_l_operators

finite_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False,
                          allow_infinity=False)


def crossprod_oracle(a, x):
    # componentwise cross product, written out independently of numpy.cross
    return np.array([
        a[1] * x[2] - a[2] * x[1],
        a[2] * x[0] - a[0] * x[2],
        a[0] * x[1] - a[1] * x[0],
    ])


def permutation_oracle_mat(v):
    # entry (i, j) of mat(v) is v[3 i + j], by explicit index loops
    out = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            out[i, j] = v[3 * i + j]
    return out


class TestVecMat:
    def test_display_example(self):
        got = algebra.mat_of_vec(np.arange(1.0, 10.0))
        assert np.array_equal(got, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])

    def test_zero_roundtrip(self):
        v = np.zeros(9)
        assert np.array_equal(algebra.vec_of_mat(algebra.mat_of_vec(v)), v)

    def test_random_roundtrip_bit_exact(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(-5, 5, 9)
        m = algebra.mat_of_vec(v)
        assert np.array_equal(m, permutation_oracle_mat(v))
        assert np.array_equal(algebra.vec_of_mat(m), v)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            algebra.mat_of_vec([np.nan] + [0.0] * 8)

    @given(arrays(float, 9, elements=finite_floats))
    def test_roundtrip_property(self, v):
        assert np.array_equal(algebra.vec_of_mat(algebra.mat_of_vec(v)), v)


class TestAxlSmat:
    def test_smat_display(self):
        expected = np.array([[0, -3, 2], [3, 0, -1], [-2, 1, 0]], dtype=float)
        assert np.array_equal(algebra.smat([1.0, 2.0, 3.0]), expected)

    def test_axl_zero(self):
        assert np.array_equal(algebra.axl(np.zeros((3, 3))), np.zeros(3))

    def test_smat_matches_cross_product(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = rng.uniform(-1, 1, 3)
            x = rng.uniform(-1, 1, 3)
            assert algebra.smat(a) @ x == pytest.approx(crossprod_oracle(a, x), abs=1e-15)

    def test_axl_rejects_non_skew(self):
        with pytest.raises(ValueError):
            algebra.axl(np.eye(3))

    @given(arrays(float, 3, elements=finite_floats))
    def test_roundtrips_exact(self, a):
        assert np.array_equal(algebra.axl(algebra.smat(a)), a)
        m = algebra.smat(a)
        assert np.array_equal(algebra.smat(algebra.axl(m)), m)

    def test_skewmat3_storage(self):
        s = algebra.SkewMat3([1.0, -2.0, 0.5])
        assert np.array_equal(s.matrix + s.matrix.T, np.zeros((3, 3)))
        back = algebra.SkewMat3.from_matrix(s.matrix)
        assert np.array_equal(back.axial, s.axial)
        with pytest.raises(ValueError):
            algebra.SkewMat3.from_matrix(np.eye(3))


class TestExtractions:
    def test_display_examples(self):
        m = algebra.mat_of_vec(np.arange(1.0, 10.0))
        assert np.array_equal(algebra.dvec(m), [1, 5, 9])
        assert np.array_equal(algebra.skewvec(m), [-6, 3, -2])
        assert np.array_equal(algebra.symvec(m), [8, -7, 4])

    def test_identity(self):
        eye = np.eye(3)
        assert np.array_equal(algebra.dvec(eye), [1, 1, 1])
        assert np.array_equal(algebra.skewvec(eye), np.zeros(3))
        assert np.array_equal(algebra.symvec(eye), np.zeros(3))

    @given(arrays(float, 3, elements=finite_floats))
    def test_on_so3_all_equal_axl(self, a):
        m = algebra.smat(a)
        assert np.array_equal(algebra.skewvec(m), a)
        assert np.array_equal(algebra.symvec(m), a)
        assert np.array_equal(algebra.dvec(m), np.zeros(3))


# vec index and sign of each entry read by dvec, skewvec and symvec
_EXTRACTIONS = (((0, 4, 8), (1.0, 1.0, 1.0)),
                ((5, 2, 1), (-1.0, 1.0, -1.0)),
                ((7, 6, 3), (1.0, -1.0, 1.0)))


def _stacked_rows(grad27, idx, sign):
    # the signed gradient rows of one extraction, stacked one row at a time
    rows = np.stack([s * grad27[..., k, :] for k, s in zip(idx, sign)], axis=-2)
    return rows.reshape(rows.shape[:-2] + (9,))


class TestHatMaps:
    @pytest.mark.parametrize("shape", [(4, 5, 9, 3), (9, 3)], ids=["batch", "single"])
    def test_gather_equals_per_row_stack(self, shape):
        grad27 = np.random.default_rng(12).uniform(-1, 1, shape)
        grad27[(0,) * (len(shape) - 1)] = 0.0  # signed zeros keep their sign too
        tables = ((algebra._DVEC_IDX, algebra._DVEC_SIGN),
                  (algebra._SKEWVEC_IDX, algebra._SKEWVEC_SIGN),
                  (algebra._SYMVEC_IDX, algebra._SYMVEC_SIGN))
        for (idx, sign), (table_idx, table_sign) in zip(_EXTRACTIONS, tables):
            got = algebra._gather(grad27, table_idx, table_sign)
            expected = _stacked_rows(grad27, idx, sign)
            assert got.shape == shape[:-2] + (3, 3)
            got = got.reshape(expected.shape)
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))


class TestLOperators:
    def test_zero_matrix(self):
        ops = build_l_operators(np.zeros((3, 3)))
        for block in (ops.diag, ops.skew, ops.sym, ops.full):
            assert np.array_equal(block, np.zeros((9, 9)))

    def test_identity_block_pattern(self):
        ops = build_l_operators(np.eye(3))
        e = np.eye(3)
        z = np.zeros((3, 3))
        s = [algebra.smat(e[n]) for n in range(3)]
        expected = np.block([[z, -s[2], s[1]], [s[2], z, -s[0]], [-s[1], s[0], z]])
        assert np.array_equal(ops.full, expected)
        assert np.array_equal(ops.full, ops.full.T)
        for n in range(3):
            assert np.array_equal(ops.diag[3 * n:3 * n + 3, 3 * n:3 * n + 3], -s[n])

    def test_determinant_identity_diag123(self):
        ops = build_l_operators(np.diag([1.0, 2.0, 3.0]))
        assert np.linalg.det(ops.full) == pytest.approx(-432.0, rel=1e-12)

    def test_determinant_identity_random(self):
        rng = np.random.default_rng(2)
        ys = rng.uniform(-1, 1, (1000, 3, 3))
        det_l = np.linalg.det(build_l_operators(ys).full)
        det_y = np.linalg.det(ys)
        scale = np.maximum(1.0, np.abs(det_y) ** 3)
        assert np.max(np.abs(det_l + 2.0 * det_y ** 3) / scale) <= 1e-10

    @settings(max_examples=50)
    @given(arrays(float, (3, 3), elements=finite_floats))
    def test_symmetry_and_split_exact(self, y):
        ops = build_l_operators(y)
        assert np.array_equal(ops.full, ops.full.T)
        assert np.array_equal(ops.full, ops.skew + ops.sym)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(3)
        ys = rng.uniform(-1, 1, (7, 3, 3))
        batched = build_l_operators(ys).full
        for k in range(7):
            assert np.array_equal(batched[k], build_l_operators(ys[k]).full)


class TestApplyLInverse:
    def test_matches_reference_inverse(self):
        rng = np.random.default_rng(11)
        ys = rng.uniform(-1, 1, (3000, 3, 3))
        ys = ys[np.abs(np.linalg.det(ys)) > 0.05][:1000]
        assert len(ys) == 1000
        hs = rng.uniform(-1, 1, (1000, 3, 3))
        got = algebra.apply_l_inverse(ys, hs, np.linalg.det(ys)).reshape(1000, 9)
        full = build_l_operators(ys).full
        ref = np.einsum("npq,nq->np", np.linalg.inv(full), hs.reshape(1000, 9))
        scale = np.max(np.abs(ref), axis=-1)
        assert np.all(np.max(np.abs(got - ref), axis=-1) <= 1e-12 * scale)

    def test_formula_is_exact_inverse_in_rationals(self):
        y = np.array([[2, 1, 0], [0, 3, 1], [1, 0, 1]])
        ys = sympy.Matrix(y)
        assert ys.det() == 7
        exact = sympy.Matrix(build_l_operators(y).full.astype(int)).inv()
        for c in range(9):
            h = sympy.Matrix(3, 3, lambda i, j: int(3 * i + j == c))
            k = ((ys.T * h).trace() / 2 * ys - ys * h.T * ys) / ys.det()
            assert list(k) == list(exact[:, c])  # sympy flattens row-major
        got = algebra.apply_l_inverse(y.astype(float), np.eye(9).reshape(9, 3, 3), 7.0)
        expected = np.array(exact.T.tolist(), dtype=float).reshape(9, 3, 3)
        assert np.max(np.abs(got - expected)) <= 1e-15

    def test_identity_is_nye_formula(self):
        h = np.random.default_rng(12).uniform(-1, 1, (3, 3))
        got = algebra.apply_l_inverse(np.eye(3), h, 1.0)
        assert np.array_equal(got, np.trace(h) / 2 * np.eye(3) - h.T)


def _grad27_of_skew(grad_axl):
    # entry gradients of smat(zeta) when the axial vector has Jacobian grad_axl
    out = np.zeros((9, 3))
    for c in range(3):
        out += algebra.smat(np.eye(3)[c]).reshape(9, 1) * grad_axl[c][None, :]
    return out


class TestCurlProduct:
    def test_constant_x(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (3, 3))
        y = rng.uniform(-1, 1, (3, 3))
        curl_y = rng.uniform(-1, 1, (3, 3))
        got = algebra.curl_product_pointwise(np.zeros((9, 3)), x, y, curl_y)
        assert got == pytest.approx(x @ curl_y, abs=1e-15)

    def test_skew_input_matches_l_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            zeta = rng.uniform(-1, 1, 3)
            grad_axl = rng.uniform(-1, 1, (3, 3))
            y = rng.uniform(-1, 1, (3, 3))
            curl_y = rng.uniform(-1, 1, (3, 3))
            general = algebra.curl_product_pointwise(
                _grad27_of_skew(grad_axl), algebra.smat(zeta), y, curl_y)
            l_full = build_l_operators(y).full
            direct = algebra.mat_of_vec(l_full @ grad_axl.reshape(9)) \
                + algebra.smat(zeta) @ curl_y
            assert general == pytest.approx(direct, abs=1e-13)

    def test_general_batch_matches_9x9_operators(self):
        # oracle: contract the three 9x9 operators of build_l_operators
        rng = np.random.default_rng(9)
        grad27 = rng.uniform(-1, 1, (200, 9, 3))
        x = rng.uniform(-1, 1, (200, 3, 3))
        y = rng.uniform(-1, 1, (200, 3, 3))
        curl_y = rng.uniform(-1, 1, (200, 3, 3))
        ops = build_l_operators(y)
        combo = sum(np.einsum("...pq,...q->...p", op, _stacked_rows(grad27, idx, sign))
                    for op, (idx, sign) in zip((ops.diag, ops.skew, ops.sym), _EXTRACTIONS))
        expected = algebra.mat_of_vec(combo) + x @ curl_y
        got = algebra.curl_product_pointwise(grad27, x, y, curl_y)
        assert got.shape == (200, 3, 3)
        assert np.max(np.abs(got - expected)) <= 1e-13

    def test_polynomial_against_symbolic_differentiation(self):
        x1, x2, x3 = sympy.symbols("x1 x2 x3")
        syms = (x1, x2, x3)
        rng = np.random.default_rng(7)
        monomials = [sympy.Integer(1), x1, x2, x3, x1 * x2, x1 * x3, x2 * x3,
                     x1 ** 2, x2 ** 2, x3 ** 2]

        def rand_poly():
            return sum(int(rng.integers(-3, 4)) * m for m in monomials)

        x_sym = sympy.Matrix(3, 3, lambda i, j: rand_poly())
        y_sym = sympy.Matrix(3, 3, lambda i, j: rand_poly())
        prod = x_sym * y_sym

        def curl_rows(m):
            rows = []
            for l in range(3):
                v = [m[l, c] for c in range(3)]
                rows.append([
                    sympy.diff(v[2], x2) - sympy.diff(v[1], x3),
                    sympy.diff(v[0], x3) - sympy.diff(v[2], x1),
                    sympy.diff(v[1], x1) - sympy.diff(v[0], x2),
                ])
            return sympy.Matrix(rows)

        point = {x1: sympy.Rational(3, 10), x2: sympy.Rational(-7, 10),
                 x3: sympy.Rational(11, 10)}

        def at(m):
            return np.array(m.subs(point)).astype(float)

        grad27 = np.array([
            [float(sympy.diff(x_sym[i, j], s).subs(point)) for s in syms]
            for i in range(3) for j in range(3)])
        got = algebra.curl_product_pointwise(grad27, at(x_sym), at(y_sym),
                                             at(curl_rows(y_sym)))
        expected = at(curl_rows(prod))
        scale = max(1.0, np.max(np.abs(expected)))
        assert np.max(np.abs(got - expected)) <= 1e-12 * scale


class TestCurlProductSkew:
    def test_all_zero(self):
        got = algebra.curl_product_skew_pointwise(
            np.zeros((3, 3)), algebra.SkewMat3([1.0, 2.0, 3.0]),
            np.eye(3), np.zeros((3, 3)))
        assert np.array_equal(got, np.zeros((3, 3)))

    def test_agrees_with_general_formula(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            zeta = rng.uniform(-1, 1, 3)
            grad_axl = rng.uniform(-1, 1, (3, 3))
            y = rng.uniform(-1, 1, (3, 3))
            curl_y = rng.uniform(-1, 1, (3, 3))
            general = algebra.curl_product_pointwise(
                _grad27_of_skew(grad_axl), algebra.smat(zeta), y, curl_y)
            special = algebra.curl_product_skew_pointwise(
                grad_axl, algebra.SkewMat3(zeta), y, curl_y)
            assert np.max(np.abs(general - special)) <= 1e-13

    def test_identity_y_linear_axial(self):
        # axial vector (t, 0, 0) linear in x1: grad_axl has a single 1 entry
        grad_axl = np.zeros((3, 3))
        grad_axl[0, 0] = 1.0
        a = algebra.SkewMat3([0.5, 0.0, 0.0])
        got = algebra.curl_product_skew_pointwise(grad_axl, a, np.eye(3),
                                                  np.zeros((3, 3)))
        l_id = build_l_operators(np.eye(3)).full
        expected = algebra.mat_of_vec(l_id @ grad_axl.reshape(9))
        assert np.array_equal(got, expected)

    def test_accepts_exact_skew_array(self):
        zeta = np.array([0.2, -0.4, 1.0])
        got = algebra.curl_product_skew_pointwise(
            np.zeros((3, 3)), algebra.smat(zeta), np.eye(3), np.eye(3))
        assert got == pytest.approx(algebra.smat(zeta), abs=1e-15)


class TestSelftest:
    def test_l_reader_matches_reference_operators(self):
        ys = np.random.default_rng(13).uniform(-1, 1, (200, 3, 3))
        l_full, l_skew, l_sym = algebra.read_l_operators(ys)
        ops = build_l_operators(ys)
        assert np.array_equal(l_full, ops.full)
        assert np.array_equal(l_skew, ops.skew)
        assert np.array_equal(l_sym, ops.sym)

    @pytest.mark.parametrize("seed", range(10))
    def test_passes_at_default_tolerances(self, seed):
        rows = algebra.selftest(np.random.default_rng(seed), 1e-10, 1e-13)
        assert [row[0] for row in rows] == [
            "mat_of_vec_layout", "vec_mat_roundtrip", "smat_cross_product",
            "so3_extractions", "l_symmetry", "l_decomposition",
            "l_determinant_identity", "skew_specialization", "l_inverse_residual"]
        assert all(passed for *_, passed in rows)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_batched_checks_equal_per_sample_loops(self, seed):
        # the per-sample loops of the two checks that were written as loops,
        # fed the same random stream: skip the draws of the earlier checks
        rows = algebra.selftest(np.random.default_rng(seed), 1e-10, 1e-13)
        rng = np.random.default_rng(seed)
        rng.uniform(-1, 1, 100 * 9 + 2 * 100 * 3 + 1000 * 9)
        skew_worst = 0.0
        for _ in range(100):
            zeta = rng.uniform(-1, 1, 3)
            grad_axl = rng.uniform(-1, 1, (3, 3))
            y = rng.uniform(-1, 1, (3, 3))
            curl_y = rng.uniform(-1, 1, (3, 3))
            general = algebra.curl_product_pointwise(
                _grad27_of_skew(grad_axl), algebra.smat(zeta), y, curl_y)
            special = algebra.curl_product_skew_pointwise(
                grad_axl, algebra.SkewMat3(zeta), y, curl_y)
            skew_worst = max(skew_worst, float(np.max(np.abs(general - special))))
        inverse_worst = 0.0
        for _ in range(20):
            y = rng.uniform(-1, 1, (3, 3))
            y = y / np.cbrt(abs(np.linalg.det(y)))
            columns = algebra.apply_l_inverse(y[None], np.eye(9).reshape(9, 3, 3),
                                              np.linalg.det(y)[None])
            l_inv = np.swapaxes(columns.reshape(9, 9), -1, -2)
            residual = algebra.read_l_operators(y)[0] @ l_inv - np.eye(9)
            inverse_worst = max(inverse_worst, float(np.max(np.abs(residual))))
        assert rows[7][:3] == ["skew_specialization", 100, skew_worst]
        assert rows[8][:3] == ["l_inverse_residual", 20, inverse_worst]
