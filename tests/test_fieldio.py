"""Field file format round-trips and validation."""

import numpy as np
import pytest

from korn_kit import fieldio
from korn_kit.fields import GridSpec, MatrixField, VectorField
from korn_kit.transport import CoefficientTensorField


@pytest.fixture
def grid():
    return GridSpec((4, 3, 5), (0.0, -1.0, 2.5), 0.25)


def test_vector_roundtrip(tmp_path, grid):
    rng = np.random.default_rng(0)
    f = VectorField(grid, rng.uniform(-1, 1, grid.shape + (3,)))
    path = tmp_path / "v.kfk"
    fieldio.save_field(path, f)
    back = fieldio.load_field(path)
    assert isinstance(back, VectorField)
    assert back.grid == grid
    assert np.array_equal(back.values, f.values)


def test_matrix_roundtrip(tmp_path, grid):
    rng = np.random.default_rng(1)
    f = MatrixField(grid, rng.uniform(-1, 1, grid.shape + (3, 3)))
    path = tmp_path / "m.kfk"
    fieldio.save_field(path, f)
    back = fieldio.load_field(path)
    assert isinstance(back, MatrixField)
    assert np.array_equal(back.values, f.values)


def test_tensor_roundtrip(tmp_path, grid):
    rng = np.random.default_rng(2)
    f = CoefficientTensorField(grid, rng.uniform(-1, 1, grid.shape + (3, 3, 3)))
    path = tmp_path / "t.kfk"
    fieldio.save_field(path, f)
    back = fieldio.load_field(path)
    assert isinstance(back, CoefficientTensorField)
    assert np.array_equal(back.values, f.values)


def test_header_is_ascii_first_line(tmp_path, grid):
    f = VectorField.zeros(grid, 3)
    path = tmp_path / "v.kfk"
    fieldio.save_field(path, f)
    first = open(path, "rb").readline().decode("ascii")
    assert first.startswith("KFK1 3 4 3 5 3 ")
    assert first.rstrip().endswith("0.25")


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.kfk"
    path.write_bytes(b"NOPE 3 2 2 2 3 0 0 0 0.1\n")
    with pytest.raises(ValueError):
        fieldio.load_field(path)


@pytest.mark.parametrize("header", [b"KFK1\n", b"KFK1", b"KFK1 3\n"],
                         ids=["magic-only", "magic-no-newline", "dim-only"])
def test_rejects_a_header_without_its_fields(tmp_path, header):
    path = tmp_path / "bare.kfk"
    path.write_bytes(header)
    with pytest.raises(ValueError, match="malformed"):
        fieldio.load_field(path)


def test_rejects_truncated_payload(tmp_path, grid):
    f = VectorField.zeros(grid, 3)
    path = tmp_path / "v.kfk"
    fieldio.save_field(path, f)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError):
        fieldio.load_field(path)


def test_csv_roundtrip(tmp_path, grid):
    rng = np.random.default_rng(3)
    f = MatrixField(grid, rng.uniform(-1, 1, grid.shape + (3, 3)))
    path = tmp_path / "m.csv"
    fieldio.save_field_csv(path, f)
    back = fieldio.load_field_csv(path)
    assert isinstance(back, MatrixField)
    assert back.grid == grid
    assert np.array_equal(back.values, f.values)


def test_csv_point_cap(tmp_path):
    big = GridSpec((30, 30, 30), (0.0,) * 3, 0.1)
    f = VectorField.zeros(big, 3)
    with pytest.raises(ValueError):
        fieldio.save_field_csv(tmp_path / "big.csv", f)


def test_face_vector_field_roundtrip(tmp_path):
    # 3 components on a 2d grid: stays a vector field on load
    face = GridSpec((6, 7), (0.0, 0.0), 0.5)
    rng = np.random.default_rng(4)
    f = VectorField(face, rng.uniform(-1, 1, face.shape + (3,)))
    path = tmp_path / "face.kfk"
    fieldio.save_field(path, f)
    back = fieldio.load_field(path)
    assert isinstance(back, VectorField)
    assert back.components == 3
    assert np.array_equal(back.values, f.values)
