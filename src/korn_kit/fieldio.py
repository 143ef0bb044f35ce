"""The KFK1 field file format.

One ASCII header line

    KFK1 <dim> <shape...> <components> <origin...> <h>\\n

followed by the field values as row-major little-endian 64-bit floats with
the component axis last.  The component count decides the field kind on
load: dim**2 is a matrix field, dim**3 a coefficient tensor field, anything
else a vector field with that many components.
"""

from __future__ import annotations

import numpy as np

from .fields import CoefficientTensorField, GridSpec, MatrixField, VectorField

_MAGIC = "KFK1"


def _header_line(grid: GridSpec, components: int) -> str:
    parts = [_MAGIC, str(grid.dim)]
    parts += [str(n) for n in grid.shape]
    parts.append(str(components))
    parts += [repr(c) for c in grid.origin]
    parts.append(repr(grid.spacing))
    return " ".join(parts) + "\n"


def _parse_header(line: str):
    tokens = line.split()
    if not tokens or tokens[0] != _MAGIC:
        raise ValueError(f"not a {_MAGIC} field header: {line!r}")
    dim = int(tokens[1]) if len(tokens) > 1 else 0
    if len(tokens) != 2 + dim + 1 + dim + 1:
        raise ValueError(f"malformed {_MAGIC} header: {line!r}")
    shape = tuple(int(t) for t in tokens[2:2 + dim])
    components = int(tokens[2 + dim])
    origin = tuple(float(t) for t in tokens[3 + dim:3 + 2 * dim])
    spacing = float(tokens[3 + 2 * dim])
    return GridSpec(shape, origin, spacing), components


def _wrap(grid: GridSpec, components: int, flat: np.ndarray):
    n = grid.dim
    if components == n * n:
        return MatrixField(grid, flat.reshape(grid.shape + (n, n)))
    if components == n * n * n:
        return CoefficientTensorField(grid, flat.reshape(grid.shape + (n, n, n)))
    return VectorField(grid, flat)


def save_field(path, fld) -> None:
    """Write a vector, matrix, or coefficient tensor field."""
    grid = fld.grid
    components = int(np.prod(fld.values.shape[grid.dim:]))
    with open(path, "wb") as fh:
        fh.write(_header_line(grid, components).encode("ascii"))
        fh.write(np.ascontiguousarray(fld.values, dtype="<f8").tobytes())


def load_field(path):
    """Read a field written by save_field."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii")
        grid, components = _parse_header(header)
        raw = fh.read()
    expected = grid.num_points * components * 8
    if len(raw) != expected:
        raise ValueError(f"field payload has {len(raw)} bytes, expected {expected}")
    flat = np.frombuffer(raw, dtype="<f8").astype(float).reshape(
        grid.shape + (components,))
    return _wrap(grid, components, flat)

