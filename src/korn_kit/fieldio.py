"""Field file formats.

Binary format: one ASCII header line

    KFK1 <dim> <shape...> <components> <origin...> <h>\\n

followed by the field values as row-major little-endian 64-bit floats with
the component axis last.  The component count decides the field kind on
load: dim**2 is a matrix field, dim**3 a coefficient tensor field, anything
else a vector field with that many components.

CSV is offered for small fields (<= 10**4 points): the same header as a
``#``-comment line, then one row per point with its integer multi-index,
its coordinates, and its flattened components.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .fields import CoefficientTensorField, GridSpec, MatrixField, VectorField

CSV_POINT_CAP = 10 ** 4
_MAGIC = "KFK1"


def _field_parts(fld):
    grid = fld.grid
    values = fld.values
    components = int(np.prod(values.shape[grid.dim:]))
    flat = values.reshape(grid.shape + (components,))
    return grid, components, flat


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
    grid, components, flat = _field_parts(fld)
    with open(path, "wb") as fh:
        fh.write(_header_line(grid, components).encode("ascii"))
        fh.write(np.ascontiguousarray(flat, dtype="<f8").tobytes())


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


def save_field_csv(path, fld) -> None:
    """Write a small field as CSV with a header comment carrying the grid."""
    grid, components, flat = _field_parts(fld)
    if grid.num_points > CSV_POINT_CAP:
        raise ValueError(
            f"CSV export capped at {CSV_POINT_CAP} points, field has {grid.num_points}")
    with open(path, "w", newline="") as fh:
        fh.write("# " + _header_line(grid, components))
        writer = csv.writer(fh)
        idx_names = [f"i{k}" for k in range(grid.dim)]
        coord_names = [f"x{k}" for k in range(grid.dim)]
        comp_names = [f"c{k}" for k in range(components)]
        writer.writerow(idx_names + coord_names + comp_names)
        points = grid.points().reshape(-1, grid.dim)
        table = flat.reshape(-1, components)
        for p, (coords, row) in enumerate(zip(points, table)):
            multi = np.unravel_index(p, grid.shape)
            writer.writerow([*(int(i) for i in multi),
                             *(repr(float(c)) for c in coords),
                             *(repr(float(v)) for v in row)])


def load_field_csv(path):
    """Read a field written by save_field_csv."""
    with open(path, "r", newline="") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise ValueError("CSV field file must start with a '# KFK1 ...' line")
        grid, components = _parse_header(first[1:].strip())
        reader = csv.reader(io.StringIO(fh.read()))
        rows = [r for r in reader if r]
    data = rows[1:]  # rows[0] is the column-name header
    if len(data) != grid.num_points:
        raise ValueError(f"CSV has {len(data)} points, grid needs {grid.num_points}")
    flat = np.empty((grid.num_points, components))
    for row in data:
        multi = tuple(int(v) for v in row[:grid.dim])
        p = int(np.ravel_multi_index(multi, grid.shape))
        flat[p] = [float(v) for v in row[2 * grid.dim:2 * grid.dim + components]]
    return _wrap(grid, components, flat.reshape(grid.shape + (components,)))
