"""Deterministic JSON and CSV report emission.

Reports are byte-identical for identical inputs: keys are sorted, floats go
through repr, and nothing time- or path-dependent is embedded.  Every JSON
report carries the configuration hash, the seed, and the tolerances used.

to_jsonable turns a report, and each CSV table, into plain JSON types.  It
branches on the exact type of each value, so a built-in float, int, str,
bool, None, dict, list or tuple costs one identity test, and it looks each
dataclass type's field names up once.  Numpy values and subclasses of the
built-in types take isinstance checks after that, under the same rules: a
float that is not finite becomes its repr, a dict key becomes str, a tuple
becomes a list, and an array of any rank, 0-d included, becomes what its
tolist gives.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def config_hash(document: dict) -> str:
    return hashlib.sha256(
        json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def to_jsonable(value):
    """Recursively convert dataclasses and numpy values to plain JSON types.

    The rules, and the order of the branches, are in the module docstring.
    """
    kind = type(value)
    if kind is float:
        return value if math.isfinite(value) else repr(value)
    if kind is int or kind is str or kind is bool or value is None:
        return value
    if kind is tuple or kind is list:
        return [to_jsonable(v) for v in value]
    if kind is dict:
        return {str(k): to_jsonable(v) for k, v in value.items()}
    names = _field_names(kind)
    if names is not None:
        return {name: to_jsonable(getattr(value, name)) for name in names}
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        # tolist gives a scalar for a 0-d array, nested lists otherwise
        return to_jsonable(value.tolist())
    if isinstance(value, (np.floating, float)):
        return to_jsonable(float(value))
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


@functools.cache
def _field_names(kind: type):
    """The field names of a dataclass type, None for any other type; looked
    up once per type."""
    if not dataclasses.is_dataclass(kind):
        return None
    return tuple(f.name for f in dataclasses.fields(kind))


def write_report(out_dir, name: str, report: dict, tables: dict | None = None):
    """Write <name>.json plus one CSV per table; returns the JSON path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / f"{name}.json"
    json_path.write_text(canonical_json(to_jsonable(report)))
    for table_name, (header, rows) in (tables or {}).items():
        with open(out / f"{name}_{table_name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            # csv writes a float as str, which is its repr, as in the JSON
            writer.writerows(to_jsonable(rows))
    return json_path
