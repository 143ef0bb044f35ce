"""Reference JSON converter that the tests check reporting.to_jsonable against.

The program dispatches on the exact type of a value and looks each
dataclass's field names up once.  Here every value walks one chain of
isinstance checks and dataclasses.fields runs for every instance, so a test
can ask that both give the same values and the same JSON bytes.  It cannot
convert a 0-d array: iterating the scalar that tolist returns raises
TypeError.
"""

import dataclasses

import numpy as np


def reference_to_jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: reference_to_jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): reference_to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_to_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [reference_to_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if v != v or v in (float("inf"), float("-inf")):
            return repr(v)
        return v
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value
