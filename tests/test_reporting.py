"""JSON conversion of reports: the converter against its reference."""

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
import pytest

from korn_kit.fields import GridSpec, VectorField
from korn_kit.reporting import canonical_json, to_jsonable
from korn_kit.transport import CoefficientTensorField, flood_propagate
from reference_reporting import reference_to_jsonable


@dataclass(frozen=True)
class Inner:
    value: float
    flags: tuple
    table: dict


@dataclass
class Outer:
    name: str
    inner: Inner
    items: list
    missing: object = None
    extra: dict = field(default_factory=dict)


def _payloads():
    inner = Inner(np.float32(0.1), (True, np.bool_(False), None),
                  {1: np.int64(-3), 2.5: float("nan"), "x": np.float64(-np.inf)})
    outer = Outer("outer", inner, [inner, (1, 2.0, "three"), np.arange(6).reshape(2, 3)],
                  extra={(1, 2): [float("inf"), -0.0, np.nan]})
    return {
        "nested-dataclasses": outer,
        "tuple-of-tuples": ((0, 3), (2, 5), ((1,), ())),
        "int-keyed-dict": {3: "c", 1: "a", -2: ["b", 2]},
        "numpy-scalars": [np.float32(1.5), np.float64(2.25), np.int64(7), np.int32(-1),
                          np.bool_(True), np.float16(0.5), np.uint8(200)],
        "n-d-arrays": [np.linspace(0.0, 1.0, 5), np.arange(24).reshape(2, 3, 4),
                       np.array([[True, False], [False, True]]),
                       np.array([[np.nan, 1.0], [np.inf, -np.inf]]),
                       np.zeros((2, 0)), np.array([], dtype=float)],
        "non-finite": [float("nan"), float("inf"), float("-inf"),
                       np.float64("nan"), np.float32("inf"), np.float64("-inf")],
        "plain": [None, "text", "", 0, -1, 2 ** 70, 1e300, -0.0, True, False],
        "ordered-dict": OrderedDict([("b", 1), ("a", (np.float64(0.5),))]),
    }


def _flood_report():
    grid = GridSpec((9, 8, 7), (0.0,) * 3, 0.1)
    domain = np.ones(grid.shape, dtype=bool)
    domain[5:, 4:, 3:] = False
    seed = np.zeros_like(domain)
    seed[:2] = domain[:2]
    rng = np.random.default_rng(4)
    coef = CoefficientTensorField(grid, rng.uniform(-1, 1, grid.shape + (3, 3, 3)))
    zeta = VectorField(grid, 1e-13 * rng.standard_normal(grid.shape + (3,)))
    return {"report": flood_propagate(domain, seed, coef, zeta),
            "grid": {"shape": grid.shape, "spacing": grid.spacing}}


class TestToJsonable:
    @pytest.mark.parametrize("name", list(_payloads()))
    def test_equals_reference(self, name):
        payload = _payloads()[name]
        converted = to_jsonable(payload)
        assert converted == reference_to_jsonable(payload)
        assert canonical_json(converted) == canonical_json(reference_to_jsonable(payload))

    def test_whole_mix_and_a_flood_report_equal_reference(self):
        payload = {"mix": _payloads(), "flood": _flood_report()}
        assert canonical_json(to_jsonable(payload)) \
            == canonical_json(reference_to_jsonable(payload))

    def test_repeated_dataclass_types_keep_their_fields(self):
        # field names are looked up once per type; two types, many instances
        payload = [Inner(float(i), (i,), {}) for i in range(3)] \
            + [Outer(str(i), Inner(0.0, (), {}), []) for i in range(3)]
        assert to_jsonable(payload) == reference_to_jsonable(payload)

    def test_dataclass_type_is_left_as_it_is(self):
        assert to_jsonable(Inner) is Inner is reference_to_jsonable(Inner)

    @pytest.mark.parametrize("value, expected", [
        (np.array(1.5), 1.5),
        (np.array(1.5, dtype=np.float32), 1.5),
        (np.array(np.nan), "nan"),
        (np.array(np.inf), "inf"),
        (np.array(-np.inf), "-inf"),
        (np.array(7), 7),
        (np.array(True), True),
    ])
    def test_zero_d_array_gives_its_scalar(self, value, expected):
        converted = to_jsonable(value)
        assert converted == expected
        assert type(converted) is type(expected)
        with pytest.raises(TypeError):
            reference_to_jsonable(value)

    def test_zero_d_array_inside_a_report(self):
        converted = to_jsonable({"scale": np.array(0.25), "rows": [np.array(2)]})
        assert canonical_json(converted) == canonical_json({"scale": 0.25, "rows": [2]})
