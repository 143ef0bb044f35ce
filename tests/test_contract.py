"""The CLI's exit-code contract, over drawn grid keys and every key swept.

Whatever value one key of a config holds, a run ends with exit 0 or 1 and a
report whose verdict says which, or with exit 2 and an error JSON naming a
key: never with a traceback, never with an overflow warning.

korn rigid (affine, curvilinear), transport propagate (exponential) and
korn gp (identity P) check data that the code reproduces up to round-off
and, for the exponential, a known truncation error.  So at any spacing,
origin and face value a run must pass (exit 0) or refuse its config naming a
key of the experiment's table (exit 2): never fail a verdict (exit 1), never
pass with a default tolerance that would let half the checked quantity
through, never warn of overflow, and write the same bytes when run again.
The draws are derandomized, so the module is as deterministic as the rest.
"""

import contextlib
import io
import json
import random
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from korn_kit import cli

# every positive float from the smallest subnormal to 1e300: hypothesis's own
# bounded floats, and a log-uniform draw that reaches every decade
MAGNITUDES = st.one_of(
    st.floats(min_value=5e-324, max_value=1e300),
    st.builds(lambda mantissa, exponent: max(5e-324, mantissa * 10.0 ** exponent),
              st.floats(min_value=1.0, max_value=10.0, exclude_max=True),
              st.integers(min_value=-324, max_value=299)))
SIGNED = st.one_of(st.just(0.0), MAGNITUDES, MAGNITUDES.map(lambda v: -v))
TRIPLE = st.lists(SIGNED, min_size=3, max_size=3)


def _grid_keys(draw):
    """shape, and where drawn, spacing and origin of a small 3-D grid."""
    params = {"shape": draw(st.lists(st.integers(min_value=3, max_value=9),
                                     min_size=3, max_size=3))}
    if draw(st.booleans()):
        params["spacing"] = draw(MAGNITUDES)
    if draw(st.booleans()):
        params["origin"] = draw(TRIPLE)
    return params


@st.composite
def exact_runs(draw):
    """(experiment, config) of one exact-data run."""
    experiment = draw(st.sampled_from(["korn-rigid", "transport-propagate", "korn-gp"]))
    params = _grid_keys(draw)
    if experiment == "korn-rigid":
        params["case"] = draw(st.sampled_from(["affine", "curvilinear"]))
    elif experiment == "transport-propagate":
        params["case"] = "exponential"
        if draw(st.booleans()):
            params["face_value"] = draw(TRIPLE)
    return experiment, params


def _run(experiment, config_path, out):
    """Exit code, stdout and the bytes of every file written to out."""
    argv = [experiment] if experiment == "verify-curl" else experiment.split("-", 1)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv + ["--config", str(config_path), "--out", str(out)])
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    return code, stdout.getvalue(), files


def _default_tolerance(experiment, report):
    """A default tolerance of the run and the scale of the quantity it checks."""
    if experiment == "korn-rigid":
        axial = max(map(abs, report["recovery"]["rotation"]["axial"]))
        return report["rotation_tolerance"], axial
    if experiment == "transport-propagate":
        return report["residual"]["tolerance"], report["zeta_max"]
    return report["identity_check_tolerance"], 1.0  # max|P| of P = I


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(exact_runs())
def test_exact_data_runs_pass_or_name_a_key(run):
    experiment, params = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config_path = tmp / "cfg.json"
        config_path.write_text(json.dumps(params))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = _run(experiment, config_path, tmp / "first")
            second = _run(experiment, config_path, tmp / "second")
    code, stdout, files = first
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code in (0, 2), (experiment, params, code)
    assert second == first
    if code == 2:
        error = json.loads(stdout.splitlines()[-1])["error"]
        assert error.get("key") in cli._EXPERIMENTS[experiment][0], error
        return
    report = json.loads(files[experiment.replace("-", "_") + ".json"])
    assert report["passed"] is True
    tolerance, scale = _default_tolerance(experiment, report)
    assert tolerance < cli._VACUOUS_SHARE * scale, (params, tolerance, scale)


# Every key of every experiment's table, and the run keys, are swept: each
# is set alone, on the default config or on one case config, to the values
# past every cap and the smallest float, and to SAMPLES of VALUES drawn by a
# seed made of the experiment and the key.  The ints stay at 3 or below, or
# are 2**70, so every grid, ladder and steps count a run allows stays small.
EXTREMES = [2 ** 70, [2 ** 70, 3, 3], 5e-324]
VALUES = [
    None, True, False, -1, 0, 1, 2, 3, -0.0, 0.5, -2.5, 1e-300, 1e300, -1e300, float("nan"),
    float("inf"), "", "x", "none", "files", "trigonometric", [], [3], [3, 3], [3, 3, 3],
    [3, 3, 3, 3], [0.0, 0.0, 0.0], [1.0, -2.0, 0.5], [1e300, -1e300, 1e300],
    [5e-324, 0.0, 0.0], ["x", 3, 3], [True, 3, 3], [float("nan"), 0.0, 0.0], {},
    {"axis": 2, "side": 1}, {"axis": 5}, {"side": 2}, {"thickness": 0}, {"axis": True},
    {"name": "nope"}, {"name": "rotation-valued", "amp": 1e300},
    {"name": "graded-roughness", "seed": -1},
]
SAMPLES = 2
# a config per experiment on a case its default does not run
CASES = {
    "algebra-selftest": {"tol_det": 1e-6},
    "verify-curl": {"case": "trigonometric", "shape": 9, "levels": 2},
    "transport-propagate": {"case": "zero", "shape": [5, 5, 5]},
    "transport-flood": {"domain": "l-shape", "shape": [9, 9, 5], "arm": 4},
    "transport-counterexample": {"epsilon": 0.1, "steps": 100},
    "korn-eig": {"gamma": "none", "gram": "both"},
    "korn-probe": {"gamma": "none", "gram": "h1"},
    "korn-rigid": {"case": "curvilinear", "shape": [5, 5, 5]},
    "korn-gp": {"p_family": {"name": "rotation-valued"}},
}
SWEPT_KEYS = [(experiment, key) for experiment, (table, _) in sorted(cli._EXPERIMENTS.items())
              for key in sorted(table) + sorted(cli._RUN_KEYS)]


@pytest.mark.parametrize("experiment, key", SWEPT_KEYS,
                         ids=[f"{experiment}:{key}" for experiment, key in SWEPT_KEYS])
def test_every_key_keeps_the_exit_code_contract(experiment, key):
    rng = random.Random(f"{experiment} {key}")
    named = set(cli._EXPERIMENTS[experiment][0]) | set(cli._RUN_KEYS) | {"config"}
    for value in EXTREMES + rng.sample(VALUES, SAMPLES):
        params = {**rng.choice([{}, CASES[experiment]]), key: value}
        with tempfile.TemporaryDirectory() as tmp, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config_path = Path(tmp) / "cfg.json"
            config_path.write_text(json.dumps(params))
            code, stdout, files = _run(experiment, config_path, Path(tmp) / "out")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], params
        assert code in (0, 1, 2), (params, code)
        if code == 2:
            error = json.loads(stdout.splitlines()[-1])["error"]
            assert error.get("key") in named, (params, error)
        else:
            report = json.loads(files[experiment.replace("-", "_") + ".json"])
            assert report["passed"] is (code == 0), params
