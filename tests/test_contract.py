"""The CLI's exit-code contract on the exact-data cases, over drawn grid keys.

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
import tempfile
import warnings
from pathlib import Path

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
    group, _, command = experiment.partition("-")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([group, command, "--config", str(config_path), "--out", str(out)])
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
