"""Command-line interface: subcommands, config validation, reports, exit codes."""

import csv
import functools
import io
import json
import math
import sys
import warnings

import numpy as np
import pytest

from korn_kit import algebra, cli, fieldio, fields, korn
from korn_kit.errors import ConfigError
from korn_kit.fields import GridSpec, MatrixField, VectorField
from korn_kit.transport import CoefficientTensorField


def run_cli(args):
    return cli.main(args)


def read_report(out_dir, name):
    return json.loads((out_dir / name).read_text())


class TestExitCodes:
    def test_algebra_selftest_passes(self, tmp_path):
        assert run_cli(["algebra", "selftest", "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "algebra_selftest.json")
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"])

    def test_algebra_selftest_checks_the_l_kernel(self, tmp_path, monkeypatch):
        apply_l = algebra._apply_l

        def flipped(y, gd, gs, gm):
            # the first row's second cross product with its sign flipped
            rows = apply_l(y, gd, gs, gm)
            rows[..., 0, :] += 2.0 * np.cross(y[..., 2, :], gs[..., 1, :])
            return rows

        monkeypatch.setattr(algebra, "_apply_l", flipped)
        assert run_cli(["algebra", "selftest", "--out", str(tmp_path)]) == 1
        report = read_report(tmp_path, "algebra_selftest.json")
        failed = {c["check"] for c in report["checks"] if not c["passed"]}
        assert failed == {"l_symmetry", "l_determinant_identity", "l_inverse_residual"}

    def test_unknown_config_key_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"definitely_not_a_key": 1}))
        code = run_cli(["korn", "eig", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["key"] == "definitely_not_a_key"

    def test_bad_schema_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": "other/9"}))
        assert run_cli(["verify-curl", "--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["key"] == "schema"

    def test_nonpositive_tol_is_exit_2(self, tmp_path, capsys):
        code = run_cli(["verify-curl", "--tol", "-1.0", "--out", str(tmp_path)])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["key"] == "tol"

    def test_missing_config_file_is_exit_2(self, tmp_path, capsys):
        code = run_cli(["korn", "probe", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["key"] == "config"

    def test_verdict_failure_is_exit_1(self, tmp_path):
        # an impossible tolerance forces a verdict failure on a clean run
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"case": "quadratic"}))
        code = run_cli(["verify-curl", "--config", str(cfg), "--tol", "1e-30",
                        "--out", str(tmp_path)])
        assert code == 1
        report = read_report(tmp_path, "verify_curl.json")
        assert report["passed"] is False

    def test_oversized_grid_is_typed_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shape": 257}))
        code = run_cli(["verify-curl", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "GridTooLarge"

    def test_oversized_grid_from_shape_list_is_typed(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shape": [257, 257, 257]}))
        code = run_cli(["korn", "eig", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "GridTooLarge"

    def test_grid_whose_point_count_wraps_is_typed(self, tmp_path, capsys):
        # 2**64 points, which an int64 product counts as 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shape": [2 ** 32, 2 ** 32, 1]}))
        code = run_cli(["transport", "flood", "--config", str(cfg),
                        "--out", str(tmp_path)])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "GridTooLarge"

    @pytest.mark.parametrize("command, params, key", [
        (["korn", "eig"], {"shape": [300, 300, 300]}, "shape"),
        (["korn", "probe"], {"shape": [300, 300, 300]}, "shape"),
        (["korn", "rigid"], {"shape": [300, 300, 300]}, "shape"),
        (["korn", "gp"], {"shape": [300, 300, 300]}, "shape"),
        (["transport", "propagate"], {"shape": [300, 300, 300]}, "shape"),
        (["transport", "flood"], {"shape": [300, 300, 300]}, "shape"),
        (["verify-curl"], {"shape": 300}, "shape"),
        # 129^3 points, then 257^3 at the second level: the ladder is refused
        (["verify-curl"], {"case": "trigonometric", "shape": 129, "levels": 2}, "levels"),
    ], ids=["eig", "probe", "rigid", "gp", "propagate", "flood", "verify-curl",
            "verify-curl-ladder"])
    def test_oversized_grid_names_its_key(self, tmp_path, capsys, command, params, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        code = run_cli(command + ["--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["key"]) == ("GridTooLarge", key)

    @pytest.mark.parametrize("command, params, key", [
        (["transport", "propagate"], {"steps": 2 ** 70}, "steps"),
        (["transport", "propagate"], {"steps": cli._MAX_STEPS + 1}, "steps"),
        (["transport", "counterexample"], {"steps": 2 ** 70}, "steps"),
        (["transport", "counterexample"], {"steps": cli._MAX_STEPS + 1}, "steps"),
        # 1 / epsilon overflows to inf at and below 1 / float max
        (["transport", "counterexample"], {"epsilon": 5e-324}, "epsilon"),
        (["transport", "counterexample"], {"epsilon": 1 / sys.float_info.max}, "epsilon"),
    ], ids=["propagate-huge-steps", "propagate-steps-past-cap", "counterexample-huge-steps",
            "counterexample-steps-past-cap", "epsilon-subnormal", "epsilon-reciprocal-inf"])
    def test_steps_and_epsilon_past_their_range_name_their_key(self, tmp_path, capsys,
                                                               command, params, key):
        # the huge steps and the tiny epsilon reached the library and came
        # back as a keyless error
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli(command + ["--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["key"]) == ("ConfigError", key)

    @pytest.mark.parametrize("command, params", [
        (["transport", "flood"], {"shape": [3, 3, 2 ** 1100]}),
        (["verify-curl"], {"shape": 2 ** 1100}),
    ], ids=["flood", "verify-curl"])
    def test_shape_past_the_float_range_is_typed(self, tmp_path, capsys, command,
                                                 params):
        # the default spacing 1.0 / n overflowed, and the error JSON named no key
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        code = run_cli(command + ["--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "GridTooLarge"
        assert err["message"].endswith(f"points, cap is {fields.POINT_CAP}")

    @pytest.mark.parametrize("command, params", [
        (["verify-curl"], {"shape": 1}),
        (["korn", "eig"], {"shape": [5, 5, 0], "spacing": None}),
    ], ids=["verify-curl-shape-1", "eig-zero-last-axis"])
    def test_degenerate_shape_is_exit_2(self, tmp_path, capsys, command, params):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        code = run_cli(command + ["--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["key"]) == ("ConfigError", "shape")

    @pytest.mark.parametrize("command, cap", [
        (["korn", "eig"], "many"), (["korn", "eig"], None), (["korn", "eig"], 2.5),
        (["korn", "eig"], True), (["korn", "eig"], -1), (["korn", "probe"], 2.5),
    ], ids=["eig-string", "eig-null", "eig-float", "eig-bool", "eig-negative",
            "probe-float"])
    def test_dense_cap_must_be_a_non_negative_integer(self, tmp_path, capsys,
                                                      command, cap):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dense_cap": cap}))
        code = run_cli(command + ["--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["key"]) == ("ConfigError", "dense_cap")

    @pytest.mark.parametrize("params", [
        {"gamma": "none", "expect_kernel_dim": 6.9},
        {"gamma": "none", "expect_kernel_dim": True},
        {"gamma": "none", "expect_kernel_dim": -1},
        {"gamma": "none", "expect_kernel_dim": "many"},
    ], ids=["float", "bool", "negative", "string"])
    def test_expect_kernel_dim_must_be_a_non_negative_integer(self, tmp_path, capsys,
                                                              params):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        code = run_cli(["korn", "eig", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["key"]) == ("ConfigError", "expect_kernel_dim")

    def test_clamped_eig_does_not_read_expect_kernel_dim(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"expect_kernel_dim": 6.9}))
        code = run_cli(["korn", "eig", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize("command, min_det", [
        (["korn", "eig"], "tiny"), (["korn", "eig"], True), (["korn", "eig"], 0.0),
        (["korn", "probe"], -1e-12), (["korn", "probe"], float("inf")),
        (["korn", "rigid"], None), (["korn", "gp"], float("nan")),
        (["korn", "gp"], 10 ** 400),
    ], ids=["eig-string", "eig-bool", "eig-zero", "probe-negative", "probe-inf",
            "rigid-null", "gp-nan", "gp-huge-integer"])
    def test_min_det_must_be_positive_and_finite(self, tmp_path, capsys, command,
                                                 min_det):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_det": min_det}))
        code = run_cli(command + ["--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["key"]) == ("ConfigError", "min_det")

    @pytest.mark.parametrize("command, gram", [
        (["korn", "eig"], "h2"), (["korn", "eig"], None), (["korn", "probe"], "both"),
        (["korn", "probe"], "L2"),
    ], ids=["eig-h2", "eig-null", "probe-both", "probe-upper-case"])
    def test_gram_must_be_a_known_name(self, tmp_path, capsys, command, gram):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gram": gram}))
        code = run_cli(command + ["--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["key"]) == ("ConfigError", "gram")

    @pytest.mark.parametrize("command, key, face", [
        (["korn", "eig"], "gamma", {"axis": 3, "side": 0}),
        (["korn", "probe"], "gamma", {"axis": -4, "side": 0}),
        (["korn", "eig"], "gamma", {"axis": 0, "side": 2}),
        (["transport", "flood"], "seed_region", {"axis": 3, "side": 0}),
        (["transport", "flood"], "seed_region", {"axis": 0, "side": -1}),
        (["transport", "flood"], "seed_region", {"axis": 0, "thickness": -2}),
    ], ids=["eig-axis-3", "probe-axis-minus-4", "eig-side-2", "flood-axis-3",
            "flood-side-minus-1", "flood-thickness-minus-2"])
    def test_face_out_of_range_is_exit_2(self, tmp_path, capsys, command, key, face):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: face}))
        code = run_cli(command + ["--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["key"]) == ("ConfigError", key)


    @pytest.mark.parametrize("command, key, face", [
        (["korn", "eig"], "gamma", {"axis": 0.7, "side": 0}),
        (["korn", "eig"], "gamma", {"axis": 0, "side": True}),
        (["korn", "eig"], "gamma", 5),
        (["korn", "eig"], "gamma", "x0"),
        (["korn", "probe"], "gamma", {"axis": "a"}),
        (["korn", "probe"], "gamma", {"axis": 0, "sdie": 1}),
        (["transport", "flood"], "seed_region", {"axis": 0.7, "side": 0}),
        (["transport", "flood"], "seed_region", {"axis": 0, "side": True}),
        (["transport", "flood"], "seed_region", "x0"),
        (["transport", "flood"], "seed_region", {"axis": 0, "thickness": 2.5}),
        (["transport", "flood"], "seed_region", {"axis": 0, "thikness": 3}),
    ], ids=["eig-float-axis", "eig-bool-side", "eig-number", "eig-string",
            "probe-string-axis", "probe-misspelt-key", "flood-float-axis",
            "flood-bool-side", "flood-string", "flood-float-thickness",
            "flood-misspelt-key"])
    def test_face_must_be_an_object_of_integers(self, tmp_path, capsys, command, key,
                                                face):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: face}))
        code = run_cli(command + ["--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["key"]) == ("ConfigError", key)

    @pytest.mark.parametrize("command, params, key", [
        (["korn", "eig"], {"shape": [5.7, 5, 5]}, "shape"),
        (["korn", "eig"], {"shape": "abc"}, "shape"),
        (["korn", "eig"], {"shape": 5}, "shape"),
        (["korn", "eig"], {"shape": [5, True, 5]}, "shape"),
        (["transport", "flood"], {"shape": [9.0, 9, 9]}, "shape"),
        (["korn", "eig"], {"spacing": "x"}, "spacing"),
        (["korn", "eig"], {"spacing": -1}, "spacing"),
        (["korn", "probe"], {"spacing": float("inf")}, "spacing"),
        (["korn", "gp"], {"origin": [0.0, 0.0]}, "origin"),
        (["korn", "rigid"], {"origin": "x"}, "origin"),
        (["verify-curl"], {"shape": 9.5}, "shape"),
        (["verify-curl"], {"shape": "9"}, "shape"),
        (["verify-curl"], {"shape": 2}, "shape"),
        (["verify-curl"], {"levels": 1.5}, "levels"),
    ], ids=["eig-float-entry", "eig-string", "eig-scalar", "eig-bool-entry",
            "flood-float-entry", "eig-string-spacing", "eig-negative-spacing",
            "probe-inf-spacing", "gp-short-origin", "rigid-string-origin",
            "curl-float-shape", "curl-string-shape", "curl-two-point-shape",
            "curl-float-levels"])
    def test_grid_keys_name_their_key(self, tmp_path, capsys, command, params, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        code = run_cli(command + ["--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["key"]) == ("ConfigError", key)

    @pytest.mark.parametrize("command", [["korn", "eig"], ["korn", "probe"],
                                         ["korn", "gp"]])
    @pytest.mark.parametrize("family, accepted", [
        ({"name": "graded-roughness", "bogus": 1}, "amplitude, frequency"),
        ({"name": "graded-roughness", "frequncy": 2.0}, "amplitude, frequency"),
        ({"name": "identity", "amplitude": 0.1}, "no keywords"),
        ({"name": "sobolev"}, "graded-roughness"),
        ("graded-roughness", "object"),
    ], ids=["bogus-keyword", "misspelt-frequency", "identity-keyword",
            "unknown-name", "not-an-object"])
    def test_p_family_typos_are_refused(self, tmp_path, capsys, command, family,
                                        accepted):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_family": family}))
        code = run_cli(command + ["--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["key"]) == ("ConfigError", "p_family")
        assert accepted in err["message"]


    @pytest.mark.parametrize("command", [["korn", "eig"], ["korn", "probe"],
                                         ["korn", "gp"]])
    @pytest.mark.parametrize("family, wanted", [
        ({"name": "graded-roughness", "seed": 2.7}, "seed must be an integer >= 0"),
        ({"name": "graded-roughness", "seed": True}, "seed must be an integer >= 0"),
        ({"name": "graded-roughness", "amplitude": "0.1"},
         "amplitude must be a finite number"),
        ({"name": "graded-roughness", "min_det": -1}, "min_det must be a positive"),
        ({"name": "rotation-valued", "base": True}, "base must be a finite number"),
        ({"name": "rotation-valued", "freq": [1.0, 2.0]},
         "freq must be three finite numbers"),
        ({"name": "rotation-valued", "axis": [0, 0, 0]}, "not all zero"),
    ], ids=["float-seed", "bool-seed", "string-amplitude", "negative-min-det",
            "bool-base", "short-freq", "zero-axis"])
    def test_p_family_values_are_checked(self, tmp_path, capsys, command, family,
                                         wanted):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_family": family}))
        code = run_cli(command + ["--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["key"]) == ("ConfigError", "p_family")
        assert wanted in err["message"]

    @pytest.mark.parametrize("params, key", [
        ({"shape": [9, 9]}, "shape"),
        ({"shape": [9, 9], "case": "curvilinear"}, "shape"),
        ({"case": "files", "phi_file": "plane.kfk", "psi_file": "plane.kfk"},
         "phi_file"),
        ({"case": "files", "phi_file": "vector.kfk", "psi_file": "pair.kfk"},
         "psi_file"),
    ], ids=["affine-2d", "curvilinear-2d", "files-2d", "files-2-vectors"])
    def test_rigid_needs_three_dimensions(self, tmp_path, capsys, params, key):
        grid = GridSpec((5, 5, 5), (0.0,) * 3, 0.25)
        fieldio.save_field(tmp_path / "vector.kfk", VectorField.zeros(grid, 3))
        fieldio.save_field(tmp_path / "pair.kfk", VectorField.zeros(grid, 2))
        plane = GridSpec((5, 5), (0.0,) * 2, 0.25)
        fieldio.save_field(tmp_path / "plane.kfk", VectorField.zeros(plane, 2))
        params = {k: str(tmp_path / v) if k.endswith("_file") else v
                  for k, v in params.items()}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        code = run_cli(["korn", "rigid", "--config", str(cfg),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["key"]) == ("ConfigError", key)

    @pytest.mark.parametrize("command, params", [
        (["korn", "gp"], {}),
        (["korn", "gp"], {"p_family": {"name": "rotation-valued"}}),
        (["korn", "eig"], {"p_family": {"name": "graded-roughness"}}),
        (["korn", "probe"], {}),
        (["korn", "rigid"], {}),
        (["transport", "propagate"], {}),
        (["transport", "propagate"], {"face_value": [1.0, 0.5]}),
        (["transport", "propagate"], {"case": "zero"}),
    ], ids=["gp-identity", "gp-rotation", "eig-graded", "probe-identity", "rigid",
            "propagate-exponential", "propagate-two-face-values", "propagate-zero"])
    @pytest.mark.parametrize("shape", [[9, 9], [5, 5, 5, 5]], ids=["2d", "4d"])
    def test_three_axis_experiments_name_shape(self, tmp_path, capsys, command,
                                               params, shape):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**params, "shape": shape}))
        code = run_cli(command + ["--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["key"]) == ("ConfigError", "shape")
        assert "shape must have 3 axes" in err["message"]

    @pytest.mark.parametrize("command, params", [
        (["korn", "eig"], {"spacing": 1e300}),
        (["korn", "probe"], {"spacing": 1e110}),
        (["transport", "propagate"], {"shape": [5, 5, 5], "spacing": 1e200}),
        (["korn", "probe"], {"spacing": 1e-300}),
        (["korn", "gp"], {"spacing": 1e-300}),
        (["korn", "rigid"], {"spacing": 1e-300}),
        (["transport", "flood"], {"spacing": 1e-200}),
    ], ids=["eig", "probe", "propagate", "probe-underflow", "gp-underflow",
            "rigid-underflow", "flood-underflow"])
    def test_overflowing_spacing_is_exit_2(self, tmp_path, capsys, command, params):
        # the cell measure h ** 3 leaves the normal float range
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(command + ["--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = json.loads(capsys.readouterr().out.splitlines()[-1])["error"]
        assert (err["type"], err.get("key")) == ("ConfigError", "spacing")

    @pytest.mark.parametrize("command, key, spacing", [
        (["transport", "flood"], "mask_file", "1e-200"),
        (["korn", "gp"], "p_file", "1e300"),
    ], ids=["flood-mask-underflow", "gp-p-overflow"])
    def test_field_file_spacing_out_of_range_names_its_key(self, tmp_path, capsys,
                                                           command, key, spacing):
        grid = GridSpec((5, 5, 5), (0.0,) * 3, 0.25)
        fld = (VectorField(grid, np.ones(grid.shape + (1,))) if key == "mask_file"
               else MatrixField.constant(grid, np.eye(3)))
        path = tmp_path / "field.kfk"
        fieldio.save_field(path, fld)
        header, payload = path.read_bytes().split(b"\n", 1)
        path.write_bytes(header.rsplit(b" ", 1)[0] + b" " + spacing.encode() + b"\n"
                         + payload)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: str(path)}))
        assert run_cli(command + ["--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err.get("key")) == ("ConfigError", key)

    @pytest.mark.parametrize("command, params, key", [
        (["korn", "eig"], {"min_det": 1e300}, "min_det"),
        (["korn", "probe"], {"min_det": 1e300}, "min_det"),
        (["korn", "gp"], {"min_det": 1e300}, "min_det"),
        (["korn", "rigid"], {"min_det": 1e300}, "min_det"),
        (["korn", "eig"], {"p_family": {"name": "graded-roughness", "amplitude": 1.5}},
         "p_family"),
    ], ids=["eig", "probe", "gp", "rigid", "graded-roughness-floor"])
    def test_determinant_floor_names_its_key(self, tmp_path, capsys, command, params,
                                             key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        code = run_cli(command + ["--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err.get("key")) == ("ConfigError", key)
        assert "floor is" in err["message"]

    @pytest.mark.parametrize("spacing", [0.5, 150.0], ids=["half", "150"])
    def test_coarse_exponential_without_tol_names_spacing(self, tmp_path, capsys,
                                                          spacing):
        # 10 h^2 >= 1/2: the default tolerance would pass an error of half
        # the exact solution
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shape": [5, 5, 5], "spacing": spacing}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(["transport", "propagate", "--config", str(cfg),
                            "--out", str(tmp_path)])
        assert code == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err.get("key")) == ("ConfigError", "spacing")

    @pytest.mark.parametrize("params, key", [
        ({"face_value": [1e308, 0, 0]}, "face_value"),
        ({"face_value": [-1e307, 0, 1e307]}, "face_value"),
        ({"shape": [3, 3, 800], "spacing": 1.0, "tol": 1.0}, "spacing"),
    ], ids=["face-1e308", "face-two-1e307", "growth-e799"])
    def test_overflowing_exponential_names_its_key(self, tmp_path, capsys, params, key):
        # max|face_value| e^((n - 1) h) past the float range: RK4 overflowed
        # and the error JSON named no key
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(["transport", "propagate", "--config", str(cfg),
                            "--out", str(tmp_path)])
        assert code == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err.get("key")) == ("ConfigError", key)

    def test_exponential_just_inside_the_float_room_passes(self, tmp_path):
        # the default grid: 17 points at h = 1/17 along the last axis
        peak = 0.999 * sys.float_info.max / 16.0 / math.exp(16 / 17)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"face_value": [peak, -peak, 0.0]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["transport", "propagate", "--config", str(cfg),
                            "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "transport_propagate.json")
        assert math.isfinite(report["zeta_max"]) and report["zeta_max"] > peak

    @pytest.mark.parametrize("tol, code", [(1e-6, 1), (1.0, 0)], ids=["tight", "loose"])
    def test_coarse_exponential_with_tol_runs(self, tmp_path, tol, code):
        # the residual at h = 0.5 is about 0.19 and zeta_max is e^2, so a tol
        # of 1.0 passes the computed zeta and would fail zeta = 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shape": [5, 5, 5], "spacing": 0.5, "tol": tol}))
        assert run_cli(["transport", "propagate", "--config", str(cfg),
                        "--out", str(tmp_path)]) == code
        report = read_report(tmp_path, "transport_propagate.json")
        assert report["residual"]["tolerance"] == tol

    def test_subnormal_exponential_tolerance_names_face_value(self, tmp_path, capsys):
        # 10 h^2 max|exact| underflows to 0, and exact data read 1e-323 against it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"face_value": [5e-324, 0, 0]}))
        assert run_cli(["transport", "propagate", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err.get("key")) == ("ConfigError", "face_value")

    @pytest.mark.parametrize("params", [
        {"face_value": [1e-300, 0, 0]}, {"face_value": [5e-324, 0, 0], "tol": 1e-300},
    ], ids=["normal-tolerance", "explicit-tol"])
    def test_tiny_exponential_face_values_run(self, tmp_path, params):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        assert run_cli(["transport", "propagate", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "transport_propagate.json")
        assert report["residual"]["tolerance"] >= sys.float_info.min

    @pytest.mark.parametrize("params", [
        {"spacing": 1e-6}, {"shape": [3, 3, 3], "spacing": 1e-11},
        {"origin": [0.0, 0.0, 1e300]}, {"origin": [1e-300, -1e200, -1e16]},
    ], ids=["1e-6", "3-points-1e-11", "origin-1e300", "far-origin"])
    def test_exponential_exact_data_passes_at_any_origin_and_fine_spacing(self, tmp_path,
                                                                           params):
        # 10 h^2 max|exact| had no round-off floor (residual 1.28e-10 against
        # 1.0e-11 at h = 1e-6), and the exact solution was sampled at the
        # points, whose origin 1e300 swallowed every offset i h
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["transport", "propagate", "--config", str(cfg),
                            "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "transport_propagate.json")
        assert report["reconstruction_error"] <= report["residual"]["tolerance"]

    @pytest.mark.parametrize("params", [
        {"spacing": 1e-15}, {"shape": [3, 3, 3], "spacing": 1e-13},
    ], ids=["1e-15", "3-points-1e-13"])
    def test_exponential_refuses_a_spacing_whose_round_off_swamps_the_check(
            self, tmp_path, capsys, params):
        # RK4 rounds each value once a substep, and differencing that over h
        # leaves a residual of the order of max|exact| itself
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        assert run_cli(["transport", "propagate", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err.get("key")) == ("ConfigError", "spacing")

    def test_out_flag_is_checked_like_the_document_out(self, tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["algebra", "selftest", "--out", ""]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["key"]) == ("ConfigError", "out")
        assert list(tmp_path.iterdir()) == []


class TestReports:
    def test_reports_embed_hash_seed_tolerance(self, tmp_path):
        assert run_cli(["transport", "counterexample", "--out", str(tmp_path),
                        "--seed", "7"]) == 0
        report = read_report(tmp_path, "transport_counterexample.json")
        assert len(report["config_sha256"]) == 64
        assert report["seed"] == 7
        assert "tolerance" in report

    def test_byte_identical_reports_for_same_seed(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(["korn", "eig", "--seed", "3", "--out", str(out)]) == 0
        assert (out1 / "korn_eig.json").read_bytes() == \
            (out2 / "korn_eig.json").read_bytes()

    def test_byte_identical_sparse_probe_reports(self, tmp_path):
        # free 9^3: 2187 DOFs, above the dense cap, so ARPACK solves it twice
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shape": [9, 9, 9], "spacing": None,
                                   "gamma": "none"}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(["korn", "probe", "--config", str(cfg),
                            "--out", str(out)]) == 0
        assert read_report(out1, "korn_probe.json")["kernel_dim"] == 6
        assert sorted(p.name for p in out1.iterdir()) == \
            sorted(p.name for p in out2.iterdir())
        for path in out1.iterdir():
            assert path.read_bytes() == (out2 / path.name).read_bytes(), path.name

    def _file_config_hash(self, tmp_path, name, values):
        # a korn gp config that reads P from a field file at tmp_path / name
        grid = GridSpec((4, 4, 4), (0.0,) * 3, 0.25)
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        fieldio.save_field(path, MatrixField(grid, values))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_file": str(path)}))
        return cli.load_config("korn-gp", cfg).sha256

    def test_field_file_hashed_by_bytes_not_path(self, tmp_path):
        values = np.broadcast_to(np.eye(3), (4, 4, 4, 3, 3)).copy()
        first = self._file_config_hash(tmp_path, "a/p.kfk", values)
        assert self._file_config_hash(tmp_path, "b/other.kfk", values) == first
        values[1, 2, 3, 0, 1] = 0.25
        assert self._file_config_hash(tmp_path, "a/p.kfk", values) != first

    @pytest.mark.parametrize("command, key, params", [
        (["korn", "probe"], "p_file", {"gamma": "none"}),
        (["transport", "flood"], "mask_file", {}),
    ], ids=["probe-p-file", "flood-mask-file"])
    def test_missing_field_file_names_its_key(self, tmp_path, capsys, command, key,
                                              params):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: str(tmp_path / "missing.kfk"), **params}))
        code = run_cli(command + ["--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["key"]) == ("ConfigError", key)

    @pytest.mark.parametrize("command, key, params", [
        (["transport", "propagate"], "g_file", {"case": "files"}),
        (["korn", "rigid"], "phi_file", {"case": "files"}),
        (["korn", "rigid"], "phi_file", {"case": "files", "phi_file": "matrix.kfk",
                                         "psi_file": "vector.kfk"}),
        (["korn", "gp"], "p_file", {"p_file": "truncated.kfk"}),
    ], ids=["propagate-unset", "rigid-unset", "rigid-wrong-type", "gp-truncated"])
    def test_bad_field_file_names_its_key(self, tmp_path, capsys, command, key,
                                          params):
        grid = GridSpec((5, 5, 5), (0.0,) * 3, 0.25)
        fieldio.save_field(tmp_path / "matrix.kfk",
                           MatrixField.constant(grid, np.eye(3)))
        fieldio.save_field(tmp_path / "vector.kfk", VectorField.zeros(grid, 3))
        raw = (tmp_path / "matrix.kfk").read_bytes()
        (tmp_path / "truncated.kfk").write_bytes(raw[:len(raw) // 2])
        params = {k: str(tmp_path / v) if k.endswith("_file") else v
                  for k, v in params.items()}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        code = run_cli(command + ["--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["key"]) == ("ConfigError", key)

    def test_seed_changes_seeded_experiments(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"case": "curvilinear", "shape": [9, 9, 9]}))
        for out, seed in ((out1, "1"), (out2, "2")):
            assert run_cli(["korn", "rigid", "--config", str(cfg), "--seed", seed,
                            "--out", str(out)]) == 0
        r1 = read_report(out1, "korn_rigid.json")
        r2 = read_report(out2, "korn_rigid.json")
        assert r1["recovery"]["rotation"] != r2["recovery"]["rotation"]


class TestVerifyCurl:
    def test_quadratic_default(self, tmp_path):
        assert run_cli(["verify-curl", "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "verify_curl.json")
        assert report["verdict"]["max_error"] <= 1e-9

    def test_trigonometric_order(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"case": "trigonometric", "shape": 9,
                                   "levels": 2}))
        assert run_cli(["verify-curl", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "verify_curl.json")
        assert report["verdict"]["observed_order"] >= 1.9

    def test_trig_needs_two_levels(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"case": "trigonometric", "levels": 1}))
        assert run_cli(["verify-curl", "--config", str(cfg)]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["key"] == "levels"

    def test_no_levels_names_its_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"levels": 0}))
        code = run_cli(["verify-curl", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["key"]) == ("ConfigError", "levels")

    @pytest.mark.parametrize("wavenumber", [0.0, -2.0, float("inf")],
                             ids=["zero", "negative", "inf"])
    def test_trig_wavenumber_must_be_positive(self, tmp_path, capsys, wavenumber):
        # a zero wavenumber samples constant fields, whose errors are all 0.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"case": "trigonometric", "shape": 9, "levels": 2,
                                   "wavenumber": wavenumber}))
        code = run_cli(["verify-curl", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["key"]) == ("ConfigError", "wavenumber")


    @pytest.mark.parametrize("params", [
        {"case": "trigonometric", "shape": 9, "levels": 3},
        {"case": "quadratic", "shape": 33},
    ], ids=["trigonometric", "quadratic"])
    def test_reports_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch, params):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        reports = []
        for cpus in (1, 2):
            monkeypatch.setattr(fields, "_usable_cpus", lambda n=cpus: n)
            out = tmp_path / f"cpus-{cpus}"
            assert run_cli(["verify-curl", "--config", str(cfg), "--out", str(out)]) == 0
            reports.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(reports[0]) == ["verify_curl.json"]
        assert reports[0] == reports[1]


class TestTransportCommands:
    def test_propagate_exponential(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shape": [9, 9, 9], "steps": 100}))
        assert run_cli(["transport", "propagate", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "transport_propagate.json")
        assert report["residual"]["passed"] is True
        zeta = fieldio.load_field(tmp_path / "zeta.kfk")
        assert isinstance(zeta, VectorField)
        assert zeta.grid.shape == (9, 9, 9)

    def test_propagate_zero_case(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"case": "zero", "shape": [7, 7, 9]}))
        assert run_cli(["transport", "propagate", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "transport_propagate.json")
        assert report["zeta_max"] <= 1e-10

    def test_propagate_from_field_files(self, tmp_path):
        grid = GridSpec((6, 6, 8), (0.0,) * 3, 0.125)
        tensor = np.zeros((3, 3, 3))
        for i in range(3):
            tensor[i, 2, i] = 1.0
        coef = CoefficientTensorField.constant(grid, tensor)
        face = VectorField(grid.face(-1),
                           np.ones(grid.face(-1).shape + (3,)))
        fieldio.save_field(tmp_path / "g.kfk", coef)
        fieldio.save_field(tmp_path / "face.kfk", face)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"case": "files",
                                   "g_file": str(tmp_path / "g.kfk"),
                                   "face_file": str(tmp_path / "face.kfk"),
                                   "steps": 100}))
        code = run_cli(["transport", "propagate", "--config", str(cfg),
                        "--out", str(tmp_path), "--tol", "0.05"])
        assert code == 0

    def test_propagate_creates_nested_out_dir(self, tmp_path):
        out = tmp_path / "new" / "dir"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shape": [5, 5, 5], "steps": 8}))
        assert run_cli(["transport", "propagate", "--config", str(cfg),
                        "--out", str(out)]) == 0
        assert isinstance(fieldio.load_field(out / "zeta.kfk"), VectorField)

    def test_flood_l_shape(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"domain": "l-shape", "shape": [13, 13, 7],
                                   "arm": 5}))
        assert run_cli(["transport", "flood", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "transport_flood.json")
        assert report["report"]["passed"] is True
        assert len(report["report"]["cuboids"]) >= 2

    def test_counterexample(self, tmp_path):
        assert run_cli(["transport", "counterexample", "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "transport_counterexample.json")
        inner = report["report"]
        assert inner["full_divergent"] is True
        assert inner["identity_residual_max"] <= 1e-12
        assert inner["truncated_solution_max"] <= 1e-10

    def test_counterexample_with_a_tiny_epsilon_writes_a_report(self, tmp_path):
        # the truncated integral is 1 + ln(1e11), about 26.3: finite, though
        # the adaptive quadrature may call it divergent
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 1e-11}))
        assert run_cli(["transport", "counterexample", "--config", str(cfg),
                        "--out", str(tmp_path)]) in (0, 1)
        report = read_report(tmp_path, "transport_counterexample.json")
        assert report["report"]["epsilon"] == 1e-11


class TestKornCommands:
    def test_eig_clamped_default(self, tmp_path):
        assert run_cli(["korn", "eig", "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "korn_eig.json")
        assert report["results"]["l2"]["lambda_min"] > 0
        assert report["results"]["l2"]["kernel_dim"] == 0

    def test_eig_unconstrained_kernel(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": "none", "gram": "both"}))
        assert run_cli(["korn", "eig", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "korn_eig.json")
        assert report["results"]["l2"]["kernel_dim"] == 6
        assert report["results"]["h1"]["kernel_dim"] == 6

    def test_eig_reports_census_and_residual(self, tmp_path):
        assert run_cli(["korn", "eig", "--out", str(tmp_path)]) == 0
        result = read_report(tmp_path, "korn_eig.json")["results"]["l2"]
        assert result["census_complete"] is True
        assert 0.0 <= result["eigenpair_residual"] <= 1e-12

    def test_eig_report_holds_the_eigenvalue_table_digits(self, tmp_path):
        # the eigenvalues were once a CSV table of rows (gram, index, float(w)),
        # whose text is repr(float(w)); the report holds the same digits
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gram": "both"}))
        assert run_cli(["korn", "eig", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        text = (tmp_path / "korn_eig.json").read_text()
        results = json.loads(text, parse_float=str)["results"]
        grid = GridSpec((5, 5, 5), (0.0,) * 3, 0.2)
        form = korn.assemble_form(korn.KornProblem(
            grid, korn.builtin_p_field("identity", grid), korn.face_mask(grid, 0, 0)))
        for gram in ("l2", "h1"):
            table = io.StringIO()
            csv.writer(table).writerows(
                [gram, i, float(w)]
                for i, w in enumerate(korn.min_rayleigh(form, gram).eigenvalues))
            values = [row[2] for row in csv.reader(io.StringIO(table.getvalue()))]
            assert len(values) == 12
            assert results[gram]["eigenvalues"] == values

    def test_eig_fails_on_incomplete_census(self, tmp_path, monkeypatch):
        # six computed pairs on the free problem are all kernel: the census
        # finds the expected six but cannot rule out more
        short = functools.partial(korn.min_rayleigh, n_eigs=6)
        monkeypatch.setattr(korn, "min_rayleigh", short)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": "none"}))
        assert run_cli(["korn", "eig", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 1
        result = read_report(tmp_path, "korn_eig.json")["results"]["l2"]
        assert result["kernel_dim"] == 6
        assert result["census_complete"] is False

    def test_probe_clamped(self, tmp_path):
        assert run_cli(["korn", "probe", "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "korn_probe.json")
        assert report["kernel_found"] is False

    def test_probe_unconstrained(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": "none"}))
        assert run_cli(["korn", "probe", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "korn_probe.json")
        assert report["kernel_found"] is True
        assert report["boundary_condition_missing"] is True

    def test_probe_reports_census_and_residual(self, tmp_path):
        assert run_cli(["korn", "probe", "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "korn_probe.json")
        assert report["census_complete"] is True
        assert 0.0 <= report["eigenpair_residual"] <= 1e-12

    def test_rigid_affine(self, tmp_path):
        assert run_cli(["korn", "rigid", "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "korn_rigid.json")
        assert report["recovery"]["reconstruction_residual"] <= 1e-12
        assert report["rotation_error"] <= 1e-12

    @pytest.mark.parametrize("params", [
        {"shape": [33, 33, 33], "spacing": 1.0}, {"shape": [49, 49, 49]},
    ], ids=["33-spacing-1", "49-default-spacing"])
    def test_rigid_affine_holds_on_large_grids(self, tmp_path, params):
        # the means over N points leave about eps N max|data| of round-off:
        # 1.3e-11 in the reconstruction at 33^3, 1.3e-12 in the rotation at 49^3
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        assert run_cli(["korn", "rigid", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 0

    def test_rigid_affine_large_grid_still_sees_a_perturbation(self, tmp_path,
                                                               monkeypatch):
        recover = korn.rigid_recover

        def perturbed(phi, psi, **kwargs):
            values = phi.values.copy()
            values[16, 16, 16, 0] += 1e-6
            return recover(VectorField(phi.grid, values), psi, **kwargs)

        monkeypatch.setattr(cli.korn, "rigid_recover", perturbed)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shape": [33, 33, 33], "spacing": 1.0}))
        assert run_cli(["korn", "rigid", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 1
        report = read_report(tmp_path, "korn_rigid.json")
        assert report["recovery"]["reconstruction_residual"] > 5e-7

    def test_rigid_curvilinear(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"case": "curvilinear", "shape": [17, 17, 17]}))
        assert run_cli(["korn", "rigid", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 0

    def test_gp_identity_field_file(self, tmp_path):
        assert run_cli(["korn", "gp", "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "korn_gp.json")
        assert report["gp_max"] == 0.0
        tensor = fieldio.load_field(tmp_path / "gp_field.kfk")
        assert isinstance(tensor, CoefficientTensorField)

    @pytest.mark.parametrize("command, spacing", [
        (["korn", "gp"], 1e-5), (["korn", "gp"], 3e-7), (["korn", "rigid"], 1e-7),
    ], ids=["gp-1e-5", "gp-3e-7", "rigid-1e-7"])
    def test_exact_data_verdicts_hold_at_small_spacings(self, tmp_path, command,
                                                        spacing):
        # one-sided edge weights leave about eps max|data| / h on exact data
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spacing": spacing}))
        assert run_cli(command + ["--config", str(cfg), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("params", [
        {"spacing": 1e-20}, {"spacing": 1e-100}, {"spacing": 1e-15},
        {"case": "curvilinear", "spacing": 1e-100},
        {"case": "curvilinear", "origin": [1e200, 0, 0]},
        {"spacing": 1e50, "origin": [-1e300, 1e-300, 5.0]},
    ], ids=["1e-20", "1e-100", "1e-15", "curvilinear-1e-100", "curvilinear-origin-1e200",
            "spacing-1e50-far-origin"])
    def test_rigid_recovers_the_rotation_at_any_scale(self, tmp_path, params):
        # the data are drawn in the grid's units: in absolute units the shift
        # swamped A psi at tiny spacings (rotation error 0.918 at 1e-100 passed
        # against a floor of 0.86 at 1e-15, or failed in the curvilinear case),
        # and the curvature term 0.25 x_0^2 overflowed at origin 1e200
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(["korn", "rigid", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        report = read_report(tmp_path, "korn_rigid.json")
        assert report["rotation_error"] <= report["rotation_tolerance"] <= 1e-12

    def test_rigid_affine_with_tol_passes_at_a_tiny_spacing(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spacing": 1e-100, "tol": 1e-6}))
        assert run_cli(["korn", "rigid", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "korn_rigid.json")
        assert report["rotation_tolerance"] == report["reconstruction_tolerance"] == 1e-6
        assert report["rotation_error"] <= 1e-12

    @pytest.mark.parametrize("case", ["affine", "curvilinear"])
    def test_rigid_reports_its_default_tolerances(self, tmp_path, case):
        # the relative round-off of the means and stencils, times max|omega|
        # and max|data|: far below 1e-12 at 9^3, and above the errors
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"case": case}))
        assert run_cli(["korn", "rigid", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "korn_rigid.json")
        axial = report["recovery"]["rotation"]["axial"]
        assert report["rotation_error"] <= report["rotation_tolerance"]
        assert report["rotation_tolerance"] <= 1e-12 * max(map(abs, axial))
        assert (report["recovery"]["reconstruction_residual"]
                <= report["reconstruction_tolerance"] <= 1e-12)

    def test_rigid_files_report_their_tolerance(self, tmp_path):
        grid = GridSpec((5, 5, 5), (0.0,) * 3, 0.25)
        psi = VectorField(grid, grid.points())
        fieldio.save_field(tmp_path / "psi.kfk", psi)
        fieldio.save_field(tmp_path / "phi.kfk", VectorField.constant(grid, [1.0, 2.0, 3.0]))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"case": "files", "phi_file": str(tmp_path / "phi.kfk"),
                                   "psi_file": str(tmp_path / "psi.kfk")}))
        assert run_cli(["korn", "rigid", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "korn_rigid.json")
        # the exact-data model on the files' 5^3 grid: eps (4 (n - 1) + 0.25 N)
        # times max(max|phi|, max|psi|) = 3
        assert report["reconstruction_tolerance"] == sys.float_info.epsilon * 47.25 * 3.0
        assert "rotation_tolerance" not in report

    @pytest.mark.parametrize("origin", [1e11, 1e12])
    def test_rigid_files_pass_exact_data_far_from_the_origin(self, tmp_path, origin):
        # an absolute default tolerance of 1e-6 failed this exact affine
        # data, whose round-off grows with max|psi|
        grid = GridSpec((9, 9, 9), (origin,) * 3, 1.0)
        psi = grid.points()
        phi = psi @ algebra.smat(np.array([0.3, -0.2, 0.1])).T + [1.0, 2.0, 3.0]
        fieldio.save_field(tmp_path / "psi.kfk", VectorField(grid, psi))
        fieldio.save_field(tmp_path / "phi.kfk", VectorField(grid, phi))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"case": "files", "phi_file": str(tmp_path / "phi.kfk"),
                                   "psi_file": str(tmp_path / "psi.kfk")}))
        assert run_cli(["korn", "rigid", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "korn_rigid.json")
        # the exact-data model: eps (4 (n - 1) + 0.25 N) times max|psi|
        assert report["reconstruction_tolerance"] == \
            sys.float_info.epsilon * 214.25 * (origin + 8.0)

    def test_gp_refuses_a_spacing_whose_round_off_swamps_the_check(self, tmp_path,
                                                                   capsys):
        # the edge round-off eps / h of differencing P = I reaches max|P|
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spacing": 1e-15}))
        assert run_cli(["korn", "gp", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err.get("key")) == ("ConfigError", "spacing")

    def test_gp_default_keeps_its_identity_tolerance(self, tmp_path):
        assert run_cli(["korn", "gp", "--out", str(tmp_path)]) == 0
        assert read_report(tmp_path, "korn_gp.json")["identity_check_tolerance"] == 1e-12

    def test_gp_creates_nested_out_dir(self, tmp_path):
        out = tmp_path / "new" / "dir"
        assert run_cli(["korn", "gp", "--out", str(out)]) == 0
        assert isinstance(fieldio.load_field(out / "gp_field.kfk"),
                          CoefficientTensorField)

    def test_gp_rotation_family(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_family": {"name": "rotation-valued"},
                                   "shape": [7, 7, 7]}))
        assert run_cli(["korn", "gp", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "korn_gp.json")
        assert report["gp_max"] > 0.0
        assert report["p_det_min"] == pytest.approx(1.0, abs=1e-12)

    def test_eig_from_p_file(self, tmp_path):
        from korn_kit import korn
        grid = GridSpec((4, 4, 4), (0.0,) * 3, 0.25)
        p = korn.builtin_p_field("rotation-valued", grid)
        fieldio.save_field(tmp_path / "p.kfk", p)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_file": str(tmp_path / "p.kfk")}))
        assert run_cli(["korn", "eig", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "korn_eig.json")
        assert report["n_dofs"] == 3 * 64 - 3 * 16  # one face clamped


class TestFloodMaskFile:
    def test_mask_file_domain(self, tmp_path):
        grid = GridSpec((9, 9, 7), (0.0,) * 3, 0.125)
        domain = np.zeros(grid.shape)
        domain[:, :4, :] = 1.0
        domain[:4, :, :] = 1.0
        fieldio.save_field(tmp_path / "mask.kfk",
                           VectorField(grid, domain[..., None]))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mask_file": str(tmp_path / "mask.kfk"),
                                   "coefficient_scale": 0.5}))
        assert run_cli(["transport", "flood", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "transport_flood.json")
        assert report["report"]["passed"] is True
        assert len(report["report"]["cuboids"]) >= 2

    def test_mask_file_reported_as_domain(self, tmp_path):
        grid = GridSpec((5, 5, 5), (0.0,) * 3, 0.25)
        fieldio.save_field(tmp_path / "mask.kfk",
                           VectorField(grid, np.ones(grid.shape + (1,))))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mask_file": str(tmp_path / "mask.kfk")}))
        assert run_cli(["transport", "flood", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 0
        assert read_report(tmp_path, "transport_flood.json")["domain"] == "mask_file"

    def test_points_the_seed_does_not_reach_are_exit_2(self, tmp_path, capsys):
        # two bars 3 layers apart along axis 0; the seed lies in the first
        grid = GridSpec((9, 9, 9), (0.0,) * 3, 0.125)
        domain = np.zeros(grid.shape + (1,))
        domain[:3] = 1.0
        domain[6:] = 1.0
        fieldio.save_field(tmp_path / "mask.kfk", VectorField(grid, domain))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mask_file": str(tmp_path / "mask.kfk")}))
        assert run_cli(["transport", "flood", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "DisconnectedDomain"
        assert err["message"].startswith("243 domain points")

    @pytest.mark.parametrize("spacing, origin", [("nan", "0.0"), ("inf", "0.0"),
                                                 ("0.125", "nan")],
                             ids=["nan-spacing", "inf-spacing", "nan-origin"])
    def test_non_finite_header_is_exit_2(self, tmp_path, capsys, spacing, origin):
        grid = GridSpec((9, 9, 9), (0.0,) * 3, 0.125)
        path = tmp_path / "mask.kfk"
        fieldio.save_field(path, VectorField(grid, np.ones(grid.shape + (1,))))
        header, payload = path.read_bytes().split(b"\n", 1)
        tokens = header.split()
        tokens[-4], tokens[-1] = origin.encode(), spacing.encode()
        path.write_bytes(b" ".join(tokens) + b"\n" + payload)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mask_file": str(path)}))
        assert run_cli(["transport", "flood", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["key"]) == ("ConfigError", "mask_file")
        assert "finite" in err["message"]


EXPERIMENT_KEYS = [(experiment, key) for experiment in cli._EXPERIMENTS
                   for key in cli._EXPERIMENTS[experiment][0]]


class TestParameterTables:
    @pytest.mark.parametrize("experiment, key", EXPERIMENT_KEYS,
                             ids=[f"{e}-{k}" for e, k in EXPERIMENT_KEYS])
    def test_every_kind_refuses_a_bool(self, tmp_path, experiment, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: True}))
        with pytest.raises(ConfigError) as info:
            cli.load_config(experiment, cfg)[key]
        assert info.value.key == key

    @pytest.mark.parametrize("experiment, key", EXPERIMENT_KEYS,
                             ids=[f"{e}-{k}" for e, k in EXPERIMENT_KEYS])
    def test_every_default_passes_its_kind(self, experiment, key):
        cli.load_config(experiment, None)[key]

    @pytest.mark.parametrize("reserved", ["seed", "tol"])
    def test_seed_and_tol_refuse_a_bool(self, tmp_path, capsys, reserved):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({reserved: True}))
        code = run_cli(["transport", "counterexample", "--config", str(cfg),
                        "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["key"]) == ("ConfigError", reserved)

    @pytest.mark.parametrize("command, params, key", [
        (["transport", "propagate"], {"steps": 2.7}, "steps"),
        (["transport", "counterexample"], {"steps": 10.5}, "steps"),
        (["transport", "flood"], {"domain": "l-shape", "arm": 4.5}, "arm"),
        (["algebra", "selftest"], {"tol_skew": -1}, "tol_skew"),
        (["transport", "propagate"], {"steps": "many"}, "steps"),
        (["transport", "propagate"], {"case": "zero", "coefficient_scale": "x"},
         "coefficient_scale"),
        (["transport", "flood"], {"coefficient_scale": "x"}, "coefficient_scale"),
        (["transport", "propagate"], {"face_value": [1, 2]}, "face_value"),
        (["transport", "propagate"], {"face_value": [0, 0, 0]}, "face_value"),
        (["transport", "counterexample"], {"epsilon": -1}, "epsilon"),
        (["transport", "counterexample"], {"epsilon": "x"}, "epsilon"),
        (["algebra", "selftest"], {"tol_det": "x"}, "tol_det"),
        (["verify-curl"], {"case": "trigonometric", "shape": 9, "levels": 2,
                           "min_order": "x"}, "min_order"),
        (["verify-curl"], {"tol": "abc"}, "tol"),
        (["algebra", "selftest"], {"out": 5}, "out"),
        (["algebra", "selftest"], {"out": ["a"]}, "out"),
        (["algebra", "selftest"], {"out": ""}, "out"),
        (["transport", "counterexample", "--seed", "3", "--tol", "0.1"],
         {"seed": "x", "tol": "abc"}, "seed"),
        (["transport", "counterexample", "--seed", "3", "--tol", "0.1"],
         {"tol": -1}, "tol"),
    ], ids=["propagate-float-steps", "counterexample-float-steps", "flood-float-arm",
            "selftest-negative-tol-skew", "propagate-string-steps",
            "propagate-string-scale", "flood-string-scale",
            "propagate-short-face-value", "propagate-zero-face-value",
            "counterexample-negative-epsilon", "counterexample-string-epsilon",
            "selftest-string-tol-det", "curl-string-min-order", "curl-string-tol",
            "selftest-number-out", "selftest-list-out", "selftest-empty-out",
            "counterexample-string-seed-under-flags",
            "counterexample-negative-tol-under-flags"])
    def test_bad_value_names_its_key(self, tmp_path, capsys, command, params, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        code = run_cli(command + ["--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["key"]) == ("ConfigError", key)

    def test_flood_l_shape_on_a_plane(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"domain": "l-shape", "shape": [9, 9], "arm": 4}))
        assert run_cli(["transport", "flood", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "transport_flood.json")
        assert report["grid"]["shape"] == [9, 9]
        assert len(report["report"]["cuboids"]) >= 2

    def test_grid_keys_beside_a_p_file_are_not_read(self, tmp_path):
        grid = GridSpec((4, 4, 4), (0.0,) * 3, 0.25)
        fieldio.save_field(tmp_path / "p.kfk", MatrixField.constant(grid, np.eye(3)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_file": str(tmp_path / "p.kfk"),
                                   "shape": "unused", "spacing": -1}))
        assert run_cli(["korn", "eig", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("command, params", [
        (["korn", "eig"], {"shape": [2, 5, 5], "gamma": "none"}),
        (["korn", "probe"], {"shape": [2, 5, 5], "gamma": "none"}),
        (["korn", "eig"], {"shape": [2, 2, 2]}),
        (["korn", "probe"], {"shape": [2, 2, 2]}),
        (["korn", "rigid"], {"shape": [2, 2, 2]}),
        (["korn", "gp"], {"shape": [2, 2, 2]}),
    ], ids=["eig-free", "probe-free", "eig-clamped", "probe-clamped", "rigid", "gp"])
    def test_korn_grid_too_small_is_typed_exit_2(self, tmp_path, capsys, command,
                                                 params):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        code = run_cli(command + ["--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err.get("key")) == ("ConfigError", "shape")

    def test_flood_takes_a_thin_grid(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shape": [2, 2, 2]}))
        assert run_cli(["transport", "flood", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 0

    def test_bare_field_header_names_p_file(self, tmp_path, capsys):
        (tmp_path / "bare.kfk").write_bytes(b"KFK1\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_file": str(tmp_path / "bare.kfk"),
                                   "gamma": "none"}))
        code = run_cli(["korn", "probe", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["key"]) == ("ConfigError", "p_file")

    @pytest.mark.parametrize("name", list(cli._EXPERIMENTS))
    def test_every_experiment_parses_back_to_its_name(self, monkeypatch, name):
        seen = []

        def record(experiment, *args, **kwargs):
            seen.append(experiment)
            raise ConfigError("stop before the run")

        monkeypatch.setattr(cli, "load_config", record)
        argv = [name] if name == "verify-curl" else name.split("-", 1)
        assert run_cli(argv) == 2
        assert seen == [name]


def _write_input_fields(tmp_path):
    """Field files beside the runs' default grids, each of which does not fit."""
    cube17 = GridSpec((17,) * 3, (0.0,) * 3, 1.0 / 17)
    cube9 = GridSpec((9,) * 3, (0.0,) * 3, 1.0 / 8)
    block = GridSpec((6, 6, 8), (0.0,) * 3, 0.125)
    save = fieldio.save_field
    save(tmp_path / "scalar17.kfk", VectorField.zeros(cube17, 1))
    save(tmp_path / "vector9.kfk", VectorField.zeros(cube9, 3))
    save(tmp_path / "vector7.kfk",
         VectorField.zeros(GridSpec((7,) * 3, (0.0,) * 3, 1.0 / 6), 3))
    save(tmp_path / "g.kfk", CoefficientTensorField.zeros(block))
    save(tmp_path / "other_face.kfk",
         VectorField.zeros(GridSpec((5, 6, 8), (0.0,) * 3, 0.125).face(-1), 3))
    save(tmp_path / "pair_face.kfk", VectorField.zeros(block.face(-1), 2))
    thin = GridSpec((6, 6, 1), (0.0,) * 3, 0.125)
    save(tmp_path / "thin_g.kfk", CoefficientTensorField.zeros(thin))
    save(tmp_path / "thin_face.kfk", VectorField.zeros(thin.face(-1), 3))
    save(tmp_path / "plane_p.kfk",
         MatrixField.constant(GridSpec((9, 9), (0.0,) * 2, 0.125), np.eye(2)))
    thin_block = GridSpec((5, 2, 5), (0.0,) * 3, 0.25)
    save(tmp_path / "thin_p.kfk", MatrixField.constant(thin_block, np.eye(3)))
    save(tmp_path / "thin_vector.kfk", VectorField(thin_block, thin_block.points()))


class TestInputFilesFitTheRun:
    """A field file that does not fit its run is refused, naming its key."""

    @pytest.mark.parametrize("command, params, key", [
        (["transport", "flood"], {"zeta_file": "scalar17.kfk"}, "zeta_file"),
        (["transport", "flood"], {"zeta_file": "vector9.kfk"}, "zeta_file"),
        (["transport", "propagate"], {"case": "files", "g_file": "g.kfk",
                                      "face_file": "other_face.kfk"}, "face_file"),
        (["transport", "propagate"], {"case": "files", "g_file": "g.kfk",
                                      "face_file": "pair_face.kfk"}, "face_file"),
        (["transport", "propagate"], {"case": "files", "g_file": "thin_g.kfk",
                                      "face_file": "thin_face.kfk"}, "g_file"),
        (["korn", "rigid"], {"case": "files", "phi_file": "vector9.kfk",
                             "psi_file": "vector7.kfk"}, "psi_file"),
        (["korn", "eig"], {"p_file": "plane_p.kfk"}, "p_file"),
        (["korn", "probe"], {"p_file": "plane_p.kfk", "gamma": "none"}, "p_file"),
        (["korn", "gp"], {"p_file": "plane_p.kfk"}, "p_file"),
        (["korn", "eig"], {"p_file": "thin_p.kfk"}, "p_file"),
        (["korn", "gp"], {"p_file": "thin_p.kfk"}, "p_file"),
        (["korn", "rigid"], {"case": "files", "phi_file": "thin_vector.kfk",
                             "psi_file": "thin_vector.kfk"}, "phi_file"),
    ], ids=["flood-one-component-zeta", "flood-zeta-on-another-grid",
            "propagate-face-on-another-grid", "propagate-two-component-face",
            "propagate-one-point-along-the-last-axis",
            "rigid-psi-on-another-grid", "eig-2d-p", "probe-2d-p", "gp-2d-p",
            "eig-thin-p", "gp-thin-p", "rigid-thin-phi"])
    def test_misfit_file_names_its_key(self, tmp_path, capsys, monkeypatch, command,
                                       params, key):
        def refuse(*args, **kwargs):
            raise AssertionError("the flood started")

        monkeypatch.setattr(cli.transport, "flood_propagate", refuse)
        _write_input_fields(tmp_path)
        params = {k: str(tmp_path / v) if k.endswith("_file") else v
                  for k, v in params.items()}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        code = run_cli(command + ["--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err.get("key")) == ("ConfigError", key)


class TestThinPropagateGrid:
    """transport propagate needs 3 points along every axis for its residual
    check, and refuses a thinner grid before propagating, naming its key."""

    @pytest.mark.parametrize("params, key", [
        ({"case": "zero", "shape": [9, 9, 1]}, "shape"),
        ({"case": "zero", "shape": [9, 9, 2]}, "shape"),
        ({"case": "exponential", "shape": [2, 9, 9]}, "shape"),
        ({"case": "files", "g_file": "g.kfk", "face_file": "face.kfk"}, "g_file"),
    ], ids=["one-point-last-axis", "two-points-last-axis", "two-points-first-axis",
            "g-file-two-points-last-axis"])
    def test_thin_grid_names_its_key(self, tmp_path, capsys, monkeypatch, params, key):
        def refuse(*args, **kwargs):
            raise AssertionError("the propagation started")

        monkeypatch.setattr(cli.transport, "propagate_cube", refuse)
        thin = GridSpec((6, 6, 2), (0.0,) * 3, 0.125)
        fieldio.save_field(tmp_path / "g.kfk", CoefficientTensorField.zeros(thin))
        fieldio.save_field(tmp_path / "face.kfk", VectorField.zeros(thin.face(-1), 3))
        params = {k: str(tmp_path / v) if k.endswith("_file") else v
                  for k, v in params.items()}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        code = run_cli(["transport", "propagate", "--config", str(cfg),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err.get("key")) == ("ConfigError", key)
