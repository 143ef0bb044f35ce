"""Batch command-line front end.

Runs one named experiment per process, reads a JSON config, writes a JSON
verdict report plus CSV tables into the output directory, and exits 0 when
every verdict passed, 1 on a verdict failure, and 2 on a configuration
error (with a machine-readable error JSON on stdout).

    korn-kit verify-curl            --config cfg.json --out reports
    korn-kit transport propagate    [--config ...] [--seed N] [--tol X]
    korn-kit transport flood        (accepts but ignores "steps": cuboids
                                     are checked, not propagated)
    korn-kit transport counterexample
    korn-kit korn eig|probe|rigid|gp
    korn-kit algebra selftest
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import algebra, analytic, fieldio, korn, reporting, transport
from .errors import ConfigError, GridTooLarge, KornKitError, UnknownKind
from .fields import (CoefficientTensorField, GridSpec, MatrixField, VectorField,
                     curl_product_discrepancy, refinement_errors)

SCHEMA = "korn-kit/1"
RESERVED_KEYS = {"schema", "seed", "tol", "out"}
# experiments that assemble a Korn form and eigensolve it: the only ones that
# need scipy, which the package imports nowhere at module level
EIGENSOLVE_EXPERIMENTS = {"korn-eig", "korn-probe"}


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of a single experiment run."""

    experiment: str
    seed: int
    tol: float | None
    out_dir: Path
    params: dict
    sha256: str

    def require_positive_tol(self, default: float) -> float:
        tol = default if self.tol is None else self.tol
        if tol <= 0:
            raise ConfigError("tolerance must be positive", key="tol")
        return tol


def _experiment_defaults(experiment: str) -> dict:
    try:
        return dict(_EXPERIMENTS[experiment][0])
    except KeyError:
        raise ConfigError(f"unknown experiment {experiment!r}", key="experiment")


def load_config(experiment: str, config_path, *, seed=None, tol=None,
                out=None) -> RunConfig:
    """Merge a JSON config document with CLI overrides and validate keys."""
    document = {}
    if config_path is not None:
        try:
            document = json.loads(Path(config_path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {config_path}", key="config")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}", key="config")
        if not isinstance(document, dict):
            raise ConfigError("config must be a JSON object", key="config")
    schema = document.get("schema", SCHEMA)
    if schema != SCHEMA:
        raise ConfigError(f"unsupported schema {schema!r}, expected {SCHEMA!r}",
                          key="schema")
    defaults = _experiment_defaults(experiment)
    params = dict(defaults)
    for key, value in document.items():
        if key in RESERVED_KEYS:
            continue
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r} for {experiment}", key=key)
        params[key] = value

    run_seed = seed if seed is not None else document.get("seed", 0)
    if not isinstance(run_seed, int) or run_seed < 0:
        raise ConfigError("seed must be a non-negative integer", key="seed")
    run_tol = tol if tol is not None else document.get("tol")
    if run_tol is not None:
        run_tol = float(run_tol)
        if run_tol <= 0:
            raise ConfigError("tolerance must be positive", key="tol")
    out_dir = Path(out if out is not None else document.get("out", "korn-kit-out"))

    effective = {"experiment": experiment, "schema": SCHEMA, "seed": run_seed,
                 "tol": run_tol, **params}
    # every *_file key names an input; it enters the hash by its bytes, so the
    # same inputs at two paths hash alike and a file rewritten in place does not
    for key, path in params.items():
        if key.endswith("_file") and path:
            effective[key] = {"sha256": _file_sha256(key, path)}

    if experiment in EIGENSOLVE_EXPERIMENTS:
        # the solver stack loads with the config, so a run times its solve alone
        import scipy.linalg  # noqa: F401
        import scipy.sparse.csgraph  # noqa: F401
        import scipy.sparse.linalg  # noqa: F401

    return RunConfig(experiment, run_seed, run_tol, out_dir, params,
                     reporting.config_hash(reporting.to_jsonable(effective)))


def _file_sha256(key, path) -> str:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except (OSError, TypeError) as exc:
        raise ConfigError(f"cannot read {key}: {exc}", key=key)


def _is_int(value) -> bool:
    """Whether value is an integer proper (a bool is not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """Whether value is a finite int or float (not a bool)."""
    # comparing first keeps float() from overflowing on a huge integer
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


def _grid_from_params(params) -> GridSpec:
    shape = params["shape"]
    if (not isinstance(shape, (list, tuple)) or not shape
            or not all(_is_int(n) and n >= 1 for n in shape)):
        raise ConfigError(f"grid shape must be a list of positive integers, got "
                          f"{shape!r}", key="shape")
    spacing = params.get("spacing")
    if spacing is None:
        spacing = 1.0 / shape[-1]
    elif not (_is_finite_number(spacing) and spacing > 0):
        raise ConfigError(f"spacing must be a positive finite number, got {spacing!r}",
                          key="spacing")
    origin = params.get("origin")
    if origin is None:
        origin = (0.0,) * len(shape)
    elif (not isinstance(origin, (list, tuple)) or len(origin) != len(shape)
            or not all(map(_is_finite_number, origin))):
        raise ConfigError(f"origin must be a list of {len(shape)} finite numbers, got "
                          f"{origin!r}", key="origin")
    try:
        return GridSpec(tuple(shape), tuple(map(float, origin)), float(spacing))
    except GridTooLarge:
        raise
    except (ValueError, KornKitError) as exc:
        raise ConfigError(f"invalid grid parameters: {exc}", key="shape")


def _input_field(params, key, cls):
    """The field that the file params[key] holds, which must be a cls."""
    if not params.get(key):
        raise ConfigError(f"{key} must name a field file", key=key)
    try:
        fld = fieldio.load_field(params[key])
    except GridTooLarge:
        raise
    except (ValueError, KornKitError) as exc:
        raise ConfigError(f"cannot load {key}: {exc}", key=key)
    if not isinstance(fld, cls):
        raise ConfigError(f"{key} must hold a {cls.__name__}", key=key)
    return fld


def _resolve_p_field(params):
    """Coefficient field, its grid and its family name (None for a p_file).

    A p_file brings its own grid along; a p_family is an object with the
    family's name and only the keywords that family accepts.
    """
    if params.get("p_file"):
        fld = _input_field(params, "p_file", MatrixField)
        return fld, fld.grid, None
    grid = _grid_from_params(params)
    family = params["p_family"]
    if not isinstance(family, dict):
        raise ConfigError(f"p_family must be an object with a name and the family's "
                          f"keywords, got {family!r}", key="p_family")
    family = dict(family)
    name = family.pop("name", "identity")
    try:
        return korn.builtin_p_field(name, grid, **family), grid, name
    except (UnknownKind, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid p_family: {exc}", key="p_family")


def _face_from_params(params, key, grid, keywords=("axis", "side")):
    """(axis, side) of the face that params[key] names, checked against the grid.

    The face is an object with an integer axis in 0..dim-1 and side 0 or 1,
    and no keys besides keywords.
    """
    spec = params[key]
    if not isinstance(spec, dict) or not set(spec) <= set(keywords):
        raise ConfigError(f"{key} must be an object with keys among "
                          f"{', '.join(keywords)}, got {spec!r}", key=key)
    axis, side = spec.get("axis", 0), spec.get("side", 0)
    if not (_is_int(axis) and _is_int(side) and 0 <= axis < grid.dim
            and side in (0, 1)):
        raise ConfigError(f"{key} needs an integer axis in 0..{grid.dim - 1} and side "
                          f"0 or 1, got axis {axis!r}, side {side!r}", key=key)
    return axis, side


def _non_negative_int(params, key) -> int:
    """params[key], which must be a non-negative integer (not a bool)."""
    value = params[key]
    if not _is_int(value) or value < 0:
        raise ConfigError(f"{key} must be a non-negative integer, got {value!r}",
                          key=key)
    return value


def _min_det(params) -> float:
    """params["min_det"], which must be a positive finite number (not a bool)."""
    value = params["min_det"]
    if not (_is_finite_number(value) and value > 0):
        raise ConfigError(f"min_det must be a positive finite number, got {value!r}",
                          key="min_det")
    return float(value)


def _gram(params, choices) -> str:
    """params["gram"], which must be one of choices."""
    gram = params["gram"]
    if gram not in choices:
        raise ConfigError(f"gram must be one of {', '.join(choices)}, got {gram!r}",
                          key="gram")
    return gram


def _korn_problem(params):
    p_field, grid, _ = _resolve_p_field(params)
    gamma = None
    if params["gamma"] not in (None, "none"):
        gamma = korn.face_mask(grid, *_face_from_params(params, "gamma", grid))
    return korn.KornProblem(grid, p_field, gamma, min_det=_min_det(params))


# ---------------------------------------------------------------------------
# experiment handlers


def _run_algebra_selftest(cfg: RunConfig, rng):
    tol_det = cfg.params["tol_det"]
    tol_skew = cfg.params["tol_skew"]
    checks = []

    def record(name, samples, worst, tolerance):
        checks.append({"check": name, "samples": samples, "worst": float(worst),
                       "tolerance": float(tolerance),
                       "passed": bool(worst <= tolerance)})

    probe = algebra.mat_of_vec(np.arange(1.0, 10.0))
    worst = np.max(np.abs(probe - np.arange(1.0, 10.0).reshape(3, 3)))
    record("mat_of_vec_layout", 1, worst, 0.0)

    vs = rng.uniform(-1, 1, (100, 9))
    worst = np.max(np.abs(algebra.vec_of_mat(algebra.mat_of_vec(vs)) - vs))
    record("vec_mat_roundtrip", 100, worst, 0.0)

    axes = rng.uniform(-1, 1, (100, 3))
    xs = rng.uniform(-1, 1, (100, 3))
    cross = np.cross(axes, xs)
    via = np.einsum("nij,nj->ni", algebra.smat(axes), xs)
    record("smat_cross_product", 100, np.max(np.abs(via - cross)), 1e-15)

    skews = algebra.smat(axes)
    worst = max(
        np.max(np.abs(algebra.skewvec(skews) - axes)),
        np.max(np.abs(algebra.symvec(skews) - axes)),
        np.max(np.abs(algebra.dvec(skews))),
    )
    record("so3_extractions", 100, worst, 0.0)

    ys = rng.uniform(-1, 1, (1000, 3, 3))
    ops = algebra.build_l_operators(ys)
    worst = np.max(np.abs(ops.full - np.swapaxes(ops.full, -1, -2)))
    record("l_symmetry", 1000, worst, 0.0)
    worst = np.max(np.abs(ops.full - (ops.skew + ops.sym)))
    record("l_decomposition", 1000, worst, 0.0)

    det_l = np.linalg.det(ops.full)
    det_y = np.linalg.det(ys)
    scale = np.maximum(1.0, np.abs(det_y) ** 3)
    worst = np.max(np.abs(det_l + 2.0 * det_y ** 3) / scale)
    record("l_determinant_identity", 1000, worst, tol_det)

    worst = 0.0
    for _ in range(100):
        zeta = rng.uniform(-1, 1, 3)
        grad_axl = rng.uniform(-1, 1, (3, 3))
        y = rng.uniform(-1, 1, (3, 3))
        curl_y = rng.uniform(-1, 1, (3, 3))
        grad27 = np.zeros((9, 3))
        for comp in range(3):
            skew_dir = algebra.smat(np.eye(3)[comp])
            grad27 += skew_dir.reshape(9, 1) * grad_axl[comp][None, :]
        general = algebra.curl_product_pointwise(
            grad27, algebra.smat(zeta), y, curl_y)
        special = algebra.curl_product_skew_pointwise(
            grad_axl, algebra.SkewMat3(zeta), y, curl_y)
        worst = max(worst, float(np.max(np.abs(general - special))))
    record("skew_specialization", 100, worst, tol_skew)

    worst = 0.0
    for _ in range(20):
        y = rng.uniform(-1, 1, (3, 3))
        y = y / np.cbrt(abs(np.linalg.det(y)))
        l_inv = algebra.invert_l(y, min_det=1e-6)
        l_full = algebra.build_l_operators(y).full
        worst = max(worst, float(np.max(np.abs(l_full @ l_inv - np.eye(9)))))
    record("l_inverse_residual", 20, worst, 1e-12)

    passed = all(c["passed"] for c in checks)
    table = ("checks", (["check", "samples", "worst", "tolerance", "passed"],
                        [[c["check"], c["samples"], c["worst"], c["tolerance"],
                          c["passed"]] for c in checks]))
    return passed, {"checks": checks}, dict([table])


def _run_verify_curl(cfg: RunConfig, rng):
    params = cfg.params
    case = params["case"]
    shape = _non_negative_int(params, "shape")
    levels = _non_negative_int(params, "levels")
    if shape < 2:
        raise ConfigError(f"shape must be at least 2 points per axis, got {shape}",
                          key="shape")
    if levels < 1:
        raise ConfigError(f"levels must be at least 1, got {levels}", key="levels")
    base = GridSpec((shape,) * 3, (0.0,) * 3, 1.0 / (shape - 1))
    seed = cfg.seed

    if case == "quadratic":
        x_case = analytic.random_polynomial_matrix(seed, per_axis_degree=1)
        y_case = analytic.random_polynomial_matrix(seed + 1, per_axis_degree=1)
    elif case == "trigonometric":
        if levels < 2:
            raise ConfigError("trigonometric case needs levels >= 2 to measure "
                              "a convergence order", key="levels")
        wavenumber = float(params["wavenumber"])
        if not (np.isfinite(wavenumber) and wavenumber > 0):
            # a zero wavenumber samples constant fields: every error is 0.0
            # and the measured order is inf, which would pass vacuously
            raise ConfigError(f"wavenumber must be positive and finite, got {wavenumber}",
                              key="wavenumber")
        x_case = analytic.random_trig_matrix(seed, wavenumber=wavenumber)
        y_case = analytic.random_trig_matrix(seed + 1, wavenumber=wavenumber)
    else:
        raise ConfigError(f"unknown case {case!r}", key="case")

    def error_at(grid):
        return curl_product_discrepancy(analytic.LazyMatrixSample(x_case, grid),
                                        analytic.LazyMatrixSample(y_case, grid))

    report = refinement_errors(error_at, base, levels=levels)
    rows = [[h, e] for h, e in zip(report.spacings, report.max_errors)]
    for i, order in enumerate(report.orders):
        rows[i + 1].append(order)
    rows[0].append("")

    if case == "quadratic":
        tol = cfg.require_positive_tol(1e-9)
        passed = max(report.max_errors) <= tol
        verdict = {"max_error": max(report.max_errors), "tolerance": tol}
    else:
        min_order = float(params["min_order"])
        passed = report.min_order >= min_order
        verdict = {"observed_order": report.min_order, "required_order": min_order}

    body = {"case": case, "levels": levels, "spacings": report.spacings,
            "max_errors": report.max_errors, "orders": report.orders,
            "verdict": verdict}
    return passed, body, {"levels": (["spacing", "max_error", "order"], rows)}


def _exponential_case(grid):
    n = grid.dim
    tensor = np.zeros((n, n, n))
    for i in range(n):
        tensor[i, n - 1, i] = 1.0
    return CoefficientTensorField.constant(grid, tensor)


def _run_transport_propagate(cfg: RunConfig, rng):
    params = cfg.params
    case = params["case"]
    steps = int(params["steps"])

    if case == "files":
        coef = _input_field(params, "g_file", CoefficientTensorField)
        face = _input_field(params, "face_file", VectorField)
        grid = coef.grid
        residual_tol = cfg.require_positive_tol(1e-6)
        exact = None
    else:
        grid = _grid_from_params(params)
        if case == "exponential":
            coef = _exponential_case(grid)
            value = np.asarray(params["face_value"], dtype=float)
            face = VectorField(grid.face(-1),
                               np.broadcast_to(value, grid.face(-1).shape
                                               + (grid.dim,)).copy())
            pts = grid.points()
            exact = np.exp(pts[..., -1] - grid.origin[-1])[..., None] * value
            residual_tol = cfg.require_positive_tol(
                10.0 * grid.spacing ** 2 * float(np.max(np.abs(exact))))
        elif case == "zero":
            scale = float(params["coefficient_scale"])
            vals = scale * rng.uniform(-1.0, 1.0, grid.shape + (grid.dim,) * 3)
            coef = CoefficientTensorField(grid, vals)
            face = VectorField.zeros(grid.face(-1), grid.dim)
            exact = np.zeros(grid.shape + (grid.dim,))
            residual_tol = cfg.require_positive_tol(1e-10)
        else:
            raise ConfigError(f"unknown case {case!r}", key="case")

    zeta = transport.propagate_cube(coef, face, steps)
    residual = transport.system_residual(zeta, coef, residual_tol)
    body = {"case": case, "steps": steps,
            "grid": {"shape": grid.shape, "spacing": grid.spacing},
            "residual": residual, "zeta_max": zeta.max_norm()}
    passed = residual.passed
    if exact is not None:
        err = float(np.max(np.abs(zeta.values - exact)))
        body["reconstruction_error"] = err
        passed = passed and err <= residual_tol
    fieldio.save_field(cfg.out_dir / "zeta.kfk", zeta)
    rows = [[j, residual.per_axis[j]] for j in range(len(residual.per_axis))]
    return passed, body, {"residual": (["axis", "max_residual"], rows)}


def _run_transport_flood(cfg: RunConfig, rng):
    params = cfg.params
    domain_kind = params["domain"]

    if params.get("mask_file"):
        mask_field = _input_field(params, "mask_file", VectorField)
        if mask_field.components != 1:
            raise ConfigError("mask_file must hold a one-component field",
                              key="mask_file")
        grid = mask_field.grid
        domain = mask_field.values[..., 0] > 0.5
        domain_kind = "mask_file"
    else:
        grid = _grid_from_params(params)
        if domain_kind == "cuboid":
            domain = np.ones(grid.shape, dtype=bool)
        elif domain_kind == "l-shape":
            arm = int(params["arm"])
            if not 2 < arm < min(grid.shape[0], grid.shape[1]):
                raise ConfigError("arm must fit inside the first two axes", key="arm")
            domain = np.zeros(grid.shape, dtype=bool)
            domain[:, :arm, :] = True
            domain[:arm, :, :] = True
        else:
            raise ConfigError(f"unknown domain {domain_kind!r}", key="domain")
    shape = grid.shape

    axis, side = _face_from_params(params, "seed_region", grid,
                                   ("axis", "side", "thickness"))
    thickness = params["seed_region"].get("thickness", 2)
    if not (_is_int(thickness) and 1 <= thickness <= shape[axis]):
        raise ConfigError(f"seed_region thickness must be an integer in "
                          f"1..{shape[axis]}, got {thickness!r}", key="seed_region")
    seed_mask = np.zeros(shape, dtype=bool)
    sl = [slice(None)] * grid.dim
    sl[axis] = slice(0, thickness) if side == 0 else slice(-thickness, None)
    seed_mask[tuple(sl)] = True
    seed_mask &= domain

    scale = float(params["coefficient_scale"])
    if scale == 0.0:
        coef = CoefficientTensorField.zeros(grid)
    else:
        vals = scale * rng.uniform(-1.0, 1.0, shape + (grid.dim,) * 3)
        coef = CoefficientTensorField(grid, vals)

    if params.get("zeta_file"):
        zeta = _input_field(params, "zeta_file", VectorField)
    else:
        zeta = VectorField.zeros(grid, grid.dim)

    report = transport.flood_propagate(domain, seed_mask, coef, zeta, tol=cfg.tol)
    rows = [[i, str(rec.bounds), rec.axis, rec.direction, rec.face_max,
             rec.zeta_max, rec.passed]
            for i, rec in enumerate(report.cuboids)]
    body = {"domain": domain_kind, "report": report,
            "grid": {"shape": grid.shape, "spacing": grid.spacing}}
    return report.passed, body, {
        "cuboids": (["index", "bounds", "axis", "direction", "face_max",
                     "zeta_max", "passed"], rows)}


def _run_transport_counterexample(cfg: RunConfig, rng):
    params = cfg.params
    report = transport.counterexample_demo(float(params["epsilon"]),
                                           int(params["steps"]))
    rows = [
        ["identity_residual", report.identity_residual_max, 1e-12],
        ["full_integral_divergent", float(report.full_divergent), 1.0],
        ["truncated_solution_max", report.truncated_solution_max, 1e-10],
    ]
    return report.passed, {"report": report}, {
        "parts": (["quantity", "value", "threshold"], rows)}


def _run_korn_eig(cfg: RunConfig, rng):
    params = cfg.params
    dense_cap = _non_negative_int(params, "dense_cap")
    gram = _gram(params, ("l2", "h1", "both"))
    problem = _korn_problem(params)
    gamma = problem.gamma_mask
    # only a free problem reads the expected kernel dimension
    expected = _non_negative_int(params, "expect_kernel_dim") if gamma is None else None
    form = korn.assemble_form(problem)
    grams = ["l2", "h1"] if gram == "both" else [gram]
    results = {g: korn.min_rayleigh(form, g, dense_cap=dense_cap) for g in grams}

    if gamma is None:
        passed = all(r.kernel_dim == expected for r in results.values())
    else:
        passed = all(r.lambda_min > r.kernel_threshold for r in results.values())
    # a kernel census that may have missed kernel pairs proves nothing
    passed = passed and all(r.census_complete for r in results.values())

    body = {"gamma": "none" if gamma is None else params.get("gamma"),
            "n_dofs": form.n_dofs,
            "results": {g: {"lambda_min": r.lambda_min, "kernel_dim": r.kernel_dim,
                            "kernel_threshold": r.kernel_threshold,
                            "census_complete": r.census_complete,
                            "eigenpair_residual": r.eigenpair_residual,
                            "dense": r.dense}
                        for g, r in results.items()}}
    rows = []
    for g, r in results.items():
        for i, w in enumerate(r.eigenvalues):
            rows.append([g, i, float(w)])
    return passed, body, {"eigenvalues": (["gram", "index", "value"], rows)}


def _run_korn_probe(cfg: RunConfig, rng):
    params = cfg.params
    dense_cap = _non_negative_int(params, "dense_cap")
    gram = _gram(params, ("l2", "h1"))
    problem = _korn_problem(params)
    gamma = problem.gamma_mask
    probe = korn.norm_property_probe(problem, gram, dense_cap=dense_cap)
    if gamma is None:
        passed = probe.kernel_found and probe.diagnostics.boundary_condition_missing
    else:
        passed = not probe.kernel_found
    # the kernel field itself is bulky; the report keeps the numbers only
    body = {"gamma": "none" if gamma is None else params.get("gamma"),
            "lambda_min": probe.lambda_min,
            "kernel_threshold": probe.kernel_threshold,
            "kernel_dim": probe.kernel_dim,
            "census_complete": probe.census_complete,
            "eigenpair_residual": probe.eigenpair_residual,
            "kernel_found": probe.kernel_found,
            "diagnosis": probe.diagnosis}
    if probe.diagnostics is not None:
        body["skewness_residual"] = probe.diagnostics.skewness_residual
        body["zeta_gamma_max"] = probe.diagnostics.zeta_gamma_max
        body["transport_residual"] = probe.diagnostics.transport_residual
        body["boundary_condition_missing"] = \
            probe.diagnostics.boundary_condition_missing
    return passed, body, {}


def _run_korn_rigid(cfg: RunConfig, rng):
    params = cfg.params
    case = params["case"]
    if case == "files":
        phi = _input_field(params, "phi_file", VectorField)
        psi = _input_field(params, "psi_file", VectorField)
        tol = cfg.require_positive_tol(1e-6)
        true_axial = None
    else:
        grid = _grid_from_params(params)
        pts = grid.points()
        omega = rng.uniform(-1.0, 1.0, 3)
        shift = rng.uniform(-1.0, 1.0, 3)
        if case == "affine":
            psi_vals = pts
            tol = cfg.require_positive_tol(1e-12)
        elif case == "curvilinear":
            psi_vals = pts.copy()
            psi_vals[..., 2] += 0.25 * pts[..., 0] ** 2
            tol = cfg.require_positive_tol(1e-6)
        else:
            raise ConfigError(f"unknown case {case!r}", key="case")
        rot = algebra.smat(omega)
        phi_vals = np.einsum("ij,...j->...i", rot, psi_vals) + shift
        phi = VectorField(grid, phi_vals)
        psi = VectorField(grid, psi_vals)
        true_axial = omega

    recovery = korn.rigid_recover(phi, psi, min_det=_min_det(params))
    body = {"case": case, "recovery": recovery}
    passed = recovery.reconstruction_residual <= tol
    if true_axial is not None:
        axial_err = float(np.max(np.abs(recovery.rotation.axial - true_axial)))
        body["rotation_error"] = axial_err
        passed = passed and axial_err <= tol
    rows = [["skewness", recovery.skewness_residual],
            ["constancy", recovery.constancy_residual],
            ["reconstruction", recovery.reconstruction_residual]]
    return passed, body, {"residuals": (["residual", "value"], rows)}


def _run_korn_gp(cfg: RunConfig, rng):
    params = cfg.params
    p_field, grid, family = _resolve_p_field(params)
    tensor = korn.build_gp(p_field, min_det=_min_det(params))
    fieldio.save_field(cfg.out_dir / "gp_field.kfk", tensor)
    dets = np.linalg.det(p_field.values)
    body = {"grid": {"shape": grid.shape, "spacing": grid.spacing},
            "gp_max": tensor.max_norm(),
            "p_det_min": float(dets.min()), "p_det_max": float(dets.max()),
            "field_file": "gp_field.kfk"}
    passed = True
    if family == "identity":
        tol = cfg.require_positive_tol(1e-12)
        passed = tensor.max_norm() <= tol
        body["identity_check_tolerance"] = tol
    return passed, body, {}


_EXPERIMENTS = {
    "algebra-selftest": ({"tol_det": 1e-10, "tol_skew": 1e-13},
                         _run_algebra_selftest),
    "verify-curl": ({"case": "quadratic", "shape": 17, "levels": 1,
                     "min_order": 1.9, "wavenumber": 2.0}, _run_verify_curl),
    "transport-propagate": ({"case": "exponential", "shape": [17, 17, 17],
                             "spacing": None, "origin": None, "steps": 200,
                             "face_value": [1.0, 0.5, -0.25],
                             "coefficient_scale": 1.0,
                             "g_file": None, "face_file": None},
                            _run_transport_propagate),
    "transport-flood": ({"domain": "cuboid", "shape": [17, 17, 17],
                         "spacing": None, "origin": None, "arm": 8,
                         "seed_region": {"axis": 0, "side": 0, "thickness": 2},
                         "coefficient_scale": 1.0, "steps": 200,
                         "zeta_file": None, "mask_file": None},
                        _run_transport_flood),
    "transport-counterexample": ({"epsilon": 1e-3, "steps": 1000},
                                 _run_transport_counterexample),
    "korn-eig": ({"shape": [5, 5, 5], "spacing": 0.2, "origin": None,
                  "p_family": {"name": "identity"}, "p_file": None,
                  "gamma": {"axis": 0, "side": 0}, "gram": "l2",
                  "dense_cap": korn.DENSE_CAP, "min_det": 1e-12,
                  "expect_kernel_dim": 6}, _run_korn_eig),
    "korn-probe": ({"shape": [5, 5, 5], "spacing": 0.2, "origin": None,
                    "p_family": {"name": "identity"}, "p_file": None,
                    "gamma": {"axis": 0, "side": 0}, "gram": "l2",
                    "dense_cap": korn.DENSE_CAP, "min_det": 1e-12}, _run_korn_probe),
    "korn-rigid": ({"case": "affine", "shape": [9, 9, 9], "spacing": None,
                    "origin": None, "min_det": 1e-12, "phi_file": None,
                    "psi_file": None}, _run_korn_rigid),
    "korn-gp": ({"shape": [9, 9, 9], "spacing": None, "origin": None,
                 "p_family": {"name": "identity"}, "p_file": None,
                 "min_det": 1e-12}, _run_korn_gp),
}


def run(config: RunConfig) -> int:
    """Execute one experiment and write its report; returns the exit code."""
    handler = _EXPERIMENTS[config.experiment][1]
    rng = np.random.default_rng(config.seed)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    passed, body, tables = handler(config, rng)
    report = {
        "experiment": config.experiment,
        "schema": SCHEMA,
        "seed": config.seed,
        "config_sha256": config.sha256,
        "tolerance": config.tol,
        "passed": bool(passed),
        **body,
    }
    reporting.write_report(config.out_dir, config.experiment.replace("-", "_"),
                           report, tables)
    return 0 if passed else 1


def _error_json(exc: KornKitError) -> str:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if isinstance(exc, ConfigError) and exc.key is not None:
        payload["error"]["key"] = exc.key
    return json.dumps(payload, sort_keys=True)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--seed", type=int, default=None, help="RNG seed")
    common.add_argument("--tol", type=float, default=None, help="verdict tolerance")

    parser = argparse.ArgumentParser(prog="korn-kit",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="group", required=True)

    sub.add_parser("verify-curl", parents=[common])

    transport_p = sub.add_parser("transport")
    transport_sub = transport_p.add_subparsers(dest="command", required=True)
    for name in ("propagate", "flood", "counterexample"):
        transport_sub.add_parser(name, parents=[common])

    korn_p = sub.add_parser("korn")
    korn_sub = korn_p.add_subparsers(dest="command", required=True)
    for name in ("eig", "probe", "rigid", "gp"):
        korn_sub.add_parser(name, parents=[common])

    algebra_p = sub.add_parser("algebra")
    algebra_sub = algebra_p.add_subparsers(dest="command", required=True)
    algebra_sub.add_parser("selftest", parents=[common])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.group == "verify-curl":
        experiment = "verify-curl"
    else:
        experiment = f"{args.group}-{args.command}"
    try:
        config = load_config(experiment, args.config, seed=args.seed,
                             tol=args.tol, out=args.out)
        return run(config)
    except KornKitError as exc:
        print(_error_json(exc))
        return 2
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # malformed parameter values surface as config errors, not tracebacks
        print(_error_json(ConfigError(f"invalid config value: {exc}")))
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
