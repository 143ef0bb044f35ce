"""Batch command-line front end.

Runs one named experiment per process, reads a JSON config, writes a JSON
verdict report into the output directory, and exits 0 when every verdict
passed, 1 on a verdict failure, and 2 on a configuration error (with a
machine-readable error JSON on stdout).

    korn-kit verify-curl            --config cfg.json --out reports
    korn-kit transport propagate    [--config ...] [--seed N] [--tol X]
    korn-kit transport flood        (accepts but ignores "steps": cuboids
                                     are checked, not propagated)
    korn-kit transport counterexample
    korn-kit korn eig|probe|rigid|gp
    korn-kit algebra selftest

--seed, --tol and --out override the document's seed, tol and out and are
checked like them; the document's values are checked as well.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import algebra, analytic, fieldio, korn, reporting, transport
from .errors import ConfigError, GridTooLarge, KornKitError
from .fields import (CoefficientTensorField, GridSpec, MatrixField, VectorField,
                     _require_stencil_room, curl_product_discrepancy, refinement_errors)
from .korn import _is_real, _is_vector

SCHEMA = "korn-kit/1"
# experiments that assemble a Korn form and eigensolve it: the only ones that
# need scipy, which the package imports nowhere at module level
EIGENSOLVE_EXPERIMENTS = {"korn-eig", "korn-probe"}


@dataclass(frozen=True)
class RunConfig:
    """Parameters of a single experiment run, each checked when it is read."""

    experiment: str
    seed: int
    tol: float | None  # positive, or None for each verdict's own default
    out_dir: Path
    params: dict  # the document's values as given, over the table's defaults
    sha256: str

    def __getitem__(self, key):
        """params[key], checked and converted by its kind in the experiment's table."""
        kind = _EXPERIMENTS[self.experiment][0][key][1]
        return kind(key, self.params[key])


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
    if experiment not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}", key="experiment")
    table = _EXPERIMENTS[experiment][0]
    params = {key: default for key, (default, _) in table.items()}
    for key, value in document.items():
        if key == "schema" or key in _RUN_KEYS:
            continue
        if key not in table:
            raise ConfigError(f"unknown config key {key!r} for {experiment}", key=key)
        params[key] = value

    run_keys = {"seed": seed, "tol": tol, "out": out}  # None where no keyword is given
    for key, (default, kind) in _RUN_KEYS.items():
        # the document's value is checked even where a keyword overrides it
        value = kind(key, document.get(key, default))
        run_keys[key] = value if run_keys[key] is None else kind(key, run_keys[key])
    seed, tol, out = run_keys.values()

    effective = {"experiment": experiment, "schema": SCHEMA, "seed": seed, "tol": tol,
                 **params}
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

    return RunConfig(experiment, seed, tol, Path(out), params,
                     reporting.config_hash(reporting.to_jsonable(effective)))


def _file_sha256(key, path) -> str:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except (OSError, TypeError) as exc:
        raise ConfigError(f"cannot read {key}: {exc}", key=key)


# ---------------------------------------------------------------------------
# kinds: a kind turns a config value into the typed value a run reads, or
# raises a ConfigError that names the key.  A bool is never a number.


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _kind(wanted, accept, convert=lambda value: value):
    """A kind: convert(value) if accept(value), else a ConfigError naming key."""
    def kind(key, value):
        if not accept(value):
            raise ConfigError(f"{key} must be {wanted}, got {value!r}", key=key)
        return convert(value)
    return kind


def _int_at_least(low, high=math.inf):
    wanted = f"an integer >= {low}" + (f" and <= {high}" if high < math.inf else "")
    return _kind(wanted, lambda v: _is_int(v) and low <= v <= high)


def _real(wanted, accept=lambda v: True):
    return _kind(wanted, lambda v: _is_real(v) and accept(v), float)


def _choice(*names):
    return _kind(f"one of {', '.join(names)}", lambda v: v in names)


def _optional(kind):
    return lambda key, value: None if value is None else kind(key, value)


def _face(**defaults):
    """Kind of a face object: an axis, a side (0 near, 1 far) and the other
    keys of defaults, all non-negative integers, given in the order of defaults."""
    return _kind(f"an object of non-negative integers {', '.join(defaults)} with "
                 f"side 0 or 1",
                 lambda v: (isinstance(v, dict) and set(v) <= set(defaults)
                            and all(_is_int(n) and n >= 0 for n in v.values())
                            and v.get("side", defaults["side"]) in (0, 1)),
                 lambda v: tuple({**defaults, **v}.values()))


_finite = _real("a finite number")
_positive = _real("a positive finite number", lambda v: v > 0)
_finite_list = _kind("a list of finite numbers",
                     lambda v: isinstance(v, list) and all(map(_is_real, v)),
                     lambda v: [float(n) for n in v])
# a zero face value would make the exact solution of transport propagate's
# exponential case zero, and every check on it pass vacuously
_face_value = _kind("three finite numbers, not all zero",
                    lambda v: isinstance(v, list) and _is_vector(v) and any(v),
                    lambda v: np.array(v, dtype=float))
_shape = _kind("a list of positive integers",
               lambda v: isinstance(v, list) and v and all(
                   _is_int(n) and n >= 1 for n in v), tuple)
_path = _kind("a file path", lambda v: isinstance(v, str) and v)
# (name, keywords); builtin_p_field checks both against the families
_p_family = _kind("an object with a name and the family's keywords",
                  lambda v: isinstance(v, dict),
                  lambda v: (v.get("name", "identity"),
                             {k: n for k, n in v.items() if k != "name"}))
_clamped_face = _face(axis=0, side=0)
# the most steps transport propagate and counterexample take, so that a run
# ends: propagate takes ceil(steps / (n - 1)) RK4 substeps a cell on every
# line, and the counterexample steps its lines in Python
_MAX_STEPS = 10 ** 5
# the keys of every run, key -> (default, kind); the keyword of load_config
# (the CLI flag) of the same name overrides the document's value
_RUN_KEYS = {"seed": (0, _int_at_least(0)), "tol": (None, _optional(_positive)),
             "out": ("korn-kit-out", _path)}


def _gamma(key, value):
    """None for the problem with no clamped patch, else the clamped face."""
    return None if value in (None, "none") else _clamped_face(key, value)


# ---------------------------------------------------------------------------
# what several experiments read, with the checks across keys


@contextlib.contextmanager
def _naming(key):
    """Refuse, as a ConfigError naming key, what the library refuses while the
    block builds a run input from key; GridTooLarge and ConfigError pass with
    their type, naming key where they name none."""
    try:
        yield
    except (GridTooLarge, ConfigError) as exc:
        exc.key = exc.key or key
        raise
    except (KornKitError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {key}: {exc}", key=key) from exc


def _grid(cfg: RunConfig, stencil=False) -> GridSpec:
    """The grid of the keys shape, spacing and origin; stencil asks for 3 axes of 3+ points."""
    shape, spacing, origin = cfg["shape"], cfg["spacing"], cfg["origin"]
    if stencil and len(shape) != 3:
        raise ConfigError(f"shape must have 3 axes, got {cfg.params['shape']!r}",
                          key="shape")
    if origin is not None and len(origin) != len(shape):
        raise ConfigError(f"origin must be a list of {len(shape)} finite numbers, got "
                          f"{cfg.params['origin']!r}", key="origin")
    # built at the default spacing first, so that a refused shape names shape
    # and a refused spacing names spacing; 1 / n of a Python int never
    # overflows, so a shape past the float range meets GridSpec's point cap
    with _naming("shape"):
        grid = GridSpec(shape, tuple(origin or (0.0,) * len(shape)), 1 / shape[-1])
        if stencil:
            _require_stencil_room(grid)
    if spacing is None:
        return grid
    with _naming("spacing"):
        return replace(grid, spacing=spacing)


# a default tolerance of this share of its check's scale or more would pass a
# result that is off by half the scale; a run that sets one is refused
_VACUOUS_SHARE = 0.5


def _default_tolerance(scale, key, *, spacing, roundings=1, points=0, floor=0.0,
                       scale_key=None) -> float:
    """The default tolerance of a check on exact data: scale, the size of the
    checked quantity, times the larger of floor (a truncation error) and the
    round-off.  Differencing data rounded roundings times a cell (once for a
    sample, once per RK4 substep) leaves up to 0.5 eps roundings / spacing,
    spacing in the data's own length unit (1.45 at korn gp's edge stencils),
    and a mean over points points up to 0.13 eps points (measured).  A
    tolerance of _VACUOUS_SHARE of scale or more is refused naming key, and
    one below the normal float range naming scale_key (key where None)."""
    share = max(floor, sys.float_info.epsilon * (4.0 * roundings / spacing + 0.25 * points))
    tol = share * scale
    if not (share < _VACUOUS_SHARE and tol >= sys.float_info.min):
        key = key if share >= _VACUOUS_SHARE else scale_key or key
        raise ConfigError(f"{key} leaves the default tolerance at {tol:.3g}, {share:.3g} "
                          f"times the checked quantity's scale: not a normal float "
                          f"below {_VACUOUS_SHARE} times it; give a tol", key=key)
    return tol


def _input_field(cfg: RunConfig, key, cls, *, grid=None, dim=None, components=None,
                 stencil=False):
    """The field that the file cfg[key] holds: a cls, and where given, on grid,
    with dim axes, with components components and with stencil room."""
    path = cfg[key]
    if path is None:
        raise ConfigError(f"{key} must name a field file", key=key)
    with _naming(key):
        fld = fieldio.load_field(path)
    if not isinstance(fld, cls):
        raise ConfigError(f"{key} must hold a {cls.__name__}", key=key)
    if grid is not None and fld.grid != grid:
        raise ConfigError(f"{key} must lie on the run's grid {grid}, got {fld.grid}",
                          key=key)
    if dim is not None and fld.grid.dim != dim:
        raise ConfigError(f"{key} must lie on a {dim}-D grid, got {fld.grid.dim}-D",
                          key=key)
    if components is not None and fld.components != components:
        raise ConfigError(f"{key} must hold {components}-component vectors, got "
                          f"{fld.components}", key=key)
    if stencil:
        with _naming(key):
            _require_stencil_room(fld.grid)
    return fld


def _p_field(cfg: RunConfig):
    """Coefficient field, its grid and its family name (None for a p_file).

    A p_file brings its own grid along, so the grid keys beside it go unread.
    """
    if cfg["p_file"] is not None:
        fld = _input_field(cfg, "p_file", MatrixField, dim=3, stencil=True)
        return fld, fld.grid, None
    grid = _grid(cfg, stencil=True)
    name, keywords = cfg["p_family"]
    with _naming("p_family"):
        return korn.builtin_p_field(name, grid, **keywords), grid, name


def _korn_problem(cfg: RunConfig):
    """(problem, gram, dense_cap, gamma) of korn eig and korn probe, gamma being
    the value the report gives; every key is read before an array is built."""
    gram, dense_cap, face = cfg["gram"], cfg["dense_cap"], cfg["gamma"]
    min_det = cfg["min_det"]
    p_field, grid, _ = _p_field(cfg)
    with _naming("gamma"):
        mask = None if face is None else korn.face_mask(grid, *face)
    with _naming("min_det"):
        problem = korn.KornProblem(grid, p_field, mask, min_det=min_det)
    return problem, gram, dense_cap, "none" if face is None else cfg.params["gamma"]


# ---------------------------------------------------------------------------
# experiment handlers


def _run_algebra_selftest(cfg: RunConfig, rng):
    header = ["check", "samples", "worst", "tolerance", "passed"]
    rows = algebra.selftest(rng, cfg["tol_det"], cfg["tol_skew"])
    checks = [dict(zip(header, row)) for row in rows]
    return all(row[-1] for row in rows), {"checks": checks}


def _run_verify_curl(cfg: RunConfig, rng):
    case, shape, levels = cfg["case"], cfg["shape"], cfg["levels"]
    # 1 / n, as in _grid: a shape past the float range meets the point cap
    with _naming("shape"):
        base = GridSpec((shape,) * 3, (0.0,) * 3, 1 / (shape - 1))
    with _naming("levels"):  # a dry run: the ladder meets the point cap before any level runs
        refinement_errors(lambda grid: 0.0, base, levels=levels)
    seed = cfg.seed

    if case == "quadratic":
        x_case = analytic.random_polynomial_matrix(seed, per_axis_degree=1)
        y_case = analytic.random_polynomial_matrix(seed + 1, per_axis_degree=1)
    else:
        if levels < 2:
            raise ConfigError("trigonometric case needs levels >= 2 to measure "
                              "a convergence order", key="levels")
        # positive: a zero wavenumber samples constant fields, whose errors
        # are all 0.0, and the measured order inf would pass vacuously
        wavenumber = cfg["wavenumber"]
        x_case = analytic.random_trig_matrix(seed, wavenumber=wavenumber)
        y_case = analytic.random_trig_matrix(seed + 1, wavenumber=wavenumber)

    def error_at(grid):
        return curl_product_discrepancy(analytic.LazyMatrixSample(x_case, grid),
                                        analytic.LazyMatrixSample(y_case, grid))

    report = refinement_errors(error_at, base, levels=levels)

    if case == "quadratic":
        tol = cfg.tol or 1e-9
        passed = max(report.max_errors) <= tol
        verdict = {"max_error": max(report.max_errors), "tolerance": tol}
    else:
        min_order = cfg["min_order"]
        passed = report.min_order >= min_order
        verdict = {"observed_order": report.min_order, "required_order": min_order}

    body = {"case": case, "levels": levels, "spacings": report.spacings,
            "max_errors": report.max_errors, "orders": report.orders,
            "verdict": verdict}
    return passed, body


def _random_coefficient(cfg: RunConfig, grid, rng):
    """G of transport propagate's zero case and of transport flood: independent
    uniform entries in [-coefficient_scale, coefficient_scale]."""
    return CoefficientTensorField(
        grid, cfg["coefficient_scale"] * rng.uniform(-1.0, 1.0, grid.shape + (grid.dim,) * 3))


def _run_transport_propagate(cfg: RunConfig, rng):
    case, steps = cfg["case"], cfg["steps"]
    exact = None
    if case == "files":
        coef = _input_field(cfg, "g_file", CoefficientTensorField, stencil=True)
        face = _input_field(cfg, "face_file", VectorField)
        grid = coef.grid
        residual_tol = cfg.tol or 1e-6
    elif case == "zero":
        grid = _grid(cfg, stencil=True)
        coef = _random_coefficient(cfg, grid, rng)
        face = VectorField.zeros(grid.face(-1), grid.dim)
        exact = np.zeros(grid.shape + (grid.dim,))
        residual_tol = cfg.tol or 1e-10
    else:
        grid = _grid(cfg, stencil=True)
        # G_(i, n-1, i) = 1: zeta' = zeta along the last axis, 0 along the others
        tensor = np.einsum("ik,j->ijk", np.eye(3), np.eye(3)[-1])
        coef = CoefficientTensorField.constant(grid, tensor)
        value = cfg["face_value"]
        # the exact solution peaks at max|face_value| e^((n - 1) h), and RK4's
        # stage sums reach about 6 times that (measured): the growth and the
        # peak both stay 16 times inside the float range
        growth = (grid.shape[-1] - 1) * grid.spacing
        for key, log_peak in (("spacing", growth),
                              ("face_value", growth + np.log(np.max(np.abs(value))))):
            if log_peak > np.log(sys.float_info.max / 16.0):
                raise ConfigError(f"{key} makes the exact solution reach "
                                  f"e^{log_peak:.4g}, past the float range / 16", key=key)
        face = VectorField.constant(grid.face(-1), value)
        # from the offsets i h along the last axis, so the origin adds no round-off
        exact = np.exp(grid.spacing * np.arange(grid.shape[-1]))[:, None] * value
        # RK4 rounds each value once a substep, steps / (n - 1) of them a cell
        residual_tol = cfg.tol or _default_tolerance(
            float(np.max(np.abs(exact))), "spacing", spacing=grid.spacing,
            roundings=math.ceil(steps / (grid.shape[-1] - 1)),
            floor=10.0 * grid.spacing ** 2, scale_key="face_value")

    # only a face file can miss the coefficient's grid: the other cases build
    # their face on grid.face(-1)
    with _naming("face_file"):
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
    return passed, body


def _run_transport_flood(cfg: RunConfig, rng):
    if cfg["mask_file"] is not None:
        mask_field = _input_field(cfg, "mask_file", VectorField, components=1)
        grid = mask_field.grid
        domain = mask_field.values[..., 0] > 0.5
        domain_kind = "mask_file"
    else:
        grid = _grid(cfg)
        domain_kind = cfg["domain"]
        if domain_kind == "cuboid":
            domain = np.ones(grid.shape, dtype=bool)
        else:
            arm = cfg["arm"]
            if not 2 < arm < min(grid.shape[0], grid.shape[1]):
                raise ConfigError("arm must fit inside the first two axes", key="arm")
            domain = np.zeros(grid.shape, dtype=bool)
            domain[:, :arm] = True
            domain[:arm] = True

    with _naming("seed_region"):
        seed_mask = korn.face_mask(grid, *cfg["seed_region"]) & domain

    zeta = None
    if cfg["zeta_file"] is not None:
        zeta = _input_field(cfg, "zeta_file", VectorField, grid=grid,
                            components=grid.dim)

    coef = _random_coefficient(cfg, grid, rng)
    if zeta is None:
        # made after the coefficient, so it can reuse the memory of the
        # coefficient's freed temporaries; made first, it raised peak RSS
        zeta = VectorField.zeros(grid, grid.dim)

    report = transport.flood_propagate(domain, seed_mask, coef, zeta, tol=cfg.tol)
    body = {"domain": domain_kind, "report": report,
            "grid": {"shape": grid.shape, "spacing": grid.spacing}}
    return report.passed, body


def _run_transport_counterexample(cfg: RunConfig, rng):
    report = transport.counterexample_demo(cfg["epsilon"], cfg["steps"])
    # the bound on each of the report's quantities of the same name
    thresholds = {"identity_residual_max": transport.IDENTITY_RESIDUAL_TOL,
                  "truncated_solution_max": transport.TRUNCATED_SOLUTION_TOL}
    return report.passed, {"report": report, "thresholds": thresholds}


def _census(r: korn.RayleighResult) -> dict:
    """The kernel census of one eigensolve, as korn eig and korn probe report it."""
    return {"lambda_min": r.lambda_min, "kernel_dim": r.kernel_dim,
            "kernel_threshold": r.kernel_threshold,
            "census_complete": r.census_complete,
            "eigenpair_residual": r.eigenpair_residual}


def _run_korn_eig(cfg: RunConfig, rng):
    # only a free problem reads the expected kernel dimension
    expected = cfg["expect_kernel_dim"] if cfg["gamma"] is None else None
    problem, gram, dense_cap, gamma = _korn_problem(cfg)
    form = korn.assemble_form(problem)
    grams = ["l2", "h1"] if gram == "both" else [gram]
    results = {g: korn.min_rayleigh(form, g, dense_cap=dense_cap) for g in grams}

    if problem.gamma_mask is None:
        passed = all(r.kernel_dim == expected for r in results.values())
    else:
        passed = all(r.lambda_min > r.kernel_threshold for r in results.values())
    # a kernel census that may have missed kernel pairs proves nothing
    passed = passed and all(r.census_complete for r in results.values())

    body = {"gamma": gamma, "n_dofs": form.n_dofs,
            "results": {g: {**_census(r), "dense": r.dense, "eigenvalues": r.eigenvalues}
                        for g, r in results.items()}}
    return passed, body


def _run_korn_probe(cfg: RunConfig, rng):
    problem, gram, dense_cap, gamma = _korn_problem(cfg)
    probe = korn.norm_property_probe(problem, gram, dense_cap=dense_cap)
    if problem.gamma_mask is None:
        passed = probe.kernel_found and probe.diagnostics.boundary_condition_missing
    else:
        passed = not probe.kernel_found
    # the kernel field itself is bulky; the report keeps the numbers only
    body = {"gamma": gamma, **_census(probe.rayleigh),
            "kernel_found": probe.kernel_found,
            "diagnosis": probe.diagnosis}
    if probe.diagnostics is not None:
        body["skewness_residual"] = probe.diagnostics.skewness_residual
        body["zeta_gamma_max"] = probe.diagnostics.zeta_gamma_max
        body["transport_residual"] = probe.diagnostics.transport_residual
        body["boundary_condition_missing"] = \
            probe.diagnostics.boundary_condition_missing
    return passed, body


def _run_korn_rigid(cfg: RunConfig, rng):
    case = cfg["case"]
    body = {"case": case}
    if case == "files":
        phi = _input_field(cfg, "phi_file", VectorField, dim=3, components=3, stencil=True)
        psi = _input_field(cfg, "psi_file", VectorField, grid=phi.grid, components=3)
        grid, omega, key = phi.grid, None, "phi_file"
    else:
        grid = _grid(cfg, stencil=True)
        # exact data in the grid's own units: psi from the offsets i h to the
        # first point, the shift and the curvature over the extent L = (n - 1) h,
        # so neither the origin nor the spacing changes their relative round-off
        extent = (max(grid.shape) - 1) * grid.spacing
        psi_vals = replace(grid, origin=(0.0,) * 3).points()
        omega = rng.uniform(-1.0, 1.0, 3)
        shift = extent * rng.uniform(-1.0, 1.0, 3)
        if case == "curvilinear":
            psi_vals[..., 2] += 0.25 * psi_vals[..., 0] ** 2 / extent
        phi = VectorField(grid, psi_vals @ algebra.smat(omega).T + shift)
        psi = VectorField(grid, psi_vals)
        key = "shape"

    # the stencils difference data that vary over n - 1 cells, and
    # rigid_recover averages over the grid's points
    roundoff = {"spacing": 1.0 / (max(grid.shape) - 1), "points": grid.num_points}
    if omega is not None:
        body["rotation_tolerance"] = cfg.tol or _default_tolerance(
            float(np.abs(omega).max()), key, **roundoff)
    recon_tol = cfg.tol or _default_tolerance(
        max(phi.max_norm(), psi.max_norm()), key, **roundoff)

    # after the checks above, the floor on det grad(psi) is the one refusal left
    with _naming("min_det"):
        recovery = korn.rigid_recover(phi, psi, min_det=cfg["min_det"])
    body.update(recovery=recovery, reconstruction_tolerance=recon_tol)
    passed = recovery.reconstruction_residual <= recon_tol
    if omega is not None:
        body["rotation_error"] = float(np.max(np.abs(recovery.rotation.axial - omega)))
        passed = passed and body["rotation_error"] <= body["rotation_tolerance"]
    return passed, body


def _run_korn_gp(cfg: RunConfig, rng):
    min_det = cfg["min_det"]
    p_field, grid, family = _p_field(cfg)
    with _naming("min_det"):
        dets = algebra.det_floor(p_field.values, min_det, "P")
    tensor = korn.build_gp(p_field, min_det=min_det)
    fieldio.save_field(cfg.out_dir / "gp_field.kfk", tensor)
    body = {"grid": {"shape": grid.shape, "spacing": grid.spacing},
            "gp_max": tensor.max_norm(),
            "p_det_min": float(dets.min()), "p_det_max": float(dets.max()),
            "field_file": "gp_field.kfk"}
    passed = True
    if family == "identity":
        tol = cfg.tol or _default_tolerance(1.0, "spacing", spacing=grid.spacing, floor=1e-12)
        passed = tensor.max_norm() <= tol
        body["identity_check_tolerance"] = tol
    return passed, body


# each experiment's parameter table, key -> (default, kind), and its handler;
# a handler reads a key as cfg[key], so a key a run does not read goes unchecked
_GRID = {"shape": ([17, 17, 17], _shape), "spacing": (None, _optional(_positive)),
         "origin": (None, _optional(_finite_list))}
_P_FIELD = {"p_family": ({"name": "identity"}, _p_family),
            "p_file": (None, _optional(_path)), "min_det": (1e-12, _positive)}
_KORN_SOLVE = {**_GRID, **_P_FIELD, "shape": ([5, 5, 5], _shape),
               "spacing": (0.2, _optional(_positive)),
               "gamma": ({"axis": 0, "side": 0}, _gamma),
               "dense_cap": (korn.DENSE_CAP, _int_at_least(0))}

_EXPERIMENTS = {
    "algebra-selftest": ({"tol_det": (1e-10, _positive),
                          "tol_skew": (1e-13, _positive)}, _run_algebra_selftest),
    "verify-curl": ({"case": ("quadratic", _choice("quadratic", "trigonometric")),
                     "shape": (17, _int_at_least(3)), "levels": (1, _int_at_least(1)),
                     "min_order": (1.9, _finite), "wavenumber": (2.0, _positive)},
                    _run_verify_curl),
    "transport-propagate": ({"case": ("exponential",
                                      _choice("exponential", "zero", "files")),
                             **_GRID, "steps": (200, _int_at_least(1, _MAX_STEPS)),
                             "face_value": ([1.0, 0.5, -0.25], _face_value),
                             "coefficient_scale": (1.0, _finite),
                             "g_file": (None, _optional(_path)),
                             "face_file": (None, _optional(_path))},
                            _run_transport_propagate),
    # steps is accepted and never read: cuboids are checked, not propagated
    "transport-flood": ({"domain": ("cuboid", _choice("cuboid", "l-shape")), **_GRID,
                         "arm": (8, _int_at_least(1)),
                         "seed_region": ({"axis": 0, "side": 0, "thickness": 2},
                                         _face(axis=0, side=0, thickness=2)),
                         "coefficient_scale": (1.0, _finite),
                         "steps": (200, _int_at_least(1)),
                         "zeta_file": (None, _optional(_path)),
                         "mask_file": (None, _optional(_path))},
                        _run_transport_flood),
    "transport-counterexample": ({"epsilon": (1e-3, _real(
                                      "a number in (0, 1) with a finite reciprocal",
                                      lambda v: 0 < v < 1 and math.isfinite(1 / v))),
                                  "steps": (1000, _int_at_least(2, _MAX_STEPS))},
                                 _run_transport_counterexample),
    "korn-eig": ({**_KORN_SOLVE, "gram": ("l2", _choice("l2", "h1", "both")),
                  "expect_kernel_dim": (6, _int_at_least(0))}, _run_korn_eig),
    "korn-probe": ({**_KORN_SOLVE, "gram": ("l2", _choice("l2", "h1"))},
                   _run_korn_probe),
    "korn-rigid": ({"case": ("affine", _choice("affine", "curvilinear", "files")),
                    **_GRID, "shape": ([9, 9, 9], _shape),
                    "min_det": (1e-12, _positive), "phi_file": (None, _optional(_path)),
                    "psi_file": (None, _optional(_path))}, _run_korn_rigid),
    "korn-gp": ({**_GRID, **_P_FIELD, "shape": ([9, 9, 9], _shape)}, _run_korn_gp),
}


def run(config: RunConfig) -> int:
    """Execute one experiment and write its report; returns the exit code."""
    handler = _EXPERIMENTS[config.experiment][1]
    rng = np.random.default_rng(config.seed)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    passed, body = handler(config, rng)
    report = {
        "experiment": config.experiment,
        "schema": SCHEMA,
        "seed": config.seed,
        "config_sha256": config.sha256,
        "tolerance": config.tol,
        "passed": bool(passed),
        **body,
    }
    reporting.write_report(config.out_dir, config.experiment.replace("-", "_"), report)
    return 0 if passed else 1


def _error_json(exc: KornKitError) -> str:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if exc.key is not None:
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
    # verify-curl is a command of its own; every other experiment is a group
    # and a command, split at the first "-" of its name; each command's
    # parser names its experiment
    groups = {}
    for name in _EXPERIMENTS:
        if name == "verify-curl":
            sub.add_parser(name, parents=[common]).set_defaults(experiment=name)
            continue
        group, command = name.split("-", 1)
        if group not in groups:
            groups[group] = sub.add_parser(group).add_subparsers(dest="command",
                                                                 required=True)
        groups[group].add_parser(command, parents=[common]).set_defaults(experiment=name)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.experiment, args.config, seed=args.seed,
                             tol=args.tol, out=args.out)
        return run(config)
    except KornKitError as exc:
        print(_error_json(exc))
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
