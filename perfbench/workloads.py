"""The four workloads: their generated inputs and their output checks.

Each workload writes a run config (and any field file it needs) from the
benchmark seed, and checks a report against a property the method must
have.  A check returns a list of problems; an empty list means the report
is correct.  Field files are written here in the KFK1 layout the program
documents, not through the program's own writer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SCHEMA = "korn-kit/1"

PROBE_N = 9          # 9^3 points, 2187 DOFs: below the 6000-DOF dense cap
EIG_N = 13           # 13^3, one face clamped: 6084 free DOFs, sparse path
CURL_N = 33          # levels 33^3 and 65^3
FLOOD_N = 21         # ball of diameter 20 cells
SEED_THICKNESS = 2   # flood seed region: the first two index layers of axis 0
PSI_AMPLITUDE = 0.1  # coefficient range of the curvilinear map's terms
PSI_MIN_DET = 0.5


def write_kfk(path, values, origin, spacing) -> None:
    """Write a field as ``KFK1 <dim> <shape...> <components> <origin...> <h>``."""
    dim = len(origin)
    shape = values.shape[:dim]
    components = int(np.prod(values.shape[dim:]))
    header = " ".join(["KFK1", str(dim), *map(str, shape), str(components),
                       *map(repr, map(float, origin)), repr(float(spacing))])
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode("ascii"))
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def unit_cube_points(n: int) -> np.ndarray:
    axis = np.linspace(0.0, 1.0, n)
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)


def curvilinear_p(n: int, seed: int) -> np.ndarray:
    """P = grad(Psi) for Psi(x) = x + L x + q(x), q quadratic, det P >= 0.5.

    Psi has per-axis degree <= 2, so the grid's second-order stencils
    differentiate A Psi + a exactly and the discrete kernel of the free
    problem is exactly the six rigid fields of the paper's lemma.
    """
    rng = np.random.default_rng(seed)
    points = unit_cube_points(n)
    while True:
        lin = rng.uniform(-PSI_AMPLITUDE, PSI_AMPLITUDE, (3, 3))
        quad = rng.uniform(-PSI_AMPLITUDE, PSI_AMPLITUDE, (3, 3, 3))
        quad = 0.5 * (quad + quad.transpose(0, 2, 1))  # Psi_i += x^T quad_i x
        p = np.eye(3) + lin + 2.0 * np.einsum("ijk,...k->...ij", quad, points)
        if np.linalg.det(p).min() >= PSI_MIN_DET:
            return p


def ball(n: int) -> np.ndarray:
    """Points of an n^3 grid within (n-1)/2 index units of its centre."""
    idx = np.arange(n) - (n - 1) / 2.0
    sq = idx[:, None, None] ** 2 + idx[None, :, None] ** 2 + idx[None, None, :] ** 2
    return sq <= ((n - 1) / 2.0) ** 2


def write_config(path: Path, seed: int, **params) -> Path:
    path.write_text(json.dumps({"schema": SCHEMA, "seed": seed, **params},
                               indent=1, sort_keys=True))
    return path


# ---------------------------------------------------------------------------
# inputs


def probe_dense_inputs(work: Path, seed: int, n: int = PROBE_N) -> Path:
    write_kfk(work / "p.kfk", curvilinear_p(n, seed), (0.0,) * 3, 1.0 / (n - 1))
    return write_config(work / "config.json", seed, p_file=str(work / "p.kfk"),
                        gamma="none", gram="l2")


def eig_sparse_inputs(work: Path, seed: int, n: int = EIG_N) -> Path:
    return write_config(work / "config.json", seed, shape=[n] * 3,
                        spacing=1.0 / (n - 1),
                        p_family={"name": "graded-roughness", "seed": seed,
                                  "amplitude": 0.1, "frequency": 2.0},
                        gamma={"axis": 0, "side": 0}, gram="l2")


def curl_field_inputs(work: Path, seed: int, n: int = CURL_N) -> Path:
    return write_config(work / "config.json", seed, case="trigonometric",
                        shape=n, levels=2)


def flood_ball_inputs(work: Path, seed: int, n: int = FLOOD_N) -> Path:
    mask = ball(n).astype(float)[..., None]
    write_kfk(work / "mask.kfk", mask, (0.0,) * 3, 1.0 / (n - 1))
    return write_config(work / "config.json", seed,
                        mask_file=str(work / "mask.kfk"),
                        seed_region={"axis": 0, "side": 0,
                                     "thickness": SEED_THICKNESS},
                        coefficient_scale=1.0, steps=200)


# ---------------------------------------------------------------------------
# checks


def check_probe_dense(report: dict) -> list:
    problems = []
    if report.get("passed") is not True:
        problems.append("verdict did not pass")
    if report.get("kernel_found") is not True:
        problems.append("no kernel found without a clamped patch")
    if report.get("boundary_condition_missing") is not True:
        problems.append("diagnostics do not name the missing boundary condition")
    if report.get("kernel_dim") != 6:
        problems.append(f"kernel_dim {report.get('kernel_dim')} != 6 rigid fields")
    return problems


def check_eig_sparse(report: dict) -> list:
    problems = []
    if report.get("passed") is not True:
        problems.append("verdict did not pass")
    result = report.get("results", {}).get("l2", {})
    if result.get("dense") is not False:
        problems.append("the solve did not take the sparse path")
    if result.get("kernel_dim") != 0:
        problems.append(f"kernel_dim {result.get('kernel_dim')} != 0 with a clamp")
    lam, threshold = result.get("lambda_min"), result.get("kernel_threshold")
    if not (isinstance(lam, float) and isinstance(threshold, float)
            and lam > threshold):
        problems.append(f"lambda_min {lam} does not clear threshold {threshold}")
    return problems


def check_curl_field(report: dict) -> list:
    problems = []
    if report.get("passed") is not True:
        problems.append("verdict did not pass")
    orders = report.get("orders", [])
    errors = report.get("max_errors", [])
    if len(errors) != 2 or len(orders) != 1:
        problems.append(f"expected two levels, got errors {errors}")
    if not all(isinstance(o, float) and 1.9 <= o <= 2.1 for o in orders):
        problems.append(f"observed orders {orders} outside [1.9, 2.1]")
    if not all(b < a for a, b in zip(errors, errors[1:])):
        problems.append(f"errors {errors} do not fall with refinement")
    return problems


def seed_slab(mask: np.ndarray) -> np.ndarray:
    """Mask points of the seed region, whose zero data the program checks first."""
    slab = np.zeros_like(mask)
    slab[:SEED_THICKNESS] = True
    return slab & mask


def coverage_problems(cuboids, mask: np.ndarray, seed: np.ndarray) -> list:
    """Cuboids plus the seed region must cover the mask; each cuboid lies inside it.

    Bounds are half-open index ranges per axis.
    """
    problems = []
    union = seed.copy()
    for i, bounds in enumerate(cuboids):
        region = tuple(slice(lo, hi) for lo, hi in bounds)
        if not all(0 <= lo < hi <= n for (lo, hi), n in zip(bounds, mask.shape)):
            problems.append(f"cuboid {i} bounds {bounds} leave the grid")
            continue
        if not mask[region].all():
            problems.append(f"cuboid {i} {bounds} leaves the mask")
        union[region] = True
    missed = int(np.count_nonzero(mask & ~union))
    if missed:
        problems.append(f"{missed} mask points are covered by no cuboid "
                        "and lie outside the seed region")
    return problems


def check_flood_ball(report: dict, n: int = FLOOD_N) -> list:
    problems = []
    if report.get("passed") is not True:
        problems.append("verdict did not pass")
    cuboids = report.get("report", {}).get("cuboids", [])
    if not cuboids:
        problems.append("no cuboids reported")
    mask = ball(n)
    problems += coverage_problems([c["bounds"] for c in cuboids], mask,
                                  seed_slab(mask))
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    report: str
    make_inputs: Callable[[Path, int], Path]
    check: Callable[[dict], list]


WORKLOADS = {w.name: w for w in (
    Workload("probe-dense", "korn-probe", "korn_probe.json",
             probe_dense_inputs, check_probe_dense),
    Workload("eig-sparse", "korn-eig", "korn_eig.json",
             eig_sparse_inputs, check_eig_sparse),
    Workload("curl-field", "verify-curl", "verify_curl.json",
             curl_field_inputs, check_curl_field),
    Workload("flood-ball", "transport-flood", "transport_flood.json",
             flood_ball_inputs, check_flood_ball),
)}
