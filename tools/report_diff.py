"""List every report file that differs between this checkout and another.

    python3 tools/report_diff.py DIR

Runs every experiment at its default config (seed 0), the configs in
CONFIGS, and every benchmark workload (seed 901) once with this checkout's
src/ and once with DIR's, one process per run, with OPENBLAS_NUM_THREADS=1.
CONFIGS runs korn gp and korn eig with a rotation-valued P, korn eig on both
Gram matrices, a free korn probe with the H1 Gram at 1029 DOFs, above
the dense cap, whose kernel vector goes through the kernel diagnostics, and
korn rigid on exact affine data over a 33^3 grid at spacing 1, where the
round-off of the means over its points sets the default tolerances, and korn
rigid on the curvilinear case, whose grad(psi) varies from point to point.
Those configs and the workload inputs (by perfbench/workloads.py) are
written once and both sides read them, so their config_sha256 agree.  With
the workloads' graded-roughness and trigonometric fields, the runs sample
every analytic family a CLI run uses.
Prints each output file that differs or exists on one side only, and each
run whose exit code differs between the sides or is neither 0 nor 1; exits 1
if it printed anything.
"""
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE / "src"), str(HERE / "perfbench")]
from korn_kit.cli import _EXPERIMENTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOAD_SEED = 901
ROTATION = {"p_family": {"name": "rotation-valued", "amp": 0.2, "freq": [1.0, 0.5, 0.0]}}
# job -> (experiment, config); the default configs sample P of the identity
# family only, and solve with one Gram matrix, below the dense cap
CONFIGS = {
    "korn-gp-rotation": ("korn-gp", ROTATION),
    "korn-eig-rotation": ("korn-eig", ROTATION),
    "korn-eig-both": ("korn-eig", {"gram": "both"}),
    "korn-probe-sparse": ("korn-probe", {
        "gamma": "none", "gram": "h1", "shape": [7, 7, 7], "spacing": 1 / 7,
        "p_family": {"name": "graded-roughness", "seed": 1, "frequency": 2.0}}),
    "korn-rigid-large": ("korn-rigid", {"shape": [33, 33, 33], "spacing": 1.0}),
    "korn-rigid-curvilinear": ("korn-rigid", {"case": "curvilinear"}),
}
# argv: src directory, experiment, config path ("" for the defaults), output directory
RUN = ("import sys; sys.path.insert(0, sys.argv[1]); from korn_kit import cli; "
       "sys.exit(cli.run(cli.load_config(sys.argv[2], sys.argv[3] or None, "
       "out=sys.argv[4])))")


def run_all(checkout: Path, jobs: dict, out: Path) -> dict:
    """Exit code of each job, run with checkout's source; reports go to out/<job>."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    return {job: subprocess.run([sys.executable, "-c", RUN, str(checkout / "src"),
                                 experiment, config, str(out / job)],
                                env=env, capture_output=True).returncode
            for job, (experiment, config) in jobs.items()}


def contents(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    sides = {"here": HERE, "there": Path(sys.argv[1]).resolve()}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        jobs = {name: (name, "") for name in _EXPERIMENTS}
        (tmp / "inputs").mkdir()
        for job, (experiment, config) in CONFIGS.items():
            path = tmp / "inputs" / f"{job}.json"
            path.write_text(json.dumps(config))
            jobs[job] = (experiment, str(path))
        for name, workload in WORKLOADS.items():
            work = tmp / "inputs" / name
            work.mkdir(parents=True)
            jobs[f"workload-{name}"] = (workload.experiment,
                                        str(workload.make_inputs(work, WORKLOAD_SEED)))
        codes = {side: run_all(path, jobs, tmp / side) for side, path in sides.items()}
        here, there = contents(tmp / "here"), contents(tmp / "there")
    problems = [f"differs: {path}" for path in sorted(here.keys() | there.keys())
                if here.get(path) != there.get(path)]
    problems += [f"exit codes: {job} {codes['here'][job]} here, {codes['there'][job]} there"
                 for job in jobs if {codes["here"][job], codes["there"][job]} - {0, 1}
                 or codes["here"][job] != codes["there"][job]]
    print("\n".join(problems) or f"{len(here)} files identical over {len(jobs)} runs")
    return int(bool(problems))


if __name__ == "__main__":
    sys.exit(main())
