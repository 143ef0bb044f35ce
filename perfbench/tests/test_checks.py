"""Tests of the benchmark's own correctness checks.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The reports come from real experiments at small sizes, run through the same
fresh-process path as the benchmark, and are then doctored.
"""

import copy
import functools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
import workloads as wl

SEED = 7


def _run_small(tmp_path, workload, make_inputs, check=None, **overrides):
    """Run one experiment in a fresh process; return (sample, report)."""
    config = make_inputs(tmp_path, SEED)
    if overrides:
        document = json.loads(config.read_text())
        document.update(overrides)
        config.write_text(json.dumps(document))
    workload = wl.Workload(workload.name, workload.experiment, workload.report,
                           make_inputs, check or workload.check)
    runner = run.Runner(workload, tmp_path, config,
                        run.child_env(1), time.perf_counter() + 120.0)
    sample = runner.round()
    assert sample.get("ok"), sample
    return sample, json.loads((runner.out / workload.report).read_text())


def _lambda_min(report):
    return report["results"]["l2"]["lambda_min"]


def test_sparse_path_agrees_with_dense_lapack(tmp_path):
    workload = wl.WORKLOADS["eig-sparse"]
    inputs = functools.partial(wl.eig_sparse_inputs, n=7)  # 882 free DOFs
    (tmp_path / "sparse").mkdir()
    (tmp_path / "dense").mkdir()
    sparse, sparse_report = _run_small(tmp_path / "sparse", workload, inputs,
                                       dense_cap=0)
    _, dense_report = _run_small(tmp_path / "dense", workload, inputs,
                                 dense_cap=10 ** 6)
    assert sparse["problems"] == []
    assert sparse_report["results"]["l2"]["dense"] is False
    assert dense_report["results"]["l2"]["dense"] is True
    assert _lambda_min(sparse_report) == pytest.approx(_lambda_min(dense_report),
                                                       rel=1e-8)
    # the dense report is right in every other way, so only the path is flagged
    assert wl.check_eig_sparse(dense_report) == \
        ["the solve did not take the sparse path"]


def _unit_cuboids(mask):
    return [[(int(i), int(i) + 1) for i in point] for point in np.argwhere(mask)]


def test_coverage_accepts_exact_cover():
    mask = wl.ball(9)
    seed = wl.seed_slab(mask)
    assert wl.coverage_problems(_unit_cuboids(mask & ~seed), mask, seed) == []


def test_coverage_rejects_a_hole():
    mask = wl.ball(9)
    seed = wl.seed_slab(mask)
    cuboids = _unit_cuboids(mask & ~seed)
    del cuboids[len(cuboids) // 2]
    problems = wl.coverage_problems(cuboids, mask, seed)
    assert problems == ["1 mask points are covered by no cuboid and lie "
                        "outside the seed region"]


def test_coverage_rejects_a_cuboid_outside_the_mask():
    mask = wl.ball(9)
    seed = wl.seed_slab(mask)
    cuboids = _unit_cuboids(mask & ~seed) + [[(0, 1), (0, 1), (0, 1)]]
    assert wl.coverage_problems(cuboids, mask, seed) == \
        ["cuboid %d [(0, 1), (0, 1), (0, 1)] leaves the mask" % (len(cuboids) - 1)]


def _set(path, value):
    def doctor(report):
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return doctor


def _drop_middle_cuboid(report):
    cuboids = report["report"]["cuboids"]
    del cuboids[len(cuboids) // 2]


def _grow_first_cuboid(report):
    bounds = report["report"]["cuboids"][0]["bounds"]
    bounds[1] = [0, bounds[1][1]]  # stretch to the grid edge, outside the ball


CASES = {
    "probe-dense": (functools.partial(wl.probe_dense_inputs, n=5), None, {}, [
        _set(["passed"], False),
        _set(["kernel_dim"], 5),
        _set(["kernel_dim"], 7),
        _set(["kernel_found"], False),
        _set(["boundary_condition_missing"], False),
    ]),
    "eig-sparse": (functools.partial(wl.eig_sparse_inputs, n=7), None,
                   {"dense_cap": 0}, [
        _set(["passed"], False),
        _set(["results", "l2", "dense"], True),
        _set(["results", "l2", "kernel_dim"], 1),
        _set(["results", "l2", "lambda_min"], 1e-14),
    ]),
    "curl-field": (functools.partial(wl.curl_field_inputs, n=17), None, {}, [
        _set(["passed"], False),
        _set(["orders"], [1.5]),
        _set(["orders"], [2.5]),
        _set(["max_errors"], [1e-3, 2e-3]),
        _set(["max_errors"], [1e-3]),
    ]),
    "flood-ball": (functools.partial(wl.flood_ball_inputs, n=9),
                   functools.partial(wl.check_flood_ball, n=9), {}, [
        _set(["passed"], False),
        _set(["report", "cuboids"], []),
        _drop_middle_cuboid,
        _grow_first_cuboid,
    ]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_passes_real_report_and_fails_doctored_ones(tmp_path, name):
    inputs, check, overrides, doctors = CASES[name]
    workload = wl.WORKLOADS[name]
    check = check or workload.check
    sample, report = _run_small(tmp_path, workload, inputs, check, **overrides)
    assert sample["problems"] == []
    for doctor in doctors:
        doctored = copy.deepcopy(report)
        doctor(doctored)
        assert check(doctored), f"{doctor} was not caught"


def test_inputs_depend_on_the_seed_only(tmp_path):
    for seed in (1, 2):
        for rep in ("a", "b"):
            (tmp_path / f"{seed}{rep}").mkdir()
            wl.probe_dense_inputs(tmp_path / f"{seed}{rep}", seed, n=5)
    read = lambda d: (tmp_path / d / "p.kfk").read_bytes()  # noqa: E731
    assert read("1a") == read("1b")
    assert read("1a") != read("2a")


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "child.py", "tracer.py", "workloads.py"):
        shutil.copy(Path(run.__file__).parent / name, bench / name)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flood-ball",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""


def test_trace_sees_calls_made_inside_the_program(tmp_path):
    workload = wl.WORKLOADS["flood-ball"]
    config = wl.flood_ball_inputs(tmp_path, SEED, n=9)
    workload = wl.Workload(workload.name, workload.experiment, workload.report,
                           None, functools.partial(wl.check_flood_ball, n=9))
    runner = run.Runner(workload, tmp_path, config, run.child_env(1),
                        time.perf_counter() + 120.0)
    sample = runner.round(trace_out=tmp_path / "trace.json")
    assert sample.get("ok") and sample["problems"] == []
    trace = json.loads((tmp_path / "trace.json").read_text())
    report = json.loads((runner.out / workload.report).read_text())
    spans, counts = trace["spans"], trace["counts"]
    n_cuboids = len(report["report"]["cuboids"])
    # fd_grad is bound by name inside transport and called from there
    assert spans["fields.fd_grad"]["calls"] == \
        spans["transport.system_residual"]["calls"] > 0
    assert counts["transport.propagate_cube_calls"] == n_cuboids
    assert counts["transport.system_residual_calls"] == \
        sum(1 for c in report["report"]["cuboids"] if c["residual"] is not None)
    assert counts["fieldio.bytes_read"] == (tmp_path / "mask.kfk").stat().st_size
    # self times partition the two top-level spans exactly
    top = spans["cli.run"]["total_s"] + spans["cli.load_config"]["total_s"]
    assert sum(s["self_s"] for s in spans.values()) == pytest.approx(top, rel=1e-9)
    assert all(s["self_s"] >= 0.0 for s in spans.values())
