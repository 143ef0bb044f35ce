"""Benchmark of korn-kit's CLI experiments, one fresh process per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, runs the experiment once
untimed so the page cache holds the imports, then runs it again, one process
after another, as many whole times as fit in S seconds (at least three),
and checks every report.  With
``--trace 0`` it prints the medians of the end-to-end metrics; with
``--trace 1`` it also runs one traced process and prints the per-layer
metrics.  The last line of standard output is one JSON object.  Every
sample, the environment and the trace go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
MIB = 1024.0
MIN_ROUNDS = 3
DEADLINE_S = 150.0  # a process still running this long after start is killed


def thread_count() -> int:
    """BLAS/OpenMP threads per run: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(threads)
    env["PYTHONHASHSEED"] = "0"
    return env


def environment(threads: int) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"cpu_count": os.cpu_count(), "cpus_usable": thread_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version")},
            "threads": {var: threads for var in THREAD_VARS}}


class Runner:
    """Runs one workload's experiment in fresh processes and checks reports."""

    def __init__(self, workload, work: Path, config: Path, env: dict,
                 deadline: float):
        self.workload = workload
        self.work = work
        self.config = config
        self.env = env
        self.out = work / "out"
        self.deadline = deadline

    def round(self, trace_out: Path | None = None) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "child.py"),
               "--experiment", self.workload.experiment,
               "--config", str(self.config), "--out", str(self.out)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env,
                                cwd=self.work)
        watchdog = threading.Timer(max(0.0, self.deadline - start), proc.kill)
        watchdog.start()
        try:
            with proc.stdout:
                stdout = proc.stdout.read().decode()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        sample = {"exit_code": proc.returncode,
                  "peak_rss_mb": usage.ru_maxrss / MIB}
        try:
            stamps = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            sample["problems"] = [f"no result line, exit code {proc.returncode}"]
            return sample
        sample["setup_s"] = stamps["ready"] - start
        sample["wall_s"] = stamps["done"] - stamps["ready"]
        if proc.returncode != 0:
            sample["problems"] = [f"exit code {proc.returncode}"]
            return sample
        try:
            report = json.loads((self.out / self.workload.report).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            sample["problems"] = [f"unreadable report: {exc}"]
            return sample
        sample["problems"] = self.workload.check(report)
        sample["ok"] = True
        return sample


def layer_metrics(trace: dict, wall_median: float) -> dict:
    metrics = {}
    for name, value in trace["self_time"].items():
        metrics[name] = (value, "s")
    for name, value in trace["peak_mb"].items():
        metrics[name] = (value, "MiB")
    for name, value in trace["counts"].items():
        metrics[name] = (value, "bytes" if "bytes" in name else "count")
    for layer, value in trace["layer_self_s"].items():
        metrics[f"layer.{layer}_self_s"] = (value, "s")
    for owner, growth in trace["rss_growth_mb"].items():
        metrics[f"layer.{owner}_rss_growth_mb"] = (growth, "MiB")
    traced_wall = trace["spans"]["cli.run"]["total_s"]
    named = sum(v for k, v in trace["self_time"].items()
                if k != "cli.load_config_s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - wall_median, "s")
    metrics["trace.covered_share"] = (100.0 * named / traced_wall, "%")
    return metrics


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "korn_kit" / "__init__.py").is_file():
        print(f"no korn_kit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    threads = thread_count()
    env_info = environment(threads)
    work = HERE / "_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = workload.make_inputs(work, args.seed)
    runner = Runner(workload, work, config, child_env(threads),
                    started + DEADLINE_S)

    begin = time.perf_counter()
    warmup = runner.round()
    samples, durations = [], [time.perf_counter() - begin]
    # whole rounds only; the warm-up counts towards the run's length
    while len(samples) < MIN_ROUNDS or (time.perf_counter() - begin
                                        + statistics.median(durations)
                                        <= args.seconds):
        start = time.perf_counter()
        samples.append(runner.round())
        durations.append(time.perf_counter() - start)
    trace = None
    if args.trace:
        trace_file = work / "trace.json"
        traced = runner.round(trace_out=trace_file)
        samples.append({**traced, "traced": True})
        if traced.get("ok"):
            trace = json.loads(trace_file.read_text())

    timed = [s for s in samples if s.get("ok") and not s.get("traced")]
    failed = sum(1 for s in samples if not s.get("ok"))
    correct = all(not s["problems"] for s in samples if s.get("ok")) and \
        bool(timed) and (not args.trace or trace is not None)
    for i, s in enumerate([warmup] + samples):
        for problem in s.get("problems", []):
            print(f"run {i}: {problem}", file=sys.stderr)

    metrics = {}
    if timed:
        wall = statistics.median(s["wall_s"] for s in timed)
        if args.trace and trace is not None:
            metrics = layer_metrics(trace, wall)
        elif not args.trace:
            metrics = {
                "wall_s": (wall, "s"),
                "setup_s": (statistics.median(s["setup_s"] for s in timed), "s"),
                "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in timed),
                                "MiB"),
            }

    print(f"workload {workload.name} seed {args.seed}: {len(timed)} timed runs, "
          f"threads {threads}, python {env_info['python']}, numpy "
          f"{env_info['numpy']}, scipy {env_info['scipy']}, blas "
          f"{env_info['blas'].get('name')} {env_info['blas'].get('version')}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"attempted {len(samples)} failed {failed}")

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env_info, "warmup": warmup, "samples": samples,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "spans": trace["spans"] if trace else None}
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1))

    print(json.dumps({"correct": correct, "attempted": len(samples),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
