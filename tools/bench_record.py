"""Write BENCH_<tag>.json at the repository root: one point of the perf trajectory.

    python3 tools/bench_record.py TAG [--checkout DIR]

Runs perfbench/run.py of this repository 3 times per workload (seed 901,
8 seconds, trace off) and keeps the median wall_s, setup_s and peak_rss_mb
over those runs with each run's value beside it (under "runs", in run
order, so a bimodal metric shows both modes), the attempted and failed
counts, the exit codes, run.py's environment line, and whether the korn_kit
bytecode was valid beforehand (without it every process compiles the
sources: setup_s and peak_rss_mb rise).
With --checkout, each run alternates with one of DIR, another checkout such
as the parent commit, recorded as BENCH_<tag>_parent.json: the box's speed
drifts over minutes, and alternating gives both points the same drift.
"""
import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SEED, SECONDS, REPEAT = 901, 8, 3


def bytecode_valid(checkout: Path) -> bool:
    """Whether each src/korn_kit/*.py has a timestamp .pyc matching its mtime and size."""
    for source in (checkout / "src" / "korn_kit").glob("*.py"):
        pyc, st = Path(importlib.util.cache_from_source(str(source))), source.stat()
        stamp = [int(st.st_mtime) & 0xFFFFFFFF, st.st_size & 0xFFFFFFFF]
        head = pyc.read_bytes()[:16] if pyc.is_file() else b""
        if head != importlib.util.MAGIC_NUMBER + bytes(4) + b"".join(
                v.to_bytes(4, "little") for v in stamp):
            return False
    return True


def run(checkout: Path, workload: str):
    """(exit code, last JSON line, environment line) of one run.py run."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    env = next((line for line in lines if line.startswith("workload ")), None)
    return done.returncode, json.loads(lines[-1]) if lines else {}, env


def summary(runs) -> dict:
    codes, lasts, envs = zip(*runs)
    values = {m: [r["metrics"][m]["value"] for r in lasts if m in r.get("metrics", {})]
              for m in ("wall_s", "setup_s", "peak_rss_mb")}
    entry = {m: statistics.median(v) if v else None for m, v in values.items()}
    entry.update(runs=values, attempted=sum(r.get("attempted", 0) for r in lasts),
                 failed=sum(r.get("failed", 0) for r in lasts),
                 exit_codes=list(codes), environment=next(filter(None, envs), None))
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tag")
    parser.add_argument("--checkout", type=Path)
    args = parser.parse_args()
    sides = {args.tag: HERE}
    if args.checkout:
        sides[f"{args.tag}_parent"] = args.checkout.resolve()
    records = {tag: {"seed": SEED, "seconds": SECONDS, "repeat": REPEAT,
                     "bytecode_valid": bytecode_valid(path), "workloads": {}}
               for tag, path in sides.items()}
    for workload in json.loads((HERE / "BENCHMARK.json").read_text())["workloads"]:
        runs = {tag: [] for tag in sides}
        for i in range(REPEAT):
            for tag in list(sides)[::(-1) ** i]:
                runs[tag].append(run(sides[tag], workload["name"]))
        for tag, record in records.items():
            record["workloads"][workload["name"]] = summary(runs[tag])
    for tag, record in records.items():
        (HERE / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return int(any(code for record in records.values()
                   for w in record["workloads"].values() for code in w["exit_codes"]))


if __name__ == "__main__":
    sys.exit(main())
