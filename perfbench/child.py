"""One experiment in one fresh process, as a user runs it.

    python3 child.py --experiment NAME --config CFG --out DIR [--trace-out FILE]

Imports korn_kit from the checkout's ``src/``, loads the run config, calls
``cli.run`` and prints one JSON line with two CLOCK_MONOTONIC stamps
(``time.perf_counter``), taken once the config is loaded and once
``cli.run`` has returned, plus its exit code.  The parent compares the
first stamp with its own stamp from just before it started this process.
With ``--trace-out`` the public functions are wrapped by ``tracer`` first,
and the span summary is written to that file.
"""

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--experiment", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    src = Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))
    from korn_kit import cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"korn_kit was imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    recorder = None
    if args.trace_out:
        import tracer
        recorder = tracer.install()
    config = cli.load_config(args.experiment, args.config, out=args.out)
    ready = time.perf_counter()
    code = cli.run(config)
    done = time.perf_counter()
    if recorder is not None:
        Path(args.trace_out).write_text(json.dumps(recorder.summary(), indent=1))
    print(json.dumps({"ready": ready, "done": done, "code": code}))
    return code


if __name__ == "__main__":
    sys.exit(main())
