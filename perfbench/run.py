"""Run one benchmark workload and print its metrics as the last line of stdout.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json`` from an
untraced run; ``--trace 1`` prints the per-layer metrics from a traced run.
Every run also writes a self-describing artifact to
``perfbench/out/<workload>-seed<N>-trace<T>.json``.  The exit code is 0 only
when every answer the program gave matched the benchmark's own.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import sys
import tempfile
import time

from common import OUT, ROOT, SRC, HostSpeed, fingerprint, stop_descendants, write_artifact
from metrics import WORKLOADS, Report, load_spec

_MODULES = {
    "paper-cold": "paper_cold",
    "serve-hot": "serve_hot",
    "ingest-sharded": "ingest_sharded",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="'tiny' shrinks every input for the smoke test",
    )
    parser.add_argument(
        "--corrupt", action="store_true",
        help="damage one answer before it is checked (the run must fail)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}

    # A terminated run still unwinds, so servers and workers are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    report = Report(args.workload, corrupt=args.corrupt)
    module = importlib.import_module(_MODULES[args.workload])
    started = time.time()
    # Temporary files of this process and its children stay in the checkout.
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(scratch)
    speed = HostSpeed()
    try:
        module.run(args, report, speed)
    finally:
        stopped = stop_descendants()
        shutil.rmtree(scratch, ignore_errors=True)
    if stopped:
        print(f"perfbench: stopped leftover processes {stopped}", file=sys.stderr)
    values = report.emitted(list(units))

    artifact = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "started_at": started,
        "wall_seconds": time.time() - started,
        "host": {**fingerprint(), **speed.describe()},
        "config": report.config,
        "attempted": report.attempted,
        "failed": report.failed,
        "answers_checked": report.checked_answers,
        "wrong_answers": report.wrong_answers,
        "metrics": {
            name: {**report.detail[name], "unit": units.get(name)}
            for name in sorted(report.detail)
        },
        "not_crossed": sorted(
            name for name in values if report.detail[name]["form"] == "not_crossed"
        ),
    }
    path = write_artifact(f"{args.workload}-seed{args.seed}-trace{args.trace}", artifact)
    print(f"artifact: {path.relative_to(ROOT)}")
    if not report.correct:
        print(
            f"perfbench: {report.wrong_answers} of {report.checked_answers} answers "
            "differ from the expected ones",
            file=sys.stderr,
        )
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
