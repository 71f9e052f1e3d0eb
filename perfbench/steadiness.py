"""Steadiness report: run a workload k times; compare each end-to-end metric's spread to its bound.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --workload paper-cold --runs 5 --seed 1 --holdout-seed 1001

Runs ``perfbench/run.py`` ``--runs`` times on ``--seed`` (or on ``--seed``,
``--seed + 1``, ... with ``--vary-seeds``), then once on ``--holdout-seed``.
For each metric it prints the median, the quartiles (``statistics.quantiles``
with ``n=4``), the spread ``(q3 - q1) / median`` against the metric's bound
in ``BENCHMARK.json``, and the held-out run's value as a share of the median.
For host-normalized metrics it also prints the spread of the raw values, so
the choice of form can be re-checked.  Exits 1 when a bounded metric's
spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import OUT, ROOT
from metrics import load_spec


def _run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if result.returncode != 0:
        sys.stderr.write(result.stdout + result.stderr)
        raise SystemExit(f"run failed: {' '.join(command)}")
    line = json.loads(result.stdout.strip().splitlines()[-1])
    artifact = json.loads((OUT / f"{workload}-seed{seed}-trace0.json").read_text())
    return line["metrics"], artifact["metrics"]


def _spread(values: list) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--holdout-seed", type=int, default=1001)
    parser.add_argument("--vary-seeds", action="store_true",
                        help="use seeds seed, seed+1, ... (how the acceptance check runs)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bounds = {metric["name"]: metric.get("bound") for metric in spec["end_to_end"]}
    values: dict[str, list] = {}
    raw: dict[str, list] = {}
    for number in range(args.runs):
        seed = args.seed + number if args.vary_seeds else args.seed
        line, detail = _run(args.workload, seed, args.seconds)
        for name, metric in line.items():
            values.setdefault(name, []).append(metric["value"])
            if "raw" in detail.get(name, {}):
                raw.setdefault(name, []).append(detail[name]["raw"])
        print(f"run {number + 1}/{args.runs} seed {seed}: done", file=sys.stderr)
    holdout, _ = _run(args.workload, args.holdout_seed, args.seconds)

    print(f"{args.workload}: {args.runs} runs, seeds "
          f"{'varied from ' if args.vary_seeds else ''}{args.seed}, "
          f"held-out seed {args.holdout_seed}")
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
          f"{'bound':>6} {'raw spr':>8} {'held-out':>9}")
    failed = False
    for name, series in values.items():
        median, q1, q3, spread = _spread(series)
        bound = bounds.get(name)
        raw_spread = f"{_spread(raw[name])[3]:8.3f}" if len(raw.get(name, ())) > 1 else " " * 8
        share = holdout[name]["value"] / median if median else float("nan")
        verdict = ""
        if bound is not None and name != "setup_s":
            verdict = "steady" if spread < bound / 3 else ("ok" if spread <= bound else "NOISY")
            failed |= spread > bound
        print(f"{name:40} {median:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} "
              f"{bound if bound is not None else '':>6} {raw_spread} {share:9.3f} {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
