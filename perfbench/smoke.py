"""The benchmark's own smoke test, at tiny sizes.

Usage, from the root of a checkout::

    python3 perfbench/smoke.py

Checks that every workload, untraced and traced, prints every metric of
``BENCHMARK.json`` with its unit; that each per-layer metric is measured on
every workload whose layer it covers; that each artifact describes its host,
seed and configuration; that no process a run started outlives it; that a
corrupted answer fails the run; and that the benchmark refuses to run
without the program's source.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys

from common import OUT, ROOT, descendants
from metrics import PER_LAYER_SCOPE, WORKLOADS, load_spec

SEED = 3
SECONDS = 2


#: ``prctl`` option that makes this process adopt its orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36


def _adopt_orphans() -> None:
    """Make every process a run leaves behind a child of this one, even if it
    ends at once: it then stays a zombie until :func:`_reap_orphans`."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _reap_orphans() -> list[int]:
    """Kill and reap the processes a finished run left behind; return their pids."""
    orphans = descendants(os.getpid())
    for pid in orphans:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in orphans:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return orphans


def _run(workload: str, trace: int, *extra: str, cwd=ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
               "--seconds", str(SECONDS), "--trace", str(trace), "--scale", "tiny", *extra]
    result = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)
    leftover = _reap_orphans()
    if leftover:
        _fail(f"{workload} trace={trace}: processes {leftover} outlived the run", result)
    return result


def _fail(message: str, result: "subprocess.CompletedProcess | None" = None) -> None:
    if result is not None:
        sys.stderr.write(result.stdout[-2000:] + result.stderr[-4000:])
    raise SystemExit(f"smoke: FAILED: {message}")


def _check_run(spec: dict, workload: str, trace: int) -> None:
    result = _run(workload, trace)
    if result.returncode != 0:
        _fail(f"{workload} trace={trace} exited {result.returncode}", result)
    line = json.loads(result.stdout.strip().splitlines()[-1])
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        _fail(f"{workload}: result keys {sorted(line)}")
    if line["correct"] is not True or line["attempted"] < 1:
        _fail(f"{workload}: not correct or nothing attempted", result)
    kind = "per_layer" if trace else "end_to_end"
    expected = {metric["name"]: metric["unit"] for metric in spec[kind]}
    got = {name: metric["unit"] for name, metric in line["metrics"].items()}
    if got != expected:
        _fail(f"{workload} trace={trace}: metrics or units differ from BENCHMARK.json")
    artifact = json.loads((OUT / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    for key in ("nproc", "python", "numpy", "posting_backend", "source_sha256",
                "reference_kernel_median_ms"):
        if key not in artifact["host"]:
            _fail(f"{workload}: artifact host lacks {key!r}")
    if artifact["seed"] != SEED or not artifact["config"]:
        _fail(f"{workload}: artifact lacks its seed or configuration")
    for name in expected:
        detail = artifact["metrics"][name]
        if trace and workload in PER_LAYER_SCOPE[name] and detail["form"] == "not_crossed":
            _fail(f"{workload}: per-layer metric {name!r} was not measured")
        if not trace and not detail["value"] > 0:
            _fail(f"{workload}: end-to-end metric {name!r} reads {detail['value']}")
        if detail["form"] != "not_crossed" and "samples" not in detail and name.endswith(
                ("_ms", ".p50", ".p99", "_s", "qps")):
            _fail(f"{workload}: timing {name!r} has no sample count")
    print(f"smoke: {workload} trace={trace}: ok")


def _check_corrupt() -> None:
    result = _run("paper-cold", 0, "--corrupt")
    if result.returncode == 0:
        _fail("a corrupted answer did not fail the run", result)
    line = json.loads(result.stdout.strip().splitlines()[-1])
    if line["correct"] is not False:
        _fail("a corrupted answer was reported correct", result)
    print("smoke: corrupted answer fails the run: ok")


def _check_without_program() -> None:
    bare = OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        result = _run("paper-cold", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if result.returncode == 0 or result.stdout.strip():
        _fail("the benchmark ran without the program's source", result)
    print("smoke: refuses to run without the program: ok")


def main() -> int:
    spec = load_spec()
    _adopt_orphans()
    for workload in WORKLOADS:
        for trace in (0, 1):
            _check_run(spec, workload, trace)
    _check_corrupt()
    _check_without_program()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
