#!/usr/bin/env python3
"""Self-check of the benchmark itself (not of the program).

Run from the root of a checkout::

    python3 perfbench/selfcheck.py

It checks that

* ``BENCHMARK.json`` lists exactly the metrics, with the units, that
  ``run.py`` prints, within the limits the benchmark format sets;
* every workload prints every metric with its unit, in both modes;
* count metrics repeat exactly on two runs with the same seed;
* a perturbed reference is counted as a failed operation and makes the
  exit code non-zero, so output checks cannot pass silently;
* without the program's sources the benchmark exits non-zero and prints
  no result.

Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import END_TO_END, PER_LAYER  # noqa: E402

SECONDS = "2"
SEED = "7"
#: counts that must repeat exactly for one seed, per mode
COUNTS = {
    "0": ("emitted_bytes",),
    "1": (
        "codegen.ir_builds",
        "bdd.nodes",
        "service.units_compiled",
        "daemon.memory_hits",
        "daemon.store_hits",
        "daemon.compiles",
    ),
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload: str, trace: str, *extra: str, cwd: str = ".") -> tuple:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", SEED, "--seconds", SECONDS,
        "--trace", trace, *extra,
    ]
    done = subprocess.run(command, capture_output=True, text=True, cwd=cwd, timeout=180)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result, done.stderr


def check_manifest(failures: list) -> list:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {entry["name"]: entry["unit"] for entry in manifest[key]}
        if listed != table:
            failures.append(f"BENCHMARK.json {key} differs from common.py")
        for entry in manifest[key]:
            if not NAME.match(entry["name"]) or not UNIT.match(entry["unit"]):
                failures.append(f"bad name or unit: {entry}")
    for entry in manifest["workloads"]:
        if len(entry["why"]) > 200 or "\n" in entry["why"]:
            failures.append(f"workload {entry['name']}: 'why' is not one short line")
    bounds = {entry["name"]: entry["bound"] for entry in manifest["end_to_end"]}
    if max(bounds.values()) > 0.25 or bounds["setup_s"] < max(bounds.values()):
        failures.append("bounds must be <= 0.25 with setup_s the largest")
    return [entry["name"] for entry in manifest["workloads"]]


def check_workload(workload: str, failures: list) -> None:
    for trace, table in (("0", END_TO_END), ("1", PER_LAYER)):
        first = run(workload, trace)
        second = run(workload, trace)
        for code, result, stderr in (first, second):
            if code != 0 or result is None or not result["correct"]:
                failures.append(f"{workload} --trace {trace}: failed run\n{stderr[-1500:]}")
                return
            units = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if units != table:
                failures.append(f"{workload} --trace {trace}: metric names or units differ")
        for name in COUNTS[trace]:
            values = [run_[1]["metrics"][name]["value"] for run_ in (first, second)]
            if values[0] != values[1]:
                failures.append(f"{workload}: count {name} did not repeat: {values}")
    code, result, _stderr = run(workload, "0", "--perturb-reference")
    if code == 0 or result is None or result["failed"] == 0 or result["correct"]:
        failures.append(f"{workload}: a perturbed reference was not counted as failed")


def check_bare_directory(workload: str, failures: list) -> None:
    """Only BENCHMARK.json and the benchmark's files: no result, non-zero exit."""
    scratch = os.path.join(os.getcwd(), ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="selfcheck-bare-", dir=scratch)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", SEED,
             "--seconds", SECONDS, "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
        if done.returncode == 0 or '"correct"' in done.stdout:
            failures.append("a directory without the program's sources printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not os.listdir(scratch):
            os.rmdir(scratch)


def main() -> int:
    failures: list = []
    workloads = check_manifest(failures)
    for workload in workloads:
        check_workload(workload, failures)
        print(f"{workload}: checked", flush=True)
    check_bare_directory(workloads[0], failures)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("self-check", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
