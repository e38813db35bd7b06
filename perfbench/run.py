#!/usr/bin/env python3
"""The repository benchmark: one seeded workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig13-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` repeats the measured loop with spans installed around each layer and
reports the per-layer metrics (every metric of ``common.PER_LAYER``; a
layer the workload does not exercise reads 0).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output check passed.

Scratch files (daemon sockets and stores, C builds) live in
``.perfbench_work/`` and are removed at exit; traced runs write their
spans to ``.perfbench_out/``.  Both are inside the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE_ROOT = os.path.join(os.getcwd(), "src")
sys.path.insert(0, HERE)

WORKLOADS = ("fig13-cold", "fleet-serve", "sim-run")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--perturb-reference",
        action="store_true",
        help="corrupt one reference value (the self-check proves it is caught)",
    )
    return parser.parse_args(argv)


def _terminate(signum, _frame):
    # Turn SIGTERM into SystemExit so every ``finally`` reaps its children.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    arguments = parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE_ROOT, "repro", "__init__.py")):
        print(f"error: no program sources under {SOURCE_ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE_ROOT)
    os.environ["PYTHONPATH"] = SOURCE_ROOT
    signal.signal(signal.SIGTERM, _terminate)
    # One CPU for the benchmark and its children: the speed gauge then
    # reads the same core the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    work_root = os.path.join(os.getcwd(), ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{arguments.workload}-", dir=work_root)
    out_dir = os.path.join(os.getcwd(), ".perfbench_out")
    out_path = os.path.join(
        out_dir, f"spans-{arguments.workload}-seed{arguments.seed}.jsonl"
    )
    # The C toolchain and the program's temp directories follow TMPDIR, so
    # nothing is written outside the checkout.
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    try:
        if arguments.trace:
            os.makedirs(out_dir, exist_ok=True)
        if arguments.workload == "fig13-cold":
            import fig13 as workload
        elif arguments.workload == "fleet-serve":
            import fleet as workload
        else:
            import sim as workload
        from common import END_TO_END, PER_LAYER

        outcome, measured, notes = workload.run(
            arguments.seed,
            arguments.seconds,
            bool(arguments.trace),
            arguments.perturb_reference,
            out_path,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(work_root):
            os.rmdir(work_root)

    table = PER_LAYER if arguments.trace else END_TO_END
    unknown = sorted(set(measured) - set(table))
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in table.items()
    }
    for note in notes + outcome.messages:
        print(note, file=sys.stderr)
    if unknown:
        print(f"note: unreported measurements {unknown}", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
