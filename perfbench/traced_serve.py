"""Run ``repro serve`` with the benchmark's spans installed in the daemon.

Usage: ``python3 perfbench/traced_serve.py SPANS_PREFIX serve ARGS...``.
When the daemon exits, its spans are written to ``SPANS_PREFIX.jsonl`` and
their per-layer self times and counts to ``SPANS_PREFIX.summary.json``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402


def main() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    from repro.cli import main as cli_main

    tracer = Tracer()
    tracer.install()
    try:
        return cli_main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(prefix + ".jsonl")
        with open(prefix + ".summary.json", "w", encoding="utf-8") as handle:
            json.dump(
                {"self_times": tracer.self_times(), "counts": tracer.counts()}, handle
            )


if __name__ == "__main__":
    sys.exit(main())
