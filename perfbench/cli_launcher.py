"""Run one nilbch command with tracing on.

    python3 perfbench/cli_launcher.py OUT SPAWNED ARG...

runs `nilbch ARG...` and, when OUT is not "-", writes the spans to OUT as one
JSON document at exit. SPAWNED is the parent's time.perf_counter() just before
it started this process; on Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so startup_s covers interpreter start and imports up to the call of
nilbch.cli.main.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> int:
    out, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    cli = importlib.import_module("nilbch.cli")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    startup_s = time.perf_counter() - spawned
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        if out != "-":
            doc = {
                "startup_s": startup_s,
                "spans": [tracing.span_json(s) for s in tracer.spans],
                "counts": dict(tracer.counts),
                "memo": tracing.memo_entries(),
            }
            Path(out).write_text(json.dumps(doc))


if __name__ == "__main__":
    sys.exit(main())
