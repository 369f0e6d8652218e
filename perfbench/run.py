"""The nilbch benchmark: one seeded workload, with tracing off or on.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from anywhere in a checkout; it runs nilbch from the checkout's src/
without an install, and exits with code 2 when that is missing. Every
process it starts runs one at a time and is waited for.

--trace 0 times the workload: set-up in SETUP_SAMPLES fresh interpreters,
and rounds of the batch for S seconds in one of them, every time scaled to
a fixed speed by a reference timed beside it (reference.py). --trace 1
runs the workload with spans around the calls into nilbch and reports the
per-layer metrics instead. The last line of stdout is one JSON object; a fuller
record, with the git sha, Python version, CPU count and nilbch.BACKEND, goes
to perfbench/results/W-seedN-traceT.json and the spans of a traced run to
perfbench/results/trace-W-seedN.jsonl.gz, one JSON object per line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("group-law", "sum-word", "growth", "cli")
# set-up samples per untraced run, reported as their median
SETUP_SAMPLES = 11
TIME_LIMIT_S = 170


class BenchError(Exception):
    pass


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stop(proc) -> None:
    """Kill a worker and the commands it started (its process group) and wait."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"no result within {TIME_LIMIT_S} s")
        return left

    def start_worker(self, *extra: str):
        """Start a worker and return it with its set-up time: from before the
        interpreter starts to its "ready" line."""
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", str(a.trace), *extra]
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=self.env, cwd=ROOT, bufsize=0, start_new_session=True
        )
        try:
            readable, _, _ = select.select([proc.stdout], [], [], self.remaining())
            line = proc.stdout.readline() if readable else b""
            if line.strip() != b"ready":
                raise BenchError(f"worker did not get ready: {line!r}")
        except BaseException:
            stop(proc)
            raise
        return proc, time.perf_counter() - t0

    def finish(self, proc) -> bytes:
        try:
            out, _ = proc.communicate(timeout=self.remaining())
        except BaseException:
            stop(proc)
            raise
        if proc.returncode:
            raise BenchError(f"worker exited with {proc.returncode}")
        return out

    def run(self) -> dict:
        a = self.args
        setup: list = []
        extra = ["--trace-out", str(RESULTS / f"trace-{a.workload}-seed{a.seed}.jsonl.gz")] if a.trace else []
        probes = 0 if a.trace else SETUP_SAMPLES - 1
        # half the probes before the timed run and half after, so that the
        # samples span the run as the rounds do
        self.probe(probes // 2, setup)
        proc, t = self.start_worker(*extra)
        lines = self.finish(proc).decode().strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        res = json.loads(lines[-1])
        setup.append((t, res["setup_reference_s"]))
        self.probe(probes - probes // 2, setup)
        res["setup_wall_s"] = [t for t, _ in setup]
        res["setup_samples_s"] = [reference.scaled(t, ref) for t, ref in setup]
        return res

    def probe(self, n: int, samples: list) -> None:
        """n set-up samples, each as (wall time, the worker's timings of
        reference.work right after it)."""
        for _ in range(n):
            proc, t = self.start_worker("--probe")
            out = self.finish(proc).decode().strip().splitlines()
            if not out:
                raise BenchError("probe printed no timings")
            samples.append((t, json.loads(out[-1])["setup_reference_s"]))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "nilbch" / "__init__.py").is_file():
        print(f"no nilbch source tree at {ROOT / 'src' / 'nilbch'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import tracing

    RESULTS.mkdir(exist_ok=True)
    try:
        res = Runner(args).run()
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {n: {"value": res["layers"][n], "unit": u} for n, (u, _) in tracing.LAYER_METRICS.items()}
    else:
        values = {
            "setup_s": median(res["setup_samples_s"]),
            "run_s": res["run_s"],
            "op_p50_ms": res["op_p50_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    line = {"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "backend": res["backend"],
        **line,
        **{
            k: res[k]
            for k in (
                "errors", "rounds", "run_s", "run_wall_s", "reference_ms", "round_s", "op_ms_by_label",
                "setup_samples_s", "setup_wall_s",
            )
        },
    }
    if args.trace:
        untraced = RESULTS / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.is_file():
            record["tracing_overhead_s"] = res["run_s"] - json.loads(untraced.read_text())["run_s"]
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    for err in res["errors"]:
        print(f"FAILED: {err}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
