"""One fresh interpreter: import nilbch, warm up, print "ready", then run the
workload's batch in rounds until --seconds have passed, and print one JSON
line with the timings, the peak memory and the checked outcome.

With --probe it stops after "ready" and the timings of reference.work that
follow it; run.py times up to "ready" as one set-up sample and scales it by
those timings, taken in the process and on the CPU that did the set-up.
Before "ready" it imports only nilbch, what nilbch imports anyway, and
workloads.py; the benchmark's other modules load after it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def spread(ops: list) -> list:
    """Order the batch so that each kind of operation (each label) is spread
    evenly over the round; a drift in machine speed then touches every kind
    alike instead of the few that ran during it."""
    count = Counter(op.label for op in ops)
    seen: Counter = Counter()
    keyed = []
    for i, op in enumerate(ops):
        keyed.append(((seen[op.label] + 0.5) / count[op.label], i, op))
        seen[op.label] += 1
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


def run_rounds(wl, ops: list, seconds: float, tracer, speed):
    """Closed loop: each operation starts when the previous one has returned.
    Whole rounds only, at least one. Timings of the reference go between
    operations, at least every reference.SAMPLE_EVERY_S seconds and after
    each round, so that every operation has some on both sides."""
    first = None
    round_s, op_s = [], []
    failed_later = 0
    deadline = time.perf_counter() + seconds
    while True:
        outs = []
        start = time.perf_counter()
        for op in ops:
            speed.sample_if_due()
            t0 = time.perf_counter()
            try:
                out = (op.fn(), None)
            except Exception as e:  # an operation that raises counts as failed
                out = (None, f"{op.label} raised {type(e).__name__}: {e}")
            op_s.append((t0, time.perf_counter() - t0))
            outs.append(out)
        round_s.append(time.perf_counter() - start)
        speed.sample()
        if tracer is not None and tracer.recording:
            import tracing

            tracer.recording = False
            tracer.memo = tracing.memo_entries()
        captured = [wl.capture(op, r) if err is None else err for op, (r, err) in zip(ops, outs)]
        if first is None:
            first = (outs, captured)
        else:
            # a later round must repeat the first round's answers exactly
            failed_later += sum(
                1 for (_, err), c, c0 in zip(outs, captured, first[1]) if err is not None or c != c0
            )
        if time.perf_counter() >= deadline:
            return first, round_s, op_s, failed_later


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-out", help="where the traced run writes its spans")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    M = workloads.import_nilbch()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    wl = workloads.WORKLOADS[args.workload](M, args.seed, tracer)
    wl.setup()
    print("ready", flush=True)
    import reference

    setup_speed = reference.Speed()
    setup_speed.sample(reference.SETUP_SAMPLES)
    if args.probe:
        print(json.dumps({"setup_reference_s": setup_speed.durations}))
        return 0
    import resource
    from statistics import median

    ops = spread(wl.make_ops())
    speed = setup_speed if wl.in_process else reference.ProcessSpeed()
    (outs, captured), round_s, op_s, failed = run_rounds(wl, ops, args.seconds, tracer, speed)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    # checks of the first round's answers, outside the timed region
    errors, extra = [], {}
    for i, (_, err) in enumerate(outs):
        if err is None:
            try:
                wl.check(i, ops, captured, extra)
            except Exception as e:  # a checker that cannot read the answer rejects it
                err = f"{ops[i].label}: {type(e).__name__}: {e}"
        if err is not None:
            errors.append(err)
    rounds = len(round_s)
    failed += len(errors)
    # each operation at its median over the rounds, each timing scaled to the
    # reference speed by the timings of the reference beside it
    times: dict = {}
    wall: dict = {}
    for i, (t0, t) in enumerate(op_s):
        key = id(ops[i % len(ops)])
        times.setdefault(key, []).append(t * speed.scale(t0, t0 + t))
        wall.setdefault(key, []).append(t)
    typical = {key: median(ts) for key, ts in times.items()}
    by_label: dict = {}
    for op in ops:
        by_label.setdefault(op.label, []).append(typical[id(op)] * 1e3)
    result = {
        "attempted": rounds * len(ops),
        "failed": failed,
        "errors": errors[:10],
        "rounds": rounds,
        "run_s": sum(typical.values()),
        "run_wall_s": sum(median(ts) for ts in wall.values()),
        "reference_ms": median(speed.durations) * 1e3,
        "setup_reference_s": setup_speed.durations[: reference.SETUP_SAMPLES],
        "round_s": round_s,
        "op_p50_ms": median(typical.values()) * 1e3,
        "op_ms_by_label": {k: median(v) for k, v in by_label.items()},
        "peak_rss_mb": peak_rss_mb,
        "backend": M.pkg.BACKEND,
    }
    if tracer is not None:
        extra["op_ms_by_label"] = result["op_ms_by_label"]
        result["layers"] = finish_trace(wl, tracer, extra, args.trace_out)
    print(json.dumps(result))
    return 0


def finish_trace(wl, tracer, extra: dict, out: str) -> dict:
    """Write the spans of the set-up pass and the first round (for cli, of
    its traced children), and return the per-layer metrics they give."""
    import gzip

    import tracing

    spans, counts, memo = tracer.spans, tracer.counts, tracer.memo
    if wl.name == "cli":
        spans, counts, memo, extra["cli_startup_s"] = [], {}, {}, []
        for k, path in enumerate(wl.trace_files, start=1):
            child = json.loads(path.read_text())
            path.unlink()
            base = k * 10**9
            for s in child["spans"]:
                parent = s["parent"] + base if s["parent"] else 0
                spans.append((s["id"] + base, parent, s["name"], s["start"], s["dur"], s["self"], s["tag"]))
            for name, n in child["counts"].items():
                counts[name] = counts.get(name, 0) + n
            for mod, n in child["memo"].items():
                memo[mod] = max(memo.get(mod, 0), n)
            extra["cli_startup_s"].append(child["startup_s"])
    with gzip.open(out, "wt") as fh:
        for s in spans:
            fh.write(json.dumps(tracing.span_json(s)) + "\n")
    return tracing.layer_metrics(spans, counts, memo, extra)


if __name__ == "__main__":
    sys.exit(main())
