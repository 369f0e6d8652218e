"""Spans around the calls into nilbch's modules, recorded from outside them.

`install` replaces each traced function at every nilbch module attribute
that holds it, so calls between modules (`series.mul_trunc` from bch,
`mat_mul` imported into growth) and calls through a module's own globals
are all seen. Spans stay in memory; the worker writes them out once at the
end and turns them into the per-layer metrics with `layer_metrics`.

A span is (id, parent id or 0, name, start, duration, self time, tag). Self
time is the duration minus the time of the span's direct children.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from statistics import median


def _mul_trunc_tag(p, q, step):
    """(term pairs visited, pairs whose product fits under the step)."""
    lp, lq = defaultdict(int), defaultdict(int)
    for w in p:
        lp[len(w)] += 1
    for w in q:
        lq[len(w)] += 1
    kept = sum(n1 * n2 for a, n1 in lp.items() for b, n2 in lq.items() if a + b <= step)
    return (len(p) * len(q), kept)


def _bch_tag(x, y):
    return (x.ctx.num_generators, x.ctx.step)


def _mat_mul_tag(a, b):
    return (len(a.rows), id(a), id(b))


# module -> functions wrapped there, with an optional tagger: those that
# layer_metrics reads, and the whole public group and jsonio APIs, whose self
# times it sums. A function left out adds its time to its caller's self time.
TRACED = {
    "series": {"mul_trunc": _mul_trunc_tag, "exp_truncated": None, "log_truncated": None},
    "algebra": {"bracket_coords": None, "rightnormed_decomposition": None},
    "bch": {"bch": _bch_tag},
    "group": {
        name: None
        for name in (
            "mul",
            "inverse",
            "rational_power",
            "conjugate",
            "commutator",
            "nested_commutator",
            "evaluate_word",
        )
    },
    "identities": {"extract_bracket": None, "sum_word": None},
    "words": {"evaluate_word": None},
    "matrices": {"mat_mul": _mat_mul_tag, "mat_inverse": None, "mat_power": None, "mat_log": None},
    "growth": {
        name: None
        for name in (
            "generate_ball",
            "product_set",
            "powers_up_to",
            "find_cover",
            "check_sum_containment",
            "compute_B_chain",
            "check_commutator_containment",
        )
    },
    "verify": {"run_suite": None},
    "jsonio": {
        name: None
        for name in ("lie_to_json", "lie_from_json", "table_to_json", "rational_str", "parse_rational")
    },
}


# every per-layer metric: (unit, which way is better)
LAYER_METRICS = {
    "series.mul_trunc.calls": ("count", "lower"),
    "series.mul_trunc.self_s": ("s", "lower"),
    "series.mul_trunc.kept_ratio": ("ratio", "higher"),
    "series.exp_log.self_s": ("s", "lower"),
    "algebra.bracket_coords.calls": ("count", "lower"),
    "algebra.bracket_coords.self_s": ("s", "lower"),
    "algebra.rightnormed_decomposition.self_s": ("s", "lower"),
    "algebra.memo_entries": ("count", "lower"),
    "bch.bch.calls": ("count", "lower"),
    "bch.bch.self_s": ("s", "lower"),
    **{f"bch.call_ms.{k}": ("ms", "lower") for k in ("g2s3", "g2s4", "g2s5", "g2s6", "g3s3", "g3s4")},
    "bch.rho_entries": ("count", "lower"),
    "group.mul.calls": ("count", "lower"),
    "group.commutator.calls": ("count", "lower"),
    "group.self_s": ("s", "lower"),
    "identities.extract_bracket.self_s": ("s", "lower"),
    "identities.extract_bracket.bch_per_call": ("count", "lower"),
    "identities.sum_word.synth_s": ("s", "lower"),
    "identities.memo_entries": ("count", "lower"),
    "words.evaluate_word.self_s": ("s", "lower"),
    "words.ops_mul_calls": ("count", "lower"),
    "words.ops_power_calls": ("count", "lower"),
    "matrices.mat_mul.calls": ("count", "lower"),
    "matrices.mat_mul.self_s": ("s", "lower"),
    "matrices.mat_mul.us_per_call.dim3": ("us", "lower"),
    "matrices.mat_mul.us_per_call.dim5": ("us", "lower"),
    "matrices.mat_log.calls": ("count", "lower"),
    "matrices.mat_log.self_s": ("s", "lower"),
    "matrices.mat_power.self_s": ("s", "lower"),
    "matrices.mat_inverse.calls": ("count", "lower"),
    "growth.find_cover.self_s": ("s", "lower"),
    "growth.find_cover.products": ("count", "lower"),
    "growth.find_cover.distinct_ratio": ("ratio", "higher"),
    "growth.check_sum_containment.self_s": ("s", "lower"),
    "growth.check_sum_containment.logs_per_target": ("count", "lower"),
    **{
        f"growth.{f}.self_s": ("s", "lower")
        for f in ("powers_up_to", "product_set", "generate_ball", "compute_B_chain", "check_commutator_containment")
    },
    "verify.run_suite.self_s": ("s", "lower"),
    "verify.threads_ratio": ("ratio", "lower"),
    "cli.startup_s": ("s", "lower"),
    "jsonio.self_s": ("s", "lower"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.recording = True
        self.memo: dict = {}
        self._local = threading.local()
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn, tagger=None):
        local, ids, clock, spans = self._local, self._ids, time.perf_counter, self.spans

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            tag = tagger(*args, **kwargs) if tagger is not None else None
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dur
                if self.recording:
                    spans.append(
                        (frame[0], parent[0] if parent else 0, name, t0, dur, dur - frame[1], tag)
                    )

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        """Count calls without a span (for the GroupOps slots)."""
        counts = self.counts

        def counted(*args, **kwargs):
            if self.recording:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def install(tracer: Tracer) -> None:
    modules = [m for n, m in list(sys.modules.items()) if n == "nilbch" or n.startswith("nilbch.")]
    for short, funcs in TRACED.items():
        mod = importlib.import_module(f"nilbch.{short}")
        for fname, tagger in funcs.items():
            orig = getattr(mod, fname)
            wrapped = tracer.wrap(f"{short}.{fname}", orig, tagger)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)


def memo_entries() -> dict:
    """Entries in each module's memo tables: module-level dicts named _UPPER."""
    out = {}
    for short in ("algebra", "bch", "identities"):
        mod = importlib.import_module(f"nilbch.{short}")
        out[short] = sum(
            len(v)
            for k, v in vars(mod).items()
            if k.startswith("_") and k[1:].isupper() and isinstance(v, dict)
        )
    return out


def span_json(span) -> dict:
    sid, parent, name, start, dur, self_s, tag = span
    return {"id": sid, "parent": parent, "name": name, "start": start, "dur": dur, "self": self_s, "tag": tag}


def layer_metrics(spans: list, counts: dict, memo: dict, extra: dict) -> dict:
    """Every per-layer metric of BENCHMARK.json, from one traced pass."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    name_of, parent_of = {}, {}
    for sid, parent, name, _start, _dur, own, _tag in spans:
        calls[name] += 1
        self_s[name] += own
        name_of[sid] = name
        parent_of[sid] = parent

    def within(sid, name):
        sid = parent_of.get(sid, 0)
        while sid:
            if name_of.get(sid) == name:
                return True
            sid = parent_of.get(sid, 0)
        return False

    def ratio(a, b):
        return a / b if b else 0.0

    def prefix_self(prefix):
        return sum((v for k, v in self_s.items() if k.startswith(prefix)), 0.0)

    visited = kept = 0
    bch_ms = defaultdict(list)
    mat_mul_s = defaultdict(lambda: [0, 0.0])
    cover_pairs = defaultdict(set)
    cover_products = bch_in_extract = logs_in_sum = 0
    for sid, parent, name, _start, dur, own, tag in spans:
        if name == "series.mul_trunc":
            visited += tag[0]
            kept += tag[1]
        elif name == "bch.bch":
            bch_ms[f"g{tag[0]}s{tag[1]}"].append(dur * 1e3)
            bch_in_extract += within(sid, "identities.extract_bracket")
        elif name == "matrices.mat_mul":
            mat_mul_s[tag[0]][0] += 1
            mat_mul_s[tag[0]][1] += dur
            if name_of.get(parent) == "growth.find_cover":
                cover_products += 1
                cover_pairs[parent].add(tuple(tag[1:]))
        elif name == "matrices.mat_log":
            logs_in_sum += within(sid, "growth.check_sum_containment")

    def us_per_call(d):
        n, total = mat_mul_s[d]
        return ratio(total * 1e6, n)

    out = {
        "series.mul_trunc.calls": calls["series.mul_trunc"],
        "series.mul_trunc.self_s": self_s["series.mul_trunc"],
        "series.mul_trunc.kept_ratio": ratio(kept, visited),
        "series.exp_log.self_s": self_s["series.exp_truncated"] + self_s["series.log_truncated"],
        "algebra.bracket_coords.calls": calls["algebra.bracket_coords"],
        "algebra.bracket_coords.self_s": self_s["algebra.bracket_coords"],
        "algebra.rightnormed_decomposition.self_s": self_s["algebra.rightnormed_decomposition"],
        "algebra.memo_entries": memo.get("algebra", 0),
        "bch.bch.calls": calls["bch.bch"],
        "bch.bch.self_s": self_s["bch.bch"],
    }
    for key in ("g2s3", "g2s4", "g2s5", "g2s6", "g3s3", "g3s4"):
        out[f"bch.call_ms.{key}"] = median(bch_ms[key]) if bch_ms[key] else 0.0
    out.update(
        {
            "bch.rho_entries": memo.get("bch", 0),
            "group.mul.calls": calls["group.mul"],
            "group.commutator.calls": calls["group.commutator"],
            "group.self_s": prefix_self("group."),
            "identities.extract_bracket.self_s": self_s["identities.extract_bracket"],
            "identities.extract_bracket.bch_per_call": ratio(
                bch_in_extract, calls["identities.extract_bracket"]
            ),
            "identities.sum_word.synth_s": sum((s[4] for s in spans if s[2] == "identities.sum_word"), 0.0),
            "identities.memo_entries": memo.get("identities", 0),
            "words.evaluate_word.self_s": self_s["words.evaluate_word"],
            "words.ops_mul_calls": counts.get("words.ops_mul", 0),
            "words.ops_power_calls": counts.get("words.ops_power", 0),
            "matrices.mat_mul.calls": calls["matrices.mat_mul"],
            "matrices.mat_mul.self_s": self_s["matrices.mat_mul"],
            "matrices.mat_mul.us_per_call.dim3": us_per_call(3),
            "matrices.mat_mul.us_per_call.dim5": us_per_call(5),
            "matrices.mat_log.calls": calls["matrices.mat_log"],
            "matrices.mat_log.self_s": self_s["matrices.mat_log"],
            "matrices.mat_power.self_s": self_s["matrices.mat_power"],
            "matrices.mat_inverse.calls": calls["matrices.mat_inverse"],
            "growth.find_cover.self_s": self_s["growth.find_cover"],
            "growth.find_cover.products": cover_products,
            "growth.find_cover.distinct_ratio": ratio(
                sum(len(p) for p in cover_pairs.values()), cover_products
            ),
            "growth.check_sum_containment.self_s": self_s["growth.check_sum_containment"],
            "growth.check_sum_containment.logs_per_target": ratio(
                logs_in_sum, extra.get("sum_targets", 0)
            ),
        }
    )
    for fname in (
        "powers_up_to",
        "product_set",
        "generate_ball",
        "compute_B_chain",
        "check_commutator_containment",
    ):
        out[f"growth.{fname}.self_s"] = self_s[f"growth.{fname}"]
    startup = extra.get("cli_startup_s", [])
    # whole commands at their median scaled time over the run's rounds: one
    # traced pass of a command of under a second is too short to tell a
    # thread effect from the machine's drift
    op_ms = extra.get("op_ms_by_label", {})
    out.update(
        {
            "verify.run_suite.self_s": self_s["verify.run_suite"],
            "verify.threads_ratio": ratio(op_ms.get("verify-t2", 0.0), op_ms.get("verify-t1", 0.0)),
            "cli.startup_s": median(startup) if startup else 0.0,
            "jsonio.self_s": prefix_self("jsonio."),
        }
    )
    return out
