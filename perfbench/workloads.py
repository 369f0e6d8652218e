"""The four workloads: seeded inputs, one warm-up pass, the fixed batch of
operations a round runs, and how each output is captured and checked.

Operations call nilbch through module attributes (`M.bch.bch(...)`), looked up
at call time, so the traced run sees them through the wrappers of
tracing.install. Checks use only oracle.py and run after the timed rounds.

The worker imports this module before set-up ends, so it imports at the top
only what nilbch imports anyway; checks, oracle and subprocess are imported
where they are used, after set-up, so that `setup_s` holds nilbch's own
imports and warm-up and not the benchmark's.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
MODULES = ("algebra", "bch", "group", "identities", "jsonio", "matrices", "words", "growth", "cli")


def import_nilbch() -> SimpleNamespace:
    """nilbch's modules by name. `import nilbch.bch` would bind the function
    that nilbch/__init__.py re-exports, so go through importlib."""
    pkg = importlib.import_module("nilbch")
    mods = {name: importlib.import_module(f"nilbch.{name}") for name in MODULES}
    return SimpleNamespace(pkg=pkg, **mods)


class Op:
    __slots__ = ("label", "fn", "data")

    def __init__(self, label: str, fn, data: dict):
        self.label = label
        self.fn = fn
        self.data = data


def _rational(rng) -> Fraction:
    return Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))


# ---------------------------------------------------------------------------
# group-law

# (gens, step): bch, extract_bracket and nested_commutator calls per round,
# each as (dense inputs, few-term inputs). Extraction at step 6 is left out:
# at 0.35-0.7 s a call it would be a third of the round.
GROUP_LAW_BATCH = {
    (2, 3): ((6, 6), (2, 2), (2, 2)),
    (2, 4): ((6, 6), (1, 2), (2, 2)),
    (2, 5): ((3, 4), (1, 1), (1, 2)),
    (2, 6): ((2, 4), (0, 0), (1, 1)),
    (3, 3): ((4, 4), (1, 2), (1, 2)),
    (3, 4): ((3, 4), (1, 2), (1, 2)),
}


class GroupLaw:
    name = "group-law"
    in_process = True

    def __init__(self, M, seed: int, tracer=None):
        self.M = M
        self.seed = seed
        self.ctx = {key: M.algebra.AlgebraContext(*key) for key in GROUP_LAW_BATCH}
        self.basis = {
            key: [M.algebra.tree_str(t, ctx.symbols) for t in M.algebra.hall_basis(ctx)]
            for key, ctx in self.ctx.items()
        }

    def _element(self, key, terms: dict):
        return self.M.algebra.LieElement(self.ctx[key], terms)

    def setup(self) -> None:
        """One bch, extraction and nested commutator per context, on inputs
        that touch every basis element, fills the memo tables."""
        M = self.M
        for key, ctx in self.ctx.items():
            basis = self.basis[key]
            x = self._element(key, {k: Fraction(1) for k in basis})
            y = self._element(key, {k: Fraction((-1) ** i) for i, k in enumerate(basis)})
            M.bch.bch(x, y)
            M.group.nested_commutator((1,) * (ctx.step - 1) + (2,), [M.group.exp(x), M.group.exp(y)])
            M.identities.extract_bracket(M.group.exp(ctx.generator(0)), M.group.exp(ctx.generator(1)))

    def _random_json(self, key, rng, dense: bool, position: int) -> dict:
        """Every basis element, or a few terms: generator `position`, one
        degree-2 element and one top-degree element. Fixing the shape keeps
        the cost of an operation within a few per cent from seed to seed."""
        basis = self.basis[key]
        if dense:
            keys = basis
        else:
            keys = [basis[position % key[0]]]
            keys += [rng.choice([k for k in basis if k.count("x") == d]) for d in (2, key[1])]
        return {k: str(_rational(rng)) for k in keys}

    def make_ops(self) -> list:
        M = self.M
        rng = random.Random(f"group-law:{self.seed}")
        ops = []
        for key, (n_bch, n_ext, n_nest) in GROUP_LAW_BATCH.items():
            gens, step = key
            tag = f"g{gens}s{step}"
            for kind, counts in (("bch", n_bch), ("extract", n_ext), ("nested", n_nest)):
                for dense, count in zip((True, False), counts):
                    for _ in range(count):
                        nargs = 2 if kind != "nested" else gens
                        args = [self._random_json(key, rng, dense, j) for j in range(nargs)]
                        els = [self._element(key, a) for a in args]
                        data = {"kind": kind, "key": key, "args": args}
                        if kind == "bch":
                            fn = lambda x=els[0], y=els[1]: M.bch.bch(x, y)
                        elif kind == "extract":
                            a, b = (M.group.exp(e) for e in els)
                            fn = lambda a=a, b=b: M.identities.extract_bracket(a, b)
                        else:
                            pattern = [rng.randint(1, gens) for _ in range(step)]
                            while pattern[-1] == pattern[-2]:
                                pattern[-1] = rng.randint(1, gens)
                            data["pattern"] = pattern = tuple(pattern)
                            gs = [M.group.exp(e) for e in els]
                            fn = lambda p=pattern, gs=gs: M.group.nested_commutator(p, gs)
                        label = f"{kind}.{tag}.{'dense' if dense else 'few'}"
                        ops.append(Op(label, fn, data))
        return ops

    def capture(self, op: Op, result):
        log = result.log if op.data["kind"] == "nested" else result
        return self.M.jsonio.lie_to_json(log)

    def check(self, i: int, ops: list, captured: list, extra: dict) -> None:
        import checks

        op = ops[i]
        rng = random.Random(f"group-law-check:{self.seed}:{i}")
        checks.check_lie_result(op.data, captured[i], rng)


# ---------------------------------------------------------------------------
# sum-word

# step: matrix pairs per round; dimension is step + 1. Step 5 is left out: a
# pair there takes over a second, too long a single call to time steadily.
SUM_WORD_BATCH = {3: 4, 4: 2}


class SumWord:
    name = "sum-word"
    in_process = True

    def __init__(self, M, seed: int, tracer=None):
        self.M = M
        self.seed = seed
        self.tracer = tracer

    def setup(self) -> None:
        self.words = {step: self.M.identities.sum_word(step) for step in SUM_WORD_BATCH}

    def _ops(self, d: int):
        ops = self.M.matrices.matrix_group_ops(d)
        if self.tracer is not None:
            ops.mul = self.tracer.counter("words.ops_mul", ops.mul)
            ops._power = self.tracer.counter("words.ops_power", ops._power)
        return ops

    def make_ops(self) -> list:
        M = self.M
        rng = random.Random(f"sum-word:{self.seed}")
        out = []
        for step, count in SUM_WORD_BATCH.items():
            d = step + 1
            gops = self._ops(d)
            sw = self.words[step]
            for _ in range(count):
                # entries of magnitude 1 with seeded signs keep the integer
                # growth, and so the cost, near the same from seed to seed
                pair = [
                    [[int(i == j) if j <= i else rng.choice((-1, 1)) for j in range(d)] for i in range(d)]
                    for _ in range(2)
                ]
                a, b = (M.matrices.UnipotentMatrix(tuple(map(tuple, rows))) for rows in pair)
                fn = lambda a=a, b=b, w=sw.word, g=gops: M.words.evaluate_word(w, {"a": a, "b": b}, g)
                out.append(Op(f"sum.step{step}", fn, {"step": step, "m": sw.m, "a": pair[0], "b": pair[1]}))
        return out

    def capture(self, op: Op, result):
        return result.rows

    def check(self, i: int, ops: list, captured: list, extra: dict) -> None:
        import checks

        d = ops[i].data
        checks.check_sum_word(d["m"], d["a"], d["b"], captured[i])


# ---------------------------------------------------------------------------
# growth

def _heisenberg_image(rng) -> list:
    """Images of x = e12 and y = e23 under a random automorphism of UT(3, Z):
    an invertible integer 2x2 matrix on the abelianization, any centre parts."""
    while True:
        p, q, r, s = (rng.randint(-2, 2) for _ in range(4))
        if abs(p * s - q * r) == 1:
            break
    return [[[1, p, rng.randint(-2, 2)], [0, 1, r], [0, 0, 1]], [[1, q, rng.randint(-2, 2)], [0, 1, s], [0, 0, 1]]]


# Radius-1 balls in UT(3, Z) on seeded generating sets, per round, next to
# the standard one. A report takes about 0.5 s and a round about 1.5 s, so
# a 25-s run times each report 15 to 23 times and keeps its median.
GROWTH_RANDOM_BALLS = 2


class Growth:
    name = "growth"
    in_process = True

    def __init__(self, M, seed: int, tracer=None):
        self.M = M
        self.seed = seed

    def setup(self) -> None:
        M = self.M
        M.identities.sum_word(2)
        self.cert = M.identities.containment_certificate(1, M.algebra.AlgebraContext(2, 2))

    def _symmetric(self, gens_rows: list) -> list:
        import oracle

        M = self.M
        out = []
        for rows in gens_rows:
            g = oracle.as_matrix(rows)
            for h in (g, oracle.inverse(g)):
                out.append(M.matrices.UnipotentMatrix(tuple(map(tuple, h))))
        return out

    def report(self, gens: list) -> dict:
        """What `nilbch growth --dim 3 --radius 1` computes, on `gens`."""
        g = self.M.growth
        ball = g.generate_ball(3, gens, 1)
        out = {"ball": ball, "aa": g.product_set(ball, ball), "cover": g.find_cover(ball)}
        out["logs"] = g.log_set(ball)
        out["sumset"] = g.sumset(out["logs"], out["logs"])
        out["powers"] = g.powers_up_to(ball, 2)
        out["chain"] = g.compute_B_chain(ball, 2)
        out["sum"] = g.check_sum_containment(ball, 1, 1, 2)
        out["bracket"] = g.check_commutator_containment(ball, 1, self.cert)
        return out

    def make_ops(self) -> list:
        M = self.M
        rng = random.Random(f"growth:{self.seed}")
        plan = [("ut3.r1.std", M.growth.ut_generators(3))]
        plan += [("ut3.r1.rand", self._symmetric(_heisenberg_image(rng))) for _ in range(GROWTH_RANDOM_BALLS)]
        return [
            Op(
                label,
                lambda gens=gens: self.report(gens),
                {"dim": 3, "radius": 1, "gens": [m.rows for m in gens], "cert": self.cert},
            )
            for label, gens in plan
        ]

    def capture(self, op: Op, result) -> dict:
        import checks

        return checks.growth_summary(result)

    def check(self, i: int, ops: list, captured: list, extra: dict) -> None:
        import checks

        targets = checks.check_growth_report(ops[i].data, captured[i])
        extra["sum_targets"] = extra.get("sum_targets", 0) + targets


# ---------------------------------------------------------------------------
# cli

VERIFY_TRIALS = 10


def cli_commands(seed: int, stdin_elements: str) -> list:
    """(label, argv, stdin): the README's commands, each in a fresh interpreter."""
    return [
        ("hall", ["hall", "--gens", "2", "--step", "3"], None),
        ("bch", ["bch", "--step", "2"], None),
        ("bch-table", ["bch", "--step", "3", "--degree-table"], None),
        ("synth-sum", ["synth-sum", "--step", "2"], None),
        ("synth-power", ["synth-power", "--step", "3", "--gens", "2", "--level", "3", "--T", "12"], None),
        ("extract-bracket", ["extract-bracket", "--step", "3"], stdin_elements),
        ("growth", ["growth", "--group", "ut", "--dim", "3", "--radius", "1", "--seed", str(seed)], None),
    ] + [
        (
            f"verify-t{t}",
            ["verify-identities", "--step", "3", "--trials", str(VERIFY_TRIALS), "--threads", str(t), "--seed", str(seed)],
            None,
        )
        for t in (1, 2)
    ]


class Cli:
    name = "cli"
    # each operation is a fresh interpreter, scaled by reference.ProcessSpeed
    in_process = False

    def __init__(self, M, seed: int, tracer=None):
        self.M = M
        self.seed = seed
        self.tracer = tracer
        self.trace_files: list = []

    def setup(self) -> None:
        """Interpreter start plus import is what every command pays."""

    def make_ops(self) -> list:
        import subprocess

        self.spawn = subprocess.run
        M = self.M
        rng = random.Random(f"cli:{self.seed}")
        ctx = M.algebra.AlgebraContext(2, 3)
        basis = [M.algebra.tree_str(t, ctx.symbols) for t in M.algebra.hall_basis(ctx)]
        elements = [{k: str(_rational(rng)) for k in basis if rng.random() < 0.7} or {"x1": "1"} for _ in range(2)]
        stdin = json.dumps(elements)
        self.env = dict(os.environ)
        return [
            Op(label, lambda a=argv, s=stdin_text: self.run(a, s), {"argv": argv, "stdin": stdin_text})
            for label, argv, stdin_text in cli_commands(self.seed, stdin)
        ]

    def run(self, argv: list, stdin: str | None):
        if self.tracer is not None:
            out = "-"
            if self.tracer.recording:
                out = HERE / "results" / f"cli-child-{os.getpid()}-{len(self.trace_files)}.json"
                self.trace_files.append(out)
            cmd = [sys.executable, str(HERE / "cli_launcher.py"), str(out), repr(time.perf_counter()), *argv]
        else:
            cmd = [sys.executable, "-m", "nilbch", *argv]
        proc = self.spawn(
            cmd, input=stdin.encode() if stdin else b"", capture_output=True, env=self.env, timeout=120
        )
        return proc.returncode, proc.stdout

    def capture(self, op: Op, result):
        return result

    def check(self, i: int, ops: list, captured: list, extra: dict) -> None:
        import checks

        targets = checks.check_cli(i, ops, captured, random.Random(f"cli-check:{self.seed}:{i}"))
        extra["sum_targets"] = extra.get("sum_targets", 0) + targets


WORKLOADS = {cls.name: cls for cls in (GroupLaw, SumWord, Growth, Cli)}
