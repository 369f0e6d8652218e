"""Checkers: each takes an answer nilbch gave and tests it with oracle.py's
arithmetic, or against a theorem the method must satisfy. A checker raises
oracle.CheckError on a wrong answer.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import oracle
from oracle import CheckError, require

SYMBOLS = ("x1", "x2", "x3")
SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"


# ---------------------------------------------------------------------------
# Lie elements, through their JSON form

def check_lie_result(data: dict, z: dict, rng) -> None:
    """A bch, extract_bracket or nested_commutator answer, on two random
    choices of strictly upper-triangular matrices of dimension step + 1."""
    kind, (gens, step) = data["kind"], data["key"]
    symbols = SYMBOLS[:gens]
    require(isinstance(z, dict), f"{kind}: answer is not a JSON object")
    for _ in range(2):
        mats = [oracle.random_strict(step + 1, rng) for _ in range(gens)]
        memo: dict = {}
        args = [oracle.eval_lie(a, mats, symbols, memo) for a in data["args"]]
        got = oracle.eval_lie(z, mats, symbols, memo)
        if kind == "bch":
            want = oracle.logm(oracle.mul(oracle.expm(args[0]), oracle.expm(args[1])))
        elif kind == "extract":
            want = oracle.bracket(args[0], args[1])
        else:
            elements = [oracle.expm(a) for a in args]
            want = oracle.logm(oracle.nested_group_commutator(data["pattern"], elements))
        require(got == want, f"{kind} at {gens} generators, step {step} differs on matrices")


def check_sum_word(m: int, a: list, b: list, got_rows) -> None:
    """The sum word evaluated at (a, b) must be exp(m (log a + log b))."""
    require(m >= 1, f"sum word multiplier {m} is not positive")
    la, lb = oracle.logm(oracle.as_matrix(a)), oracle.logm(oracle.as_matrix(b))
    want = oracle.expm(oracle.scale(oracle.add(la, lb), m))
    require([list(r) for r in got_rows] == want, "sum word differs from exp(m(log a + log b))")


# ---------------------------------------------------------------------------
# growth

def growth_summary(r: dict) -> dict:
    """A growth report as plain rows, comparable between rounds."""

    def rows(ms):
        return frozenset(m.rows for m in ms)

    cover = r["cover"]
    out = {
        "ball": rows(r["ball"].elements),
        "aa": rows(r["aa"].elements),
        "cover": (cover.size_a, cover.size_aa, cover.k, tuple(t.rows for t in cover.translates)),
        "logs": rows(r["logs"]),
        "sumset": rows(r["sumset"]),
        "powers": tuple(rows(p.elements) for p in r["powers"]),
        "chain": tuple(rows(b) for b in r["chain"]),
    }
    s = r["sum"]
    out["sum"] = {
        k: getattr(s, k)
        for k in ("step", "k1", "k2", "m", "word_length", "bound_power", "checked_pairs", "failures", "max_witness_power")
    }
    b = r["bracket"]
    out["bracket"] = {
        "j": b.j,
        "set_size": b.set_size,
        "checked": b.checked,
        "failures": b.failures,
        "witnesses": tuple((x.rows, tuple(t.rows for t in w)) for x, w in b.witnesses),
    }
    return out


class BallModel:
    """A ball and the sets built on it, computed in a group model."""

    def __init__(self, model, gens: list, radius: int):
        self.model = model
        ball = frontier = {model.one}
        for _ in range(radius):
            frontier = {model.mul(g, s) for g in frontier for s in gens} - ball
            ball = ball | frontier
        self.ball = ball
        self.aa = {model.mul(x, y) for x in ball for y in ball}
        self.logs = {model.log(x) for x in ball}
        self.sums = {model.add(u, v) for u in self.logs for v in self.logs}
        self.chain = [self.logs]
        for _ in range(model.dim - 1):
            self.chain.append({model.bracket(u, v) for u in self.logs for v in self.chain[-1]})
        self._powers = [ball]

    def power(self, p: int) -> set:
        """A^p; the identity is in A, so the powers are nested."""
        while len(self._powers) < p:
            prev = self._powers[-1]
            self._powers.append(prev | {self.model.mul(x, y) for x in prev for y in self.ball})
        return self._powers[p - 1]

    def min_powers(self, targets: set, bound: int) -> dict:
        """Least p <= bound with exp(t) in A^p, for each target log t."""
        want = {}
        for t in targets:
            g = self.model.exp(t)
            require(g is not None, "exp of a scaled sum is not an integer matrix")
            want[g] = t
        found, seen, frontier = {}, set(), set(self.ball)
        for p in range(1, bound + 1):
            if p > 1:
                frontier = {self.model.mul(x, y) for x in frontier for y in self.ball} - seen
            seen |= frontier
            for g in frontier & want.keys():
                found[want[g]] = p
            if len(found) == len(want):
                break
        return found


def _is_zero(x) -> bool:
    return not any(any(v) if isinstance(v, tuple) else v for v in x)


def check_growth_report(data: dict, s: dict) -> int:
    """Check one growth report against the models; returns the number of
    distinct sum-containment targets."""
    d = data["dim"]
    require(d == 3, f"no model for UT({d}, Z)")
    model = oracle.Heisenberg()
    bm = BallModel(model, [model.from_rows(r) for r in data["gens"]], data["radius"])

    def group_set(rows):
        return {model.from_rows(r) for r in rows}

    def log_set(rows):
        return {model.from_nil_rows(r) for r in rows}

    require(group_set(s["ball"]) == bm.ball, "ball differs from the model's")
    require(group_set(s["aa"]) == bm.aa, "AA differs from the model's")
    size_a, size_aa, k, translates = s["cover"]
    require((size_a, size_aa) == (len(bm.ball), len(bm.aa)), "cover report sizes")
    require(k == len(translates), "cover k differs from its translate count")
    translates = [model.from_rows(t) for t in translates]
    candidates = {model.mul(x, model.inv(y)) for x in bm.aa for y in bm.ball}
    require(all(t in candidates for t in translates), "a cover translate lies outside AA A^-1")
    covered = {model.mul(t, y) for t in translates for y in bm.ball}
    require(bm.aa <= covered, "the cover translates miss part of AA")
    require(log_set(s["logs"]) == bm.logs, "log A differs from the model's")
    require(log_set(s["sumset"]) == bm.sums, "log A + log A differs from the model's")
    require([group_set(p) for p in s["powers"]] == [bm.power(1), bm.power(2)], "A^1, A^2 differ")
    require([log_set(b) for b in s["chain"]] == bm.chain, "the B-chain differs from the model's")
    require(len(bm.chain[-1]) == 1 and all(_is_zero(x) for x in bm.chain[-1]), "B_n is not {0}")
    r = s["sum"]
    require((r["step"], r["k1"], r["k2"]) == (d - 1, 1, 1), "sum containment parameters")
    require(r["checked_pairs"] == len(bm.logs) ** 2, "sum containment skipped pairs")
    require(r["failures"] == 0, "a sum containment failed, and it is a theorem")
    require(r["bound_power"] == r["word_length"], "bound power is not the word length")
    targets = {model.scale(model.add(u, v), r["m"]) for u in bm.logs for v in bm.logs}
    found = bm.min_powers(targets, r["bound_power"])
    require(len(found) == len(targets), "a scaled sum lies beyond the bound power")
    require(r["max_witness_power"] == max(found.values()), "max witness power differs from the model's")
    check_bracket_containment(bm, data["cert"], s["bracket"])
    return len(targets)


def check_bracket_containment(bm: BallModel, cert, b: dict) -> None:
    """Every witness sums to its element of B_1, and each term is q_i log g
    with g in A^(k_i)."""
    model, b1 = bm.model, bm.chain[1]
    require((b["j"], b["set_size"], b["checked"], b["failures"]) == (1, len(b1), len(b1), 0),
            "bracket containment counts")
    xs = set()
    for x_rows, terms in b["witnesses"]:
        x = model.from_nil_rows(x_rows)
        xs.add(x)
        terms = [model.from_nil_rows(t) for t in terms]
        require(len(terms) == len(cert.rationals), "witness length")
        total = terms[0]
        for t in terms[1:]:
            total = model.add(total, t)
        require(total == x, "witness terms do not sum to their element")
        for t, q, k in zip(terms, cert.rationals, cert.exponents):
            g = model.exp(model.scale(t, 1 / Fraction(q)))
            require(g is not None and g in bm.power(k), "a witness term is not in q log A^k")
    require(xs == b1, "the witnesses do not cover B_1")


# ---------------------------------------------------------------------------
# cli

CLI_SCHEMAS = {
    "hall": "hall",
    "bch": "lie_element",
    "bch-table": "pattern_table",
    "synth-sum": "synth_sum",
    "synth-power": "synth_power",
    "extract-bracket": "lie_element",
    "growth": "growth_report",
    "verify-t1": "verify_report",
    "verify-t2": "verify_report",
}


def _validate(obj, schema_name: str) -> None:
    import jsonschema

    schema = json.loads((SCHEMAS / f"{schema_name}.json").read_text())
    try:
        jsonschema.validate(obj, schema)
    except jsonschema.ValidationError as e:
        raise CheckError(f"output breaks docs/schemas/{schema_name}.json: {e.message}") from None


def _random_unipotent(d: int, rng) -> list:
    return oracle.as_matrix([[int(i == j) if j <= i else rng.randint(-3, 3) for j in range(d)] for i in range(d)])


def check_cli(i: int, ops: list, captured: list, rng) -> int:
    """Check one command's output; returns the number of distinct
    sum-containment targets for `growth`, else 0."""
    op = ops[i]
    label, argv = op.label, op.data["argv"]
    code, out = captured[i]
    require(code == 0, f"nilbch {' '.join(argv)} exited with {code}")
    text = out.decode()
    require(text.count("\n") == 1 and text.endswith("\n"), f"{label}: not one line of output")
    obj = json.loads(text)
    _validate(obj, CLI_SCHEMAS[label])
    arg = {argv[j][2:]: argv[j + 1] for j in range(1, len(argv) - 1) if argv[j].startswith("--")}
    if label == "hall":
        gens, step = int(arg["gens"]), int(arg["step"])
        per_degree = [0] * (step + 1)
        for w in obj["words"]:
            per_degree[len(re.findall(r"x[0-9]+", w))] += 1
        want = [0] + [oracle.witt(gens, k) for k in range(1, step + 1)]
        require(per_degree == want and obj["count"] == sum(want), "hall counts differ from Witt's formula")
        require(len(set(obj["words"])) == obj["count"], "hall words repeat")
    elif label in ("bch", "bch-table", "extract-bracket"):
        step = int(arg["step"])
        stdin = json.loads(op.data["stdin"]) if label == "extract-bracket" else None
        for _ in range(2):
            x, y = (oracle.random_strict(step + 1, rng) for _ in range(2))
            if label == "bch":
                got = oracle.eval_lie(obj, [x, y], SYMBOLS[:2])
                want = oracle.logm(oracle.mul(oracle.expm(x), oracle.expm(y)))
            elif label == "bch-table":
                # the table decomposes x + y - bch(x, y)
                got = oracle.add(x, y)
                for row in obj:
                    got = oracle.sub(got, oracle.scale(oracle.rightnormed(row["pattern"], [x, y]), Fraction(row["coefficient"])))
                want = oracle.logm(oracle.mul(oracle.expm(x), oracle.expm(y)))
            else:
                u, v = (oracle.eval_lie(e, [x, y], SYMBOLS[:2]) for e in stdin)
                got = oracle.eval_lie(obj, [x, y], SYMBOLS[:2])
                want = oracle.bracket(u, v)
            require(got == want, f"{label} differs on matrices")
    elif label == "synth-sum":
        _check_word(obj["word"], ("a", "b"), obj["m"], 3, rng)
        require(oracle.word_length(oracle.parse_word(obj["word"])) == obj["length"], "synth-sum length")
    elif label == "synth-power":
        t = int(arg["T"])
        require(obj["min_residual_degree"] == "exact" and obj["residual_degrees"] == [],
                "a power word cleared to its own step must be exact")
        require(all(t % c == 0 for c in obj["divisors"]), "T breaks the divisibility ladder")
        _check_word(obj["word"], SYMBOLS[: int(arg["gens"])], t, int(arg["step"]) + 1, rng)
    elif label == "growth":
        return _check_cli_growth(obj, int(arg["dim"]), int(arg["radius"]))
    else:
        require(obj["all_pass"] and all(c["pass"] and c["count"] > 0 for c in obj["checks"]),
                "verify-identities reports a failed or empty check")
        require((obj["step"], obj["trials"]) == (int(arg["step"]), int(arg["trials"])), "verify parameters")
        if label == "verify-t2":
            t1 = next(j for j, o in enumerate(ops) if o.label == "verify-t1")
            require(out == captured[t1][1], "verify-identities output depends on --threads")
    return 0


def _check_word(text: str, symbols: tuple, m: int, d: int, rng) -> None:
    """The word's value is exp(m (sum of the logs of its letters))."""
    require(m >= 1, "multiplier is not positive")
    factors = oracle.parse_word(text)
    for _ in range(2):
        env = {s: _random_unipotent(d, rng) for s in symbols}
        total = oracle.zero(d)
        for g in env.values():
            total = oracle.add(total, oracle.logm(g))
        require(oracle.eval_word(factors, env) == oracle.expm(oracle.scale(total, m)),
                "word differs from exp(m * sum of logs) on matrices")


def _check_cli_growth(obj: dict, d: int, radius: int) -> int:
    """`nilbch growth` for the standard generators of UT(3, Z)."""
    require(d == 3, f"no model for UT({d}, Z)")
    model = oracle.Heisenberg()
    gens = []
    for i in range(d - 1):
        rows = [[int(r == c) for c in range(d)] for r in range(d)]
        rows[i][i + 1] = 1
        g = model.from_rows(rows)
        gens += [g, model.inv(g)]
    bm = BallModel(model, gens, radius)
    a, aa = len(bm.ball), len(bm.aa)
    require(obj["ball"] == {"size": a, "size_aa": aa, "doubling": str(Fraction(aa, a))}, "growth ball")
    require(-(-aa // a) <= obj["cover"]["k"] <= aa, "cover k outside [|AA|/|A|, |AA|]")
    ls = len(bm.sums)
    require(obj["log"] == {"size": a, "sumset_size": ls, "ratio": str(Fraction(ls, a))}, "growth log sumset")
    require(obj["powers"] == [{"k": 1, "size": a}] * 2, "growth powers")
    sc = obj["sum_containment"]
    require(sc["failures"] == 0 and sc["pass"] and sc["checked_pairs"] == a * a, "growth sum containment")
    targets = {model.scale(model.add(u, v), sc["m"]) for u in bm.logs for v in bm.logs}
    found = bm.min_powers(targets, sc["bound_power"])
    require(len(found) == len(targets) and max(found.values()) == sc["max_witness_power"],
            "growth max witness power")
    require(obj["b_chain"] == {"sizes": [len(b) for b in bm.chain], "top_trivial": True}, "growth B-chain")
    bc = obj["bracket_containment"]
    require((bc["set_size"], bc["checked"], bc["failures"], bc["pass"]) == (len(bm.chain[1]),) * 2 + (0, True),
            "growth bracket containment")
    return len(targets)
