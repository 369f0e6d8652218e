"""Self-tests of the benchmark's checkers: each accepts nilbch's real answer
and rejects the same answer with one thing changed.

    python3 -m pytest -q perfbench/test_checkers.py
"""

from __future__ import annotations

import copy
import json
import os
import random
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")]))

import checks  # noqa: E402
import workloads  # noqa: E402
from oracle import CheckError  # noqa: E402

M = workloads.import_nilbch()


def _bump_first(obj: dict) -> dict:
    """The same Lie element with its first coefficient (or that of [x1,x2],
    when the element is 0) raised by 1/7."""
    out = dict(obj)
    key = next(iter(out), "[x1,x2]")
    out[key] = str(M.jsonio.parse_rational(out.get(key, "0")) + M.jsonio.parse_rational("1/7"))
    return out


@pytest.fixture(scope="module")
def group_law():
    wl = workloads.GroupLaw(M, seed=3)
    wl.setup()
    ops = wl.make_ops()
    picked = {}
    for i, op in enumerate(ops):
        picked.setdefault(op.data["kind"], i)
    captured = {i: wl.capture(ops[i], ops[i].fn()) for i in picked.values()}
    return ops, picked, captured


@pytest.mark.parametrize("kind", ["bch", "extract", "nested"])
def test_lie_checker_rejects_a_changed_coefficient(group_law, kind):
    ops, picked, captured = group_law
    i = picked[kind]
    checks.check_lie_result(ops[i].data, captured[i], random.Random(1))
    with pytest.raises(CheckError):
        checks.check_lie_result(ops[i].data, _bump_first(captured[i]), random.Random(1))


def test_sum_word_checker_rejects_a_changed_entry():
    sw = M.identities.sum_word(3)
    rng = random.Random(3)
    a, b = ([[int(i == j) if j <= i else rng.choice((-2, -1, 1, 2)) for j in range(4)] for i in range(4)] for _ in range(2))
    env = {k: M.matrices.UnipotentMatrix(tuple(map(tuple, v))) for k, v in (("a", a), ("b", b))}
    rows = [list(r) for r in M.words.evaluate_word(sw.word, env, M.matrices.matrix_group_ops(4)).rows]
    checks.check_sum_word(sw.m, a, b, rows)
    rows[0][-1] += 1
    with pytest.raises(CheckError):
        checks.check_sum_word(sw.m, a, b, rows)


@pytest.fixture(scope="module")
def growth_reports():
    wl = workloads.Growth(M, seed=3)
    wl.setup()
    first = {}
    for op in wl.make_ops():
        first.setdefault(op.label, op)
    return [(first[label], wl.capture(first[label], first[label].fn())) for label in ("ut3.r1.std", "ut3.r1.rand")]


def _drop_translate(s):
    a, aa, k, ts = s["cover"]
    s["cover"] = (a, aa, k - 1, ts[:-1])


def _move_witness_power(s):
    s["sum"]["max_witness_power"] += 1


def _drop_ball_element(s):
    s["ball"] = frozenset(sorted(s["ball"])[1:])


def _change_witness_term(s):
    ws = list(s["bracket"]["witnesses"])
    i = next(i for i, (x, _) in enumerate(ws) if any(map(any, x)))
    x, terms = ws[i]
    ws[i] = (x, tuple(tuple(tuple(v * 2 for v in row) for row in t) for t in terms))
    s["bracket"]["witnesses"] = tuple(ws)


def _drop_chain_element(s):
    s["chain"] = (s["chain"][0], frozenset(sorted(s["chain"][1])[1:])) + s["chain"][2:]


@pytest.mark.parametrize(
    "label,perturb",
    [
        ("ut3.r1.rand", _drop_translate),
        ("ut3.r1.rand", _move_witness_power),
        ("ut3.r1.rand", _drop_ball_element),
        ("ut3.r1.rand", _change_witness_term),
        ("ut3.r1.std", _drop_translate),
        ("ut3.r1.std", _drop_chain_element),
    ],
)
def test_growth_checker_rejects_a_perturbed_report(growth_reports, label, perturb):
    op, summary = next((op, s) for op, s in growth_reports if op.label == label)
    checks.check_growth_report(op.data, summary)
    bent = copy.deepcopy(summary)
    perturb(bent)
    with pytest.raises(CheckError):
        checks.check_growth_report(op.data, bent)


@pytest.fixture(scope="module")
def cli_outputs():
    wl = workloads.Cli(M, seed=3)
    ops = wl.make_ops()
    return ops, [op.fn() for op in ops]


def _edit_json(out: bytes, edit) -> bytes:
    obj = json.loads(out)
    edit(obj)
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def _hall_count(o):
    o["count"] += 1


def _table_coefficient(o):
    o[0]["coefficient"] = "-1/3"


def _word_exponent(o):
    o["word"] = re.sub(r"\^(-?[0-9]+)", lambda m: f"^{int(m.group(1)) + 1}", o["word"], count=1)


def _lie_float(o):
    o[next(iter(o))] = 0.5


def _cover_k(o):
    o["cover"]["k"] = o["ball"]["size_aa"] + 1


def _witness_power(o):
    o["sum_containment"]["max_witness_power"] += 1


@pytest.mark.parametrize(
    "label,edit",
    [
        ("hall", _hall_count),
        ("bch", _lie_float),
        ("bch-table", _table_coefficient),
        ("synth-sum", _word_exponent),
        ("synth-power", _word_exponent),
        ("extract-bracket", lambda o: o.update(_bump_first(o))),
        ("growth", _cover_k),
        ("growth", _witness_power),
    ],
)
def test_cli_checker_rejects_an_edited_output(cli_outputs, label, edit):
    ops, outs = cli_outputs
    i = next(j for j, op in enumerate(ops) if op.label == label)
    rng = random.Random(5)
    checks.check_cli(i, ops, outs, rng)
    bent = list(outs)
    bent[i] = (outs[i][0], _edit_json(outs[i][1], edit))
    with pytest.raises(CheckError):
        checks.check_cli(i, ops, bent, rng)


def test_cli_checker_rejects_thread_dependent_output(cli_outputs):
    ops, outs = cli_outputs
    i = next(j for j, op in enumerate(ops) if op.label == "verify-t2")
    checks.check_cli(i, ops, outs, random.Random(5))
    bent = list(outs)
    bent[i] = (0, outs[i][1].replace(b'"seed":3', b'"seed": 3'))
    with pytest.raises(CheckError):
        checks.check_cli(i, ops, bent, random.Random(5))


def test_cli_checker_rejects_a_failed_exit(cli_outputs):
    ops, outs = cli_outputs
    bent = list(outs)
    bent[0] = (4, outs[0][1])
    with pytest.raises(CheckError):
        checks.check_cli(0, ops, bent, random.Random(5))
