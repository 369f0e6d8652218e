"""Command-line front end.

All results go to stdout (and, verbatim, to --out when given) as compact
single-line JSON or as plain text lines; timing goes to stderr so output
stays byte-identical across runs for a fixed seed.
Exit codes: 0 success, 2 validation error, 3 size cap, 4 broken invariant.
Each command imports the modules it runs, so a start without bytecode
caches compiles only those.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .errors import (
    DEFAULT_SIZE_CAP,
    ContextMismatchError,
    DivisibilityError,
    GradingError,
    InternalInvariantError,
    SizeCapError,
    UnboundSymbolError,
    WordSyntaxError,
    printable_size,
)

DEFAULT_SEED = 7


class _ExitCode(Exception):
    def __init__(self, code: int):
        self.code = code


def _report(code: int, kind: str, message: str, **extra) -> int:
    obj = {"error": kind, "message": message}
    obj.update(extra)
    sys.stderr.write(json.dumps(obj, separators=(",", ":")) + "\n")
    return code


def _fail(code: int, kind: str, message: str, **extra):
    raise _ExitCode(_report(code, kind, message, **extra))


class _Parser(argparse.ArgumentParser):
    # argparse would print usage text; emit the error object instead
    def error(self, message):
        _fail(2, "usage", message)


def _emit(args, payload, lines):
    if args.format == "json":
        out = json.dumps(payload, separators=(",", ":")) + "\n"
    else:
        out = "\n".join(lines) + "\n"
    sys.stdout.write(out)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(out)
        except OSError as e:
            _fail(2, "usage", f"cannot write --out: {e}")


# ---------------------------------------------------------------------------
# subcommands

def _check_law_cap(num_generators: int, step: int, cap: int) -> None:
    """Refuse when the Hall dimension of (num_generators, step) or the law
    table's 2^(step+1) - 4 patterns is past the cap; checked before any work.
    For at most two generators from step 2 on, the Hall dimension is at most
    2^step (each Lyndon word of length k has k distinct rotations, so there
    are at most 2^k/k), and Witt's sum, O(step^2) big-int work, is skipped."""
    from .algebra import AlgebraContext, dimensions_by_degree

    ctx = AlgebraContext(num_generators, step)
    size = 2 ** (step + 1) - 4
    if num_generators > 2 or step < 2:
        size = max(sum(dimensions_by_degree(ctx).values()), size)
    if size > cap:
        raise SizeCapError("bch law table", size, cap)


def _cmd_hall(args) -> int:
    from .algebra import AlgebraContext, dimensions_by_degree, hall_basis, tree_str

    ctx = AlgebraContext(args.gens, args.step)
    total = sum(dimensions_by_degree(ctx).values())
    if total > args.cap:
        raise SizeCapError("hall basis", total, args.cap)
    words = [tree_str(t, ctx.symbols) for t in hall_basis(ctx)]
    payload = {
        "gens": args.gens,
        "step": args.step,
        "count": len(words),
        "words": words,
    }
    _emit(args, payload, words)
    return 0


def _cmd_bch(args) -> int:
    from .algebra import AlgebraContext
    from .bch import bch, bch_tail_table
    from .jsonio import lie_to_json, rational_str, table_to_json

    _check_law_cap(2, args.step, args.cap)
    ctx = AlgebraContext(2, args.step)
    if args.degree_table:
        table = bch_tail_table(ctx).items()
        payload = table_to_json(table)
        lines = [
            f"{','.join(map(str, alpha))} {rational_str(c)}" for alpha, c in table
        ]
    else:
        z = bch(ctx.generator(0), ctx.generator(1))
        payload = lie_to_json(z)
        lines = [f"{k} = {v}" for k, v in payload.items()]
    _emit(args, payload, lines)
    return 0


def _cmd_synth_sum(args) -> int:
    from .identities import _check_synthesis_size, sum_word
    from .words import serialize

    _check_synthesis_size(2, args.step)
    _check_law_cap(2, args.step, args.cap)
    sw = sum_word(args.step)
    payload = {
        "m": sw.m,
        "word": serialize(sw.word),
        "length": sw.length,
        "certificate": "exact",
    }
    _emit(args, payload, [f"{k} = {v}" for k, v in payload.items()])
    return 0


def _cmd_synth_power(args) -> int:
    from .identities import _check_power_args, power_word_synthesis
    from .words import serialize

    _check_power_args(args.T, args.gens, args.level, args.step)
    _check_law_cap(args.gens, args.step, args.cap)
    res = power_word_synthesis(args.T, args.gens, args.level, args.step)
    cert = res.certificate
    payload = {
        "step": args.step,
        "gens": args.gens,
        "level": args.level,
        "T": args.T,
        "divisors": list(res.divisors),
        "word": serialize(res.word),
        "residual_degrees": sorted(cert.residual.degrees()),
        "min_residual_degree": cert.min_residual_degree,
    }
    lines = [
        f"divisors = {','.join(map(str, res.divisors))}",
        f"word = {payload['word']}",
        f"residual_degrees = {','.join(map(str, payload['residual_degrees']))}",
        f"min_residual_degree = {cert.min_residual_degree}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_extract_bracket(args) -> int:
    from .algebra import AlgebraContext
    from .group import exp
    from .identities import extract_bracket
    from .jsonio import lie_from_json, lie_to_json

    try:
        data = json.load(sys.stdin)
    except json.JSONDecodeError as e:
        _fail(2, "json", f"invalid JSON on stdin: {e}")
    if not isinstance(data, list) or len(data) != 2:
        _fail(2, "json", "expected a JSON array of exactly two element logs")
    _check_law_cap(args.gens, args.step, args.cap)
    ctx = AlgebraContext(args.gens, args.step)
    a = exp(lie_from_json(data[0], ctx))
    b = exp(lie_from_json(data[1], ctx))
    z = extract_bracket(a, b)
    payload = lie_to_json(z)
    _emit(args, payload, [f"{k} = {v}" for k, v in payload.items()])
    return 0


def _cmd_verify(args) -> int:
    from .verify import check_suite_args, run_suite

    check_suite_args(args.step, args.trials)
    _check_law_cap(2, args.step, args.cap)
    report = run_suite(args.step, args.trials, args.seed)
    lines = [
        f"{c['name']}: {'pass' if c['pass'] else 'FAIL'} ({c['count']} checks)"
        for c in report["checks"]
    ]
    lines.append(f"all-pass: {str(report['all_pass']).lower()}")
    _emit(args, report, lines)
    return 0 if report["all_pass"] else 4


def _parse_powers(text: str) -> list[int]:
    try:
        out = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        out = []
    if not out or any(k < 1 for k in out):
        raise ValueError(f"--powers needs comma-separated positive ints, got {text!r}")
    return out


def _cmd_growth(args) -> int:
    from .algebra import AlgebraContext
    from .growth import (
        _check_sample,
        check_commutator_containment,
        check_sum_containment,
        compute_B_chain,
        find_cover,
        generate_ball,
        log_set,
        powers_up_to,
        sumset,
        ut_generators,
    )
    from .identities import _check_synthesis_size, containment_certificate
    from .jsonio import rational_str
    from .matrices import nil_zero

    if args.group != "ut":
        raise ValueError(f"unknown group family {args.group!r}")
    if args.dim < 3:
        raise ValueError("need dimension at least 3 for a nonabelian report")
    # the sum containment check needs the sum word at step dim - 1
    _check_synthesis_size(2, args.dim - 1)
    _check_sample(args.mode, args.sample_size)
    powers = _parse_powers(args.powers)
    k1, k2 = powers[0], powers[1] if len(powers) > 1 else powers[0]
    n = args.dim - 1
    t0 = time.perf_counter()

    ball = generate_ball(args.dim, ut_generators(args.dim), args.radius, cap=args.cap)
    cover = find_cover(ball, cap=args.cap)
    la = log_set(ball)
    ss = sumset(la, la, cap=args.cap)
    pw = powers_up_to(ball, max(powers), cap=args.cap)
    sc = check_sum_containment(
        ball,
        k1,
        k2,
        n,
        mode=args.mode,
        sample_size=args.sample_size,
        seed=args.seed,
        cap=args.cap,
    )
    chain = compute_B_chain(ball, n, cap=args.cap)
    top_trivial = chain[n] == frozenset({nil_zero(args.dim)})

    payload = {
        "group": args.group,
        "dim": args.dim,
        "radius": args.radius,
        "mode": args.mode,
        "seed": args.seed,
        "ball": {
            "size": len(ball),
            "size_aa": cover.size_aa,
            "doubling": rational_str(Fraction(cover.size_aa, len(ball))),
        },
        "cover": {"k": cover.k},
        "log": {
            "size": len(la),
            "sumset_size": len(ss),
            "ratio": rational_str(Fraction(len(ss), len(la))),
        },
        "powers": [{"k": k, "size": len(pw[k - 1])} for k in powers],
        "sum_containment": {
            "step": sc.step,
            "k1": sc.k1,
            "k2": sc.k2,
            "m": sc.m,
            "word_length": sc.word_length,
            "bound_power": sc.bound_power,
            "checked_pairs": sc.checked_pairs,
            "failures": sc.failures,
            "max_witness_power": sc.max_witness_power,
            "pass": sc.failures == 0,
        },
        "b_chain": {"sizes": [len(b) for b in chain], "top_trivial": top_trivial},
    }
    ok = sc.failures == 0 and top_trivial
    if n == 2:
        cert = containment_certificate(1, AlgebraContext(2, 2))
        bc = check_commutator_containment(
            ball,
            1,
            cert,
            mode=args.mode,
            sample_size=args.sample_size,
            seed=args.seed,
            cap=args.cap,
        )
        payload["bracket_containment"] = {
            "j": bc.j,
            "set_size": bc.set_size,
            "checked": bc.checked,
            "failures": bc.failures,
            "pass": bc.failures == 0,
        }
        ok = ok and bc.failures == 0
    elapsed = time.perf_counter() - t0
    sys.stderr.write(f"timing: total={elapsed:.3f}s\n")

    lines = [
        f"ball size = {len(ball)}",
        f"AA size = {cover.size_aa} (doubling {payload['ball']['doubling']})",
        f"cover k = {cover.k}",
        f"log sumset ratio = {payload['log']['ratio']}",
        f"sum containment: {sc.failures} failures / {sc.checked_pairs} pairs",
        f"b-chain sizes = {','.join(map(str, payload['b_chain']['sizes']))}",
    ]
    if "bracket_containment" in payload:
        bc = payload["bracket_containment"]
        lines.append(
            f"bracket containment: {bc['failures']} failures / {bc['checked']} checked"
        )
    _emit(args, payload, lines)
    return 0 if ok else 4


# ---------------------------------------------------------------------------
# parser assembly

def _build_parser() -> _Parser:
    top = _Parser(prog="nilbch", description=__doc__.splitlines()[0])
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; no effect"
    )
    common.add_argument("--cap", type=int, default=DEFAULT_SIZE_CAP)
    common.add_argument("--out", default=None, help="also write output to a file")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hall", parents=[common], help="Hall basis words")
    p.add_argument("--gens", type=int, required=True)
    p.add_argument("--step", type=int, required=True)
    p.set_defaults(fn=_cmd_hall)

    p = sub.add_parser("bch", parents=[common], help="composition log on two letters")
    p.add_argument("--step", type=int, required=True)
    p.add_argument("--degree-table", action="store_true")
    p.set_defaults(fn=_cmd_bch)

    p = sub.add_parser("synth-sum", parents=[common], help="exact sum word")
    p.add_argument("--step", type=int, required=True)
    p.set_defaults(fn=_cmd_synth_sum)

    p = sub.add_parser(
        "synth-power", parents=[common], help="power word with cleared low degrees"
    )
    p.add_argument("--step", type=int, required=True)
    p.add_argument("--gens", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.set_defaults(fn=_cmd_synth_power)

    p = sub.add_parser(
        "extract-bracket",
        parents=[common],
        help="bracket of two element logs read from stdin",
    )
    p.add_argument("--step", type=int, required=True)
    p.add_argument("--gens", type=int, default=2)
    p.set_defaults(fn=_cmd_extract_bracket)

    p = sub.add_parser(
        "verify-identities", parents=[common], help="run the oracle suite"
    )
    p.add_argument("--step", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("growth", parents=[common], help="finite ball growth report")
    p.add_argument("--group", default="ut")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--powers", default="1,1")
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--sample-size", type=int, default=50)
    p.set_defaults(fn=_cmd_growth)

    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except _ExitCode as e:
        return e.code
    except DivisibilityError as e:
        return _report(
            2, "divisibility", str(e), required=e.required, got=e.got, degree=e.degree
        )
    except (
        WordSyntaxError,
        UnboundSymbolError,
        GradingError,
        ContextMismatchError,
        ValueError,
    ) as e:
        return _report(2, "validation", str(e))
    except SizeCapError as e:
        return _report(
            3, "size-cap", str(e), what=e.what, size=printable_size(e.size), cap=e.cap
        )
    except InternalInvariantError as e:
        return _report(4, "internal-invariant", str(e))


def run(argv=None):
    sys.exit(main(argv))
