"""Growth experiments on discrete unipotent matrix groups.

Everything here is exact finite-set arithmetic: balls are enumerated by
breadth-first search, product sets and log-set sumsets are literal, and the
containment checks assert the identities that the word synthesis and the
containment certificates promise. Iteration is always over canonically
sorted elements (row-major entry order), so reports are deterministic and
independent of set-hash order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, islice
from operator import attrgetter

from .errors import InternalInvariantError, SizeCapError
from .identities import ContainmentCertificate, sum_word
from .matrices import (
    NilpotentMatrix,
    UnipotentMatrix,
    mat_exp,
    mat_identity,
    mat_inverse,
    mat_log,
    mat_mul,
    nil_add,
    nil_scale,
    nil_bracket,
    nil_zero,
)

DEFAULT_SIZE_CAP = 2 * 10**6

LogSet = frozenset


@dataclass(frozen=True)
class FiniteGroupSet:
    """A finite set of unipotent matrices with a provenance note."""

    dim: int
    elements: frozenset
    provenance: str
    symmetric: bool = False

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(_sorted(self.elements))

    def __contains__(self, m) -> bool:
        return m in self.elements


@dataclass(frozen=True)
class CoverReport:
    """Greedy covering of AA by translates of A; k bounds the multiplicative
    constant from above."""

    size_a: int
    size_aa: int
    k: int
    translates: tuple[UnipotentMatrix, ...]


@dataclass(frozen=True)
class SumContainmentReport:
    """Exhaustive or sampled verification that scaled pairwise sums of logs
    land back in the log of a bounded power set."""

    step: int
    k1: int
    k2: int
    m: int
    word_length: int
    bound_power: int
    checked_pairs: int
    failures: int
    max_witness_power: int


@dataclass(frozen=True)
class BracketContainmentReport:
    """Verification that iterated-bracket elements are witnessed inside the
    certificate sumset; witnesses list one exact decomposition per element."""

    j: int
    set_size: int
    checked: int
    failures: int
    witnesses: tuple


def _sorted(elements):
    # the triangle sorts as the full rows do: the diagonal and below are constant
    return sorted(elements, key=attrgetter("tri"))


def _check_cap(what: str, size: int, cap: int):
    if size > cap:
        raise SizeCapError(what, size, cap)


def ut_generators(d: int) -> list[UnipotentMatrix]:
    """Superdiagonal generators of UT(d, Z) together with their inverses."""
    if d < 2:
        raise ValueError("need dimension at least 2")
    out = []
    for i in range(d - 1):
        rows = [[int(c == r or (r, c) == (i, i + 1)) for c in range(d)] for r in range(d)]
        g = UnipotentMatrix(rows)
        out += [g, mat_inverse(g)]
    return out


def generate_ball(
    d: int, generators, radius: int, *, cap: int = DEFAULT_SIZE_CAP
) -> FiniteGroupSet:
    """Breadth-first ball of the given radius in the word metric."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    gens = list(generators)
    for g in gens:
        if g.dim != d:
            raise ValueError("generator dimension mismatch")
    gset = set(gens)
    for g in gens:
        if mat_inverse(g) not in gset:
            raise ValueError("generators must be closed under inverse")
    seen = {mat_identity(d)}
    frontier = set(seen)
    for _ in range(radius):
        nxt = set()
        for g in frontier:
            for s in gens:
                h = mat_mul(g, s)
                if h not in seen:
                    seen.add(h)
                    nxt.add(h)
        _check_cap("ball", len(seen), cap)
        if not nxt:
            break
        frontier = nxt
    return FiniteGroupSet(d, frozenset(seen), f"ball(radius={radius})", symmetric=True)


def product_set(
    a: FiniteGroupSet, b: FiniteGroupSet, *, cap: int = DEFAULT_SIZE_CAP
) -> FiniteGroupSet:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    out = set()
    for x in a.elements:
        for y in b.elements:
            out.add(mat_mul(x, y))
        _check_cap("product set", len(out), cap)
    symmetric = a.symmetric and a.elements == b.elements
    return FiniteGroupSet(
        a.dim, frozenset(out), f"({a.provenance})*({b.provenance})", symmetric
    )


def _powers(a: FiniteGroupSet, cap: int):
    """Yield (A^p, the elements of A^p in no earlier power) for p = 1, 2, ...

    When the identity belongs to A the powers are nested, so each step only
    multiplies the previous step's new elements by A; otherwise A^p is the
    literal product A^(p-1) A. Either way A^p is the literal power set.
    """
    nested = mat_identity(a.dim) in a.elements
    power, new = a, a.elements
    seen = set(new)
    p = 1
    while True:
        yield power, new
        p += 1
        if nested:
            nxt = set()
            for x in new:
                for y in a.elements:
                    h = mat_mul(x, y)
                    if h not in seen:
                        seen.add(h)
                        nxt.add(h)
            _check_cap("product set", len(seen), cap)
            new = nxt
            elements = frozenset(seen)
        else:
            elements = product_set(power, a, cap=cap).elements
            new = elements - seen
            seen |= new
        power = FiniteGroupSet(a.dim, elements, f"({a.provenance})^{p}", a.symmetric)


def power_set(
    a: FiniteGroupSet, k: int, *, cap: int = DEFAULT_SIZE_CAP
) -> FiniteGroupSet:
    return powers_up_to(a, k, cap=cap)[-1]


def powers_up_to(
    a: FiniteGroupSet, k: int, *, cap: int = DEFAULT_SIZE_CAP
) -> list[FiniteGroupSet]:
    """The power sets A^1..A^k, computed incrementally."""
    if k < 1:
        raise ValueError("power must be at least 1")
    return [power for power, _ in islice(_powers(a, cap), k)]


def inverse_set(a: FiniteGroupSet) -> FiniteGroupSet:
    return FiniteGroupSet(
        a.dim,
        frozenset(mat_inverse(x) for x in a.elements),
        f"({a.provenance})^-1",
        a.symmetric,
    )


def log_set(a: FiniteGroupSet) -> frozenset:
    out = frozenset(mat_log(x) for x in a.elements)
    if len(out) != len(a.elements):
        raise InternalInvariantError("log collided on a finite set")
    return out


def sumset(s, t, *, cap: int = DEFAULT_SIZE_CAP) -> frozenset:
    out = set()
    for x in s:
        for y in t:
            out.add(nil_add(x, y))
        _check_cap("sumset", len(out), cap)
    return frozenset(out)


def scale_set(s, q) -> frozenset:
    return frozenset(nil_scale(x, q) for x in s)


def find_cover(a: FiniteGroupSet, *, cap: int = DEFAULT_SIZE_CAP) -> CoverReport:
    """Greedy cover of AA by translates x*A with x drawn from AA*A^-1.

    T_x = xA ∩ AA is computed once per candidate x. Each round takes the first
    x in canonical order with the most of T_x still uncovered, so ties break
    deterministically and the translate list is reproducible.
    """
    aa = product_set(a, a, cap=cap)
    candidates = _sorted(product_set(aa, inverse_set(a), cap=cap).elements)
    uncovered = set(aa.elements)
    hits = [(x, {mat_mul(x, y) for y in a.elements} & uncovered) for x in candidates]
    translates: list[UnipotentMatrix] = []
    while uncovered:
        best, covered = max(hits, key=lambda hit: len(hit[1] & uncovered))
        if not covered & uncovered:
            raise SizeCapError("cover stalled", len(uncovered), cap)
        translates.append(best)
        uncovered -= covered
    return CoverReport(len(a), len(aa), len(translates), tuple(translates))


def _find_min_powers(powers, targets, bound: int) -> dict:
    """Least p <= bound with target in log(A^p), reading the (A^p, new)
    pairs of `powers` lazily and stopping once every target is found. exp is
    a bijection onto the unipotent triangles with inverse log, so each target
    is exponentiated once and looked up in the new elements: no log is taken."""
    remaining = {mat_exp(t): t for t in set(targets)}
    found: dict = {}
    for p in range(1, bound + 1):
        if not remaining:
            break
        _, new = next(powers)
        for g in remaining.keys() & new:
            found[remaining.pop(g)] = p
    return found


def check_sum_containment(
    a: FiniteGroupSet,
    k1: int,
    k2: int,
    n: int,
    *,
    mode: str = "exhaustive",
    sample_size: int = 50,
    seed: int = 7,
    cap: int = DEFAULT_SIZE_CAP,
) -> SumContainmentReport:
    """Verify m(u + v) lands in log(A^(l * max(k1, k2))) for u, v ranging
    over the logs of A^k1 and A^k2, where (m, l) come from the sum word at
    step n. This is a theorem for A inside UT(n+1, Z); any failure indicates
    a bug, not an empirical miss.
    """
    if a.dim != n + 1:
        raise ValueError(f"a step-{n} check needs dimension {n + 1}")
    if min(k1, k2) < 1:
        raise ValueError("power must be at least 1")
    sw = sum_word(n)
    bound = sw.length * max(k1, k2)
    # one pass of the powers serves both the sampled sets and the search
    powers = _powers(a, cap)
    base = list(islice(powers, max(k1, k2)))
    us = _sorted(log_set(base[k1 - 1][0]))
    vs = _sorted(log_set(base[k2 - 1][0]))
    pairs = [(u, v) for u in us for v in vs]
    if mode == "sampled":
        rng = random.Random(seed)
        if len(pairs) > sample_size:
            pairs = [pairs[i] for i in sorted(rng.sample(range(len(pairs)), sample_size))]
    elif mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    targets = [nil_scale(nil_add(u, v), sw.m) for u, v in pairs]
    min_power = _find_min_powers(chain(base, powers), targets, bound)
    found = [min_power.get(t) for t in targets]
    failures = sum(1 for p in found if p is None)
    max_witness = max((p for p in found if p is not None), default=0)
    return SumContainmentReport(
        n,
        k1,
        k2,
        sw.m,
        sw.length,
        bound,
        len(pairs),
        failures,
        max_witness,
    )


def compute_B_chain(
    a: FiniteGroupSet, n: int, *, cap: int = DEFAULT_SIZE_CAP
) -> list[frozenset]:
    """B_0 = log A and B_j = brackets of B_0 against B_(j-1), up to B_n.

    Nilpotence forces B_n = {0} when A lives in UT(n+1, Z).
    """
    b0 = log_set(a)
    chain = [b0]
    for _ in range(n):
        prev = chain[-1]
        nxt = set()
        for u in b0:
            for v in prev:
                nxt.add(nil_bracket(u, v))
            _check_cap("bracket set", len(nxt), cap)
        chain.append(frozenset(nxt))
    return chain


def _witness_search(target, term_sets, idx):
    """First (canonical order) decomposition of target across the term sets."""
    s = term_sets[idx]
    if idx == len(term_sets) - 1:
        return (target,) if target in s else None
    for t in s if isinstance(s, list) else _sorted(s):
        rest = _witness_search(nil_add(target, nil_scale(t, -1)), term_sets, idx + 1)
        if rest is not None:
            return (t,) + rest
    return None


def check_commutator_containment(
    a: FiniteGroupSet,
    j: int,
    cert: ContainmentCertificate,
    *,
    mode: str = "exhaustive",
    sample_size: int = 50,
    seed: int = 7,
    cap: int = DEFAULT_SIZE_CAP,
) -> BracketContainmentReport:
    """Search the certificate sumset for every element of B_j.

    Each element must decompose exactly as sum of q_i * w_i with w_i in
    log(A^(k_i)); witnesses record one decomposition per checked element.
    """
    n = a.dim - 1
    chain = compute_B_chain(a, min(j, n), cap=cap)
    bj = chain[j] if j < len(chain) else frozenset({nil_zero(a.dim)})
    if not cert.rationals:
        # trivial certificate: valid only for the trivial bracket set
        failures = sum(1 for x in bj if x != nil_zero(a.dim))
        witnesses = tuple((x, ()) for x in _sorted(bj) if x == nil_zero(a.dim))
        return BracketContainmentReport(j, len(bj), len(bj), failures, witnesses)
    term_sets = []
    for q, k in zip(cert.rationals, cert.exponents):
        s = scale_set(log_set(power_set(a, k, cap=cap)), q)
        term_sets.append(_sorted(s))
    # last set is a lookup table, earlier ones are scanned
    term_sets[-1] = frozenset(term_sets[-1])
    targets = _sorted(bj)
    if mode == "sampled":
        rng = random.Random(seed)
        if len(targets) > sample_size:
            targets = [
                targets[i] for i in sorted(rng.sample(range(len(targets)), sample_size))
            ]
    elif mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    results = [(x, _witness_search(x, term_sets, 0)) for x in targets]
    failures = sum(1 for _, w in results if w is None)
    witnesses = tuple((x, w) for x, w in results if w is not None)
    return BracketContainmentReport(j, len(bj), len(targets), failures, witnesses)
