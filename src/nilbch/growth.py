"""Growth experiments on discrete unipotent matrix groups.

Everything here is exact finite-set arithmetic: balls are enumerated by
breadth-first search, product sets and log-set sumsets are literal, and the
containment checks assert the identities that the word synthesis and the
containment certificates promise. The loops run on triangles (`.tri`
tuples) with the arithmetic of `matrices.triangles(d)`, looked up before
each loop; a matrix is built only for what a public function returns, in the
order first made; logs, bracket levels and sumsets stay int numerators over
one denominator. The greedy cover recounts a candidate only when it tops a
heap of stale counts. Reports read canonically sorted triangles (row-major
entry order, kept by positive scaling): deterministic, whatever the set-hash
order.
"""

from __future__ import annotations

import heapq
import random
from collections import defaultdict
from math import lcm
from operator import attrgetter

from .errors import DEFAULT_SIZE_CAP, InternalInvariantError, SizeCapError
from .identities import ContainmentCertificate, sum_word
from .matrices import (
    NilpotentMatrix,
    UnipotentMatrix,
    _dim,
    _quotients,
    mat_inverse,
    nil_scale,
    nil_zero,
    triangles,
)
from .record import Record


class FiniteGroupSet(Record):
    """A finite set of unipotent matrices of one dimension. It keeps what
    later checks on the same set reuse, all as frozensets of triangles: the
    powers A^1, A^2, ... it has enumerated, their log sets as int numerators
    over den = lcm(1..d-1) e^(d-1), and its bracket chain, B_j over
    den^(j+1). e times any entry of a power is an int (an entry k places
    above the diagonal sums k-fold products at most); in UT(d, Z), e = 1."""

    __slots__ = ("dim", "elements", "_kept")

    def __init__(self, dim: int, elements: frozenset):
        if elements and _dim(UnipotentMatrix, *elements) != dim:
            raise ValueError("elements must have the dimension of the set")
        super().__init__(dim, elements)
        tris, n = frozenset(_tris(elements)), max(dim - 1, 0)
        e = lcm(*[v.denominator for t in tris for v in t]) ** n
        kept = {"powers": [tris], "logs": {}, "chain": [], "e": e, "den": lcm(*range(1, dim)) * e**n}
        object.__setattr__(self, "_kept", kept)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        # the triangle sorts as the full rows do: the diagonal and below are constant
        return iter(sorted(self.elements, key=attrgetter("tri")))

    def __contains__(self, m) -> bool:
        return m in self.elements


class CoverReport(Record):
    """Greedy covering of AA by translates of A; k bounds the multiplicative
    constant from above."""

    __slots__ = ("size_a", "size_aa", "k", "translates")


class SumContainmentReport(Record):
    """Exhaustive or sampled verification that scaled pairwise sums of logs
    land back in the log of a bounded power set."""

    __slots__ = (
        "step",
        "k1",
        "k2",
        "m",
        "word_length",
        "bound_power",
        "checked_pairs",
        "failures",
        "max_witness_power",
    )


class BracketContainmentReport(Record):
    """Verification that iterated-bracket elements are witnessed inside the
    certificate sumset; witnesses list one exact decomposition per element."""

    __slots__ = ("j", "set_size", "checked", "failures", "witnesses")


def _check_cap(what: str, size: int, cap: int):
    if size > cap:
        raise SizeCapError(what, size, cap)


def _image(op, xs, ys, what: str, cap: int) -> dict:
    """{op(x, y) : x in xs, y in ys} as a dict in the order first made, with
    the cap checked after each x."""
    out: dict = {}
    for x in xs:
        for y in ys:
            out[op(x, y)] = None
        _check_cap(what, len(out), cap)
    return out


def _grow(seen: dict, new, factors, mul, what: str, cap: int) -> list:
    """One frontier step: the products x*y (x in new, y in factors) not in
    seen, in the order first made. They are added to seen and returned; the
    cap bounds all of seen."""
    nxt = []
    for x in new:
        for y in factors:
            h = mul(x, y)
            if h not in seen:
                seen[h] = None
                nxt.append(h)
    _check_cap(what, len(seen), cap)
    return nxt


def _wrap(kind: type, d: int, tris, den: int = 1) -> frozenset:
    """The matrices of the numerator triangles over den, in the order given."""
    return frozenset({kind._raw(d, _quotients(t, den)) for t in tris})


def _tris(elements) -> list:
    return [m.tri for m in elements]


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
    tri = triangles(d)
    seen = {tri.zero: None}
    frontier = list(seen)
    for _ in range(radius):
        new = _grow(seen, frontier, _tris(gens), tri.mul, "ball", cap)
        if not new:
            break
        # iterate the frontier as a set of its matrices: the ball's iteration
        # order, and so where a later capped loop over it trips, depends on it
        frontier = _tris({UnipotentMatrix._raw(d, t) for t in new})
    return FiniteGroupSet(d, _wrap(UnipotentMatrix, d, seen))


def product_set(
    a: FiniteGroupSet, b: FiniteGroupSet, *, cap: int = DEFAULT_SIZE_CAP
) -> FiniteGroupSet:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    out = _image(triangles(a.dim).mul, _tris(a.elements), _tris(b.elements), "product set", cap)
    return FiniteGroupSet(a.dim, _wrap(UnipotentMatrix, a.dim, out))


def _power(a: FiniteGroupSet, k: int, cap: int) -> frozenset:
    """A^k as triangles, enumerating only the powers that `a` has not kept
    yet. Every A^p with 1 < p <= k meets the cap, kept or not.

    When the identity belongs to A the powers are nested, so each step only
    multiplies the elements new in the previous power by A; otherwise A^p is
    the literal product A^(p-1) A. Either way A^p is the literal power set.
    """
    kept, tri = a._kept["powers"], triangles(a.dim)
    base, mul = _tris(a.elements), tri.mul
    nested = tri.zero in kept[0]
    for p in range(2, k + 1):
        if p > len(kept):
            if nested:
                seen = dict.fromkeys(kept[-1])
                new = kept[-1] - kept[-2] if p > 2 else kept[-1]
                _grow(seen, new, base, mul, "product set", cap)
                kept.append(frozenset(seen))
            else:
                xs = kept[-1] if p > 2 else base
                kept.append(frozenset(_image(mul, xs, base, "product set", cap)))
        _check_cap("product set", len(kept[p - 1]), cap)
    return kept[k - 1]


def power_set(
    a: FiniteGroupSet, k: int, *, cap: int = DEFAULT_SIZE_CAP
) -> FiniteGroupSet:
    """The power set A^k, computed incrementally and kept on `a`."""
    if k < 1:
        raise ValueError("power must be at least 1")
    power = _power(a, k, cap)
    return FiniteGroupSet(a.dim, a.elements if k == 1 else _wrap(UnipotentMatrix, a.dim, power))


def powers_up_to(
    a: FiniteGroupSet, k: int, *, cap: int = DEFAULT_SIZE_CAP
) -> list[FiniteGroupSet]:
    """The power sets A^1..A^k, computed incrementally and kept on `a`."""
    if k < 1:
        raise ValueError("power must be at least 1")
    return [power_set(a, p, cap=cap) for p in range(1, k + 1)]


def inverse_set(a: FiniteGroupSet) -> FiniteGroupSet:
    return FiniteGroupSet(a.dim, frozenset(mat_inverse(x) for x in a.elements))


def _log_power(a: FiniteGroupSet, p: int, cap: int) -> frozenset:
    """log(A^p) as int numerator triangles, taken once per power and kept."""
    power = _power(a, p, cap)
    logs, e = a._kept["logs"], a._kept["e"]
    got = logs.get(p)
    if got is None:
        log_num = triangles(a.dim).log_num
        ints = power if e == 1 else [[(v * e).numerator for v in t] for t in power]
        got = logs[p] = frozenset([log_num(t, e)[0] for t in ints])
        if len(got) != len(power):
            raise InternalInvariantError("log collided on a finite set")
    return got


def log_set(a: FiniteGroupSet) -> frozenset:
    return _wrap(NilpotentMatrix, a.dim, _log_power(a, 1, DEFAULT_SIZE_CAP), a._kept["den"])


def sumset(s, t, *, cap: int = DEFAULT_SIZE_CAP) -> frozenset:
    """{x + y : x in s, y in t}, added as int numerators over the lcm of all
    the entries' denominators and divided once."""
    d = _dim(NilpotentMatrix, *s, *t) if s and t else 0
    tris = _tris(s), _tris(t)
    den = lcm(*[v.denominator for ts in tris for x in ts for v in x])
    xs, ys = ([tuple([v.numerator * (den // v.denominator) for v in x]) for x in ts] for ts in tris)
    return _wrap(NilpotentMatrix, d, _image(triangles(d).add, xs, ys, "sumset", cap), den)


def scale_set(s, q) -> frozenset:
    return frozenset(nil_scale(x, q) for x in s)


def find_cover(a: FiniteGroupSet, *, cap: int = DEFAULT_SIZE_CAP) -> CoverReport:
    """Greedy cover of AA by translates x*A with x drawn from AA*A^-1.

    T_x = xA ∩ AA is the set of z in AA with z*y = x for a y in A^-1, so
    one pass over AA x A^-1 builds it. Each round takes the first x in
    canonical order with the most of T_x still uncovered, so ties break
    deterministically and the translate list is reproducible. Counts only
    fall, so a heap of (-count, index) recounts only its top, which wins
    when its count is still current.
    """
    aa = product_set(a, a, cap=cap)
    mul, inverses, found = triangles(a.dim).mul, _tris(inverse_set(a).elements), defaultdict(set)
    for z in _tris(aa.elements):
        for y in inverses:
            found[mul(z, y)].add(z)
        _check_cap("product set", len(found), cap)
    candidates = sorted(found)
    hits, uncovered = [found[x] for x in candidates], set(_tris(aa.elements))
    heap = [(-len(hit), i) for i, hit in enumerate(hits)]
    heapq.heapify(heap)
    translates = []
    while uncovered:
        stale, i = heap[0]
        count = len(hits[i] & uncovered)
        if count == -stale:
            if not count:
                raise InternalInvariantError(f"cover stalled with {len(uncovered)} uncovered")
            translates.append(UnipotentMatrix._raw(a.dim, candidates[i]))
            uncovered -= hits[i]
            count = 0
        heapq.heapreplace(heap, (-count, i))
    return CoverReport(len(a), len(aa), len(translates), tuple(translates))


def _find_min_powers(a: FiniteGroupSet, targets, bound: int, cap: int) -> dict:
    """Least p <= bound with target / den in log(A^p), enumerating the powers
    only until every target is found. exp is a bijection onto the unipotent
    triangles with inverse log, so each target is exponentiated once and
    looked up in A^p, p = 1, 2, ...: no log is taken."""
    exp_num, den = triangles(a.dim).exp_num, a._kept["den"]
    remaining = {_quotients(*exp_num(t, den)): t for t in set(targets)}
    found: dict = {}
    for p in range(1, bound + 1):
        if not remaining:
            break
        for g in remaining.keys() & _power(a, p, cap):
            found[remaining.pop(g)] = p
    return found


def _check_sample(mode: str, sample_size: int) -> None:
    """Refuse a containment check's mode and sample size before it enumerates:
    a sample of no element would check nothing and pass."""
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if sample_size < 1:
        raise ValueError(f"sample size must be at least 1, got {sample_size}")


def _sample(items: list, mode: str, sample_size: int, seed: int) -> list:
    """All of items, or in sampled mode a seeded subset in the same order."""
    if mode == "sampled" and len(items) > sample_size:
        rng = random.Random(seed)
        return [items[i] for i in sorted(rng.sample(range(len(items)), sample_size))]
    return items


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
    _check_sample(mode, sample_size)
    sw = sum_word(n)
    bound = sw.length * max(k1, k2)
    us = sorted(_log_power(a, k1, cap))
    vs = sorted(_log_power(a, k2, cap))
    pairs = _sample([(u, v) for u in us for v in vs], mode, sample_size, seed)
    targets = [tuple([sw.m * (x + y) for x, y in zip(u, v)]) for u, v in pairs]
    min_power = _find_min_powers(a, targets, bound, cap)
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
    The levels are kept on `a`, B_j as int numerators over den^(j+1); a
    kept level still meets the cap.

    Nilpotence forces B_n = {0} when A lives in UT(n+1, Z).
    """
    chain, den = a._kept["chain"], a._kept["den"]
    if not chain:
        chain.append(_log_power(a, 1, DEFAULT_SIZE_CAP))
    bracket = triangles(a.dim).bracket
    for j in range(1, n + 1):
        if j < len(chain):
            _check_cap("bracket set", len(chain[j]), cap)
        else:
            chain.append(frozenset(_image(bracket, chain[0], chain[-1], "bracket set", cap)))
    return [_wrap(NilpotentMatrix, a.dim, b, den ** (j + 1)) for j, b in enumerate(chain[: n + 1])]


def _witness_search(target, term_sets, idx, add):
    """First (canonical order) decomposition of target across the term sets.
    Every set but the last is a list of (t, -t) in canonical order; the last
    is a lookup table."""
    if idx == len(term_sets) - 1:
        return (target,) if target in term_sets[idx] else None
    for t, minus_t in term_sets[idx]:
        rest = _witness_search(add(target, minus_t), term_sets, idx + 1, add)
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
    _check_sample(mode, sample_size)
    n = a.dim - 1
    chain = compute_B_chain(a, min(j, n), cap=cap)
    bj = chain[j] if j < len(chain) else frozenset({nil_zero(a.dim)})
    if not cert.rationals:
        # trivial certificate: valid only for the trivial bracket set
        failures = sum(1 for x in bj if x != nil_zero(a.dim))
        witnesses = tuple((x, ()) for x in bj if x == nil_zero(a.dim))
        return BracketContainmentReport(j, len(bj), len(bj), failures, witnesses)
    # B_j and each q_i log(A^(k_i)) go over one denominator: ints from here on
    den, qs, add = a._kept["den"], cert.rationals, triangles(a.dim).add
    common = lcm(*[v.denominator for x in bj for v in x.tri], *[den * q.denominator for q in qs])
    factors = [q.numerator * common // (den * q.denominator) for q in qs]
    term_sets = [
        frozenset([tuple([c * v for v in t]) for t in _log_power(a, k, cap)])
        for c, k in zip(factors, cert.exponents)
    ]
    # earlier sets are scanned in canonical order, each term negated once
    term_sets[:-1] = [[(t, tuple([-v for v in t])) for t in sorted(s)] for s in term_sets[:-1]]
    targets = _sample(sorted(bj, key=attrgetter("tri")), mode, sample_size, seed)
    scaled = [tuple([(v * common).numerator for v in x.tri]) for x in targets]
    results = [(x, _witness_search(t, term_sets, 0, add)) for x, t in zip(targets, scaled)]
    failures = sum(1 for _, w in results if w is None)
    raw = NilpotentMatrix._raw
    witnesses = tuple(
        (x, tuple(raw(n + 1, _quotients(t, common)) for t in w)) for x, w in results if w is not None
    )
    return BracketContainmentReport(j, len(bj), len(targets), failures, witnesses)
