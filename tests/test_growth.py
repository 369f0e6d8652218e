"""Finite-set growth lab on unipotent matrix groups."""

import io
import json
from contextlib import redirect_stdout
from copy import copy
from fractions import Fraction
from random import Random

import pytest

from nilbch import growth
from nilbch.algebra import AlgebraContext
from nilbch.cli import main
from nilbch.errors import SizeCapError
from nilbch.growth import (
    BracketContainmentReport,
    CoverReport,
    FiniteGroupSet,
    SumContainmentReport,
    check_commutator_containment,
    check_sum_containment,
    compute_B_chain,
    find_cover,
    generate_ball,
    inverse_set,
    log_set,
    power_set,
    powers_up_to,
    product_set,
    scale_set,
    sumset,
    ut_generators,
)
from nilbch.identities import ContainmentCertificate, containment_certificate, sum_word
from nilbch.matrices import (
    NilpotentMatrix,
    UnipotentMatrix,
    mat_exp,
    mat_identity,
    mat_inverse,
    mat_log,
    mat_mul,
    nil_add,
    nil_bracket,
    nil_scale,
    nil_zero,
)


def heisenberg_ball(radius: int):
    return generate_ball(3, ut_generators(3), radius)


def heisenberg_generators():
    """The generators of UT(3, Z) and their inverses without the identity, so
    the powers are not nested."""
    return FiniteGroupSet(3, frozenset(ut_generators(3)))


# sets with the identity and one without: the two branches of the powers
SETS = {
    "ball": lambda: heisenberg_ball(1),
    "ball2": lambda: heisenberg_ball(2),
    "generators": heisenberg_generators,
    "ut4ball": lambda: generate_ball(4, ut_generators(4), 1),
}


def literal_powers(a, k: int) -> list:
    out = [a]
    for _ in range(k - 1):
        out.append(product_set(out[-1], a))
    return out


def min_power_index(powers) -> dict:
    """Map each log of an element of A^p to the least such p."""
    out: dict = {}
    seen: set = set()
    for p, s in enumerate(powers, start=1):
        for g in s.elements:
            if g not in seen:
                seen.add(g)
                out.setdefault(mat_log(g), p)
    return out


def greedy_cover_by_rescan(a) -> tuple:
    """The translates of the cover as found by rescanning every candidate
    against every base element in every greedy round."""
    aa = product_set(a, a)
    candidates = sorted(product_set(aa, inverse_set(a)).elements, key=lambda m: m.tri)
    base = sorted(a.elements, key=lambda m: m.tri)
    uncovered = set(aa.elements)
    translates = []
    while uncovered:
        best, best_hits = None, 0
        for x in candidates:
            hits = sum(1 for y in base if mat_mul(x, y) in uncovered)
            if hits > best_hits:
                best, best_hits = x, hits
        assert best is not None
        translates.append(best)
        for y in base:
            uncovered.discard(mat_mul(best, y))
    return tuple(translates)


def greedy_cover_by_set_scan(a) -> tuple:
    """The translates of the cover as found on matrices by taking, in every
    greedy round, the first candidate whose translate has the most uncovered
    elements, over a scan of every candidate's translate set."""
    aa = product_set(a, a)
    candidates = sorted(product_set(aa, inverse_set(a)).elements, key=lambda m: m.tri)
    uncovered = set(aa.elements)
    hits = [(x, {mat_mul(x, y) for y in a.elements} & uncovered) for x in candidates]
    translates = []
    while uncovered:
        best, covered = max(hits, key=lambda hit: len(hit[1] & uncovered))
        assert covered & uncovered
        translates.append(best)
        uncovered -= covered
    return tuple(translates)


def test_ut_generators_symmetric():
    gens = ut_generators(4)
    assert len(gens) == 6
    s = set(gens)
    from nilbch.matrices import mat_inverse

    assert all(mat_inverse(g) in s for g in gens)


def test_ball_sizes_heisenberg():
    assert len(heisenberg_ball(0)) == 1
    assert len(heisenberg_ball(1)) == 5
    assert len(heisenberg_ball(2)) == 17


def test_ball_contains_identity_and_is_symmetric():
    a = heisenberg_ball(1)
    assert mat_identity(3) in a
    from nilbch.matrices import mat_inverse

    assert all(mat_inverse(g) in a for g in a)


def test_product_set_is_square():
    a = heisenberg_ball(1)
    aa = product_set(a, a)
    assert len(aa) == 17
    direct = {mat_mul(g, h) for g in a for h in a}
    assert aa.elements == direct


def test_powers_monotone_and_match_literal_products():
    for name, sizes in (
        ("ball", [5, 17, 53, 135, 299]),
        ("generators", [4, 13, 40, 95, 204]),
    ):
        a = SETS[name]()
        powers = powers_up_to(a, 5)
        assert [len(p) for p in powers] == sizes
        assert [p.elements for p in powers] == [
            p.elements for p in literal_powers(a, 5)
        ]
        assert power_set(a, 3).elements == powers[2].elements


def test_power_set_wraps_only_the_power_it_returns(monkeypatch):
    # every set, built by the constructor or kept from triangles, goes
    # through FiniteGroupSet._keep once
    a = heisenberg_ball(2)
    built = []
    keep = FiniteGroupSet._keep

    def counted(self, dim, elements, tris):
        built.append(len(elements))
        keep(self, dim, elements, tris)

    monkeypatch.setattr(FiniteGroupSet, "_keep", counted)
    assert len(power_set(a, 4)) == 1793
    assert built == [1793]
    # A^4 is kept as a set and A^1 is the set itself: only A^2 and A^3 are new
    powers = powers_up_to(a, 4)
    assert [len(p) for p in powers] == [17, 135, 593, 1793]
    assert built == [1793, 135, 593]
    assert all(p is q for p, q in zip(powers_up_to(a, 4), powers)) and len(built) == 3
    assert power_set(a, 1) is a and powers[0] is a
    # a kept set holds the triangles of its power as its A^1, not a copy
    assert all(p._kept["powers"][0] is t for p, t in zip(powers[1:], a._kept["powers"][1:]))
    assert [p.elements for p in powers] == [p.elements for p in literal_powers(a, 4)]


def count_triangle_calls(monkeypatch, name: str, calls: list):
    """Make each call of growth's triangle function `name` append to calls."""
    original = growth.triangles

    def triangles(d):
        found = copy(original(d))  # builds any other name on its first read
        fn = getattr(found, name)

        def counted(*args):
            calls.append(1)
            return fn(*args)

        setattr(found, name, counted)
        return found

    monkeypatch.setattr(growth, "triangles", triangles)


def test_kept_powers_serve_later_checks(monkeypatch):
    # A^3 and the certificate's A^3 and A^1 come from the powers the ball
    # kept when powers_up_to enumerated A^1..A^4: no product is taken again
    a = heisenberg_ball(1)
    literal = literal_powers(a, 3)[2].elements
    powers_up_to(a, 4)
    cert = containment_certificate(1, AlgebraContext(2, 2))
    calls = []
    count_triangle_calls(monkeypatch, "mul", calls)
    assert power_set(a, 3).elements == literal
    assert check_commutator_containment(a, 1, cert).failures == 0
    assert calls == []
    # triangles and matrices are kept as frozensets, and the sets of the
    # powers past A^1, so a set never holds itself
    kept = a._kept
    assert all(
        type(s) is frozenset
        for s in (*kept["powers"], *kept["logs"].values(), *kept["chain"], *kept["levels"].values())
    )
    assert sorted(kept["sets"]) == [2, 3, 4] and all(s is not a for s in kept["sets"].values())


def test_report_takes_each_log_set_and_the_chain_once(monkeypatch):
    # one growth report: log(A^p) once for each power p that the sum and
    # bracket checks read, and the brackets of B_1..B_n once
    logs, brackets = [], []
    count_triangle_calls(monkeypatch, "log_num", logs)
    count_triangle_calls(monkeypatch, "bracket", brackets)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["growth", "--dim", "3", "--radius", "1", "--powers", "2,1"]) == 0
    sizes = json.loads(out.getvalue())["b_chain"]["sizes"]
    a = heisenberg_ball(1)
    cert = containment_certificate(1, AlgebraContext(2, 2))
    read = {1, 2, *cert.exponents}
    assert len(logs) == sum(len(power_set(a, p)) for p in read)
    assert len(brackets) == sizes[0] * sum(sizes[:-1])


def test_kept_power_still_meets_the_cap():
    a = heisenberg_ball(1)
    powers_up_to(a, 3)
    with pytest.raises(SizeCapError) as err:
        powers_up_to(a, 3, cap=20)
    assert (err.value.size, err.value.cap) == (53, 20)


def test_powers_up_to_meets_the_cap_once_per_power(monkeypatch):
    # one walk up to A^k, not one per power: the cap is checked O(k) times
    checks = []
    check = growth._check_cap

    def counted(what, size, cap):
        checks.append(size)
        check(what, size, cap)

    monkeypatch.setattr(growth, "_check_cap", counted)
    powers = powers_up_to(FiniteGroupSet(3, frozenset({mat_identity(3)})), 2000)
    assert [len(p) for p in powers] == [1] * 2000
    assert len(checks) <= 2 * 2000


def test_kept_chain_level_still_meets_the_cap():
    a = heisenberg_ball(1)
    size = len(compute_B_chain(a, 2)[1])
    with pytest.raises(SizeCapError) as err:
        compute_B_chain(a, 2, cap=size - 1)
    assert (err.value.what, err.value.size, err.value.cap) == ("bracket set", size, size - 1)


def test_square_is_kept_once_for_every_caller():
    # power_set, powers_up_to and the cover share the kept A^2; product_set
    # keeps nothing and takes the literal product, equal to it
    a = heisenberg_ball(1)
    find_cover(a)
    aa = power_set(a, 2)
    assert aa is powers_up_to(a, 2)[1] is power_set(a, 2)
    for b in (a, FiniteGroupSet(3, frozenset(a.elements))):
        literal = product_set(a, b)
        assert literal is not aa and literal == aa
        assert literal.elements == {mat_mul(g, h) for g in a for h in a}


def test_square_meets_the_cap_row_by_row_then_as_kept():
    # product_set trips after the row that passes the cap, at the size the
    # pairwise product reports, whatever `a` has kept
    a = heisenberg_ball(1)
    for b in (a, FiniteGroupSet(3, frozenset(a.elements)), a):
        with pytest.raises(SizeCapError) as err:
            product_set(a, b, cap=10)
        assert (err.value.what, err.value.size, err.value.cap) == ("product set", 11, 10)
        find_cover(a)
    # power_set meets the cap with |A^2| once A^2 is kept
    with pytest.raises(SizeCapError) as err:
        power_set(a, 2, cap=10)
    assert (err.value.size, err.value.cap) == (17, 10)


def test_chain_levels_are_wrapped_once(monkeypatch):
    a = heisenberg_ball(1)
    cert = containment_certificate(1, AlgebraContext(2, 2))
    wrapped = []
    wrap = growth._wrap

    def counted(kind, d, tris, den=1):
        if kind is NilpotentMatrix:
            wrapped.append(tris)
        return wrap(kind, d, tris, den)

    monkeypatch.setattr(growth, "_wrap", counted)
    # a bracket check on its own wraps level j alone
    report = check_commutator_containment(a, 1, cert)
    assert len(wrapped) == 1 and wrapped[0] is a._kept["chain"][1]
    chain = compute_B_chain(a, 2)
    assert compute_B_chain(a, 2) == chain
    assert all(x is y for x, y in zip(compute_B_chain(a, 2), chain))
    assert chain[1] is a._kept["levels"][1]
    # the chain call wrapped levels 0 and 2; nothing is wrapped twice
    assert check_commutator_containment(a, 1, cert) == report
    assert len(wrapped) == 3 and len({id(t) for t in wrapped}) == 3


def test_bracket_check_refuses_a_negative_level():
    a = heisenberg_ball(1)
    with pytest.raises(ValueError, match="nonnegative"):
        check_commutator_containment(a, -1, SMALL_CERT)
    assert a._kept["chain"] == []


def test_inverse_set_of_symmetric_ball_is_itself():
    a = heisenberg_ball(1)
    assert inverse_set(a).elements == a.elements


def test_log_set_cardinality_preserved():
    for radius in (1, 2):
        a = heisenberg_ball(radius)
        assert len(log_set(a)) == len(a)


def test_sumset_and_scale():
    a = heisenberg_ball(1)
    la = log_set(a)
    ss = sumset(la, la)
    assert len(ss) == 13
    assert Fraction(len(ss), len(la)) == Fraction(13, 5)
    doubled = scale_set(la, 2)
    assert doubled == {nil_scale(x, 2) for x in la}
    assert sumset(la, {nil_zero(3)}) == la


def test_find_cover_is_valid_cover():
    a = heisenberg_ball(1)
    report = find_cover(a)
    assert report.size_a == 5
    assert report.size_aa == 17
    assert report.k == 4
    assert len(report.translates) == report.k
    covered = set()
    for t in report.translates:
        covered |= {mat_mul(t, g) for g in a}
    assert covered >= product_set(a, a).elements


@pytest.mark.parametrize("name", sorted(SETS))
def test_find_cover_matches_rescan(name):
    a = SETS[name]()
    assert find_cover(a).translates == greedy_cover_by_rescan(a)


def test_find_cover_radius_three():
    # the rescan takes minutes here, so its answer is pinned as numbers
    report = find_cover(heisenberg_ball(3))
    assert (report.size_a, report.size_aa, report.k) == (53, 593, 31)


COVER_SETS = {
    **{f"ball{r}": lambda r=r: heisenberg_ball(r) for r in (1, 2, 3)},
    **{f"image{seed}": lambda seed=seed: heisenberg_image_ball(seed) for seed in range(4)},
}


@pytest.mark.parametrize("name", COVER_SETS)
def test_find_cover_matches_set_scan(name):
    # the heap recounts only its top; the set scan recounts every candidate
    want = greedy_cover_by_set_scan(COVER_SETS[name]())
    assert find_cover(COVER_SETS[name]()).translates == want


def test_find_cover_radius_four():
    report = find_cover(heisenberg_ball(4))
    assert (report.size_a, report.size_aa, report.k) == (135, 1793, 43)


def test_sum_containment_exhaustive_heisenberg():
    a = heisenberg_ball(1)
    report = check_sum_containment(a, 1, 1, 2)
    assert report.failures == 0
    assert report.checked_pairs == 25
    assert report.m == 2
    assert report.word_length == 12
    assert report.bound_power == 12
    assert 0 < report.max_witness_power <= report.bound_power


def test_sum_containment_sampled_subset():
    a = heisenberg_ball(1)
    full = check_sum_containment(a, 1, 1, 2)
    sampled = check_sum_containment(a, 1, 1, 2, mode="sampled", sample_size=10, seed=3)
    assert sampled.checked_pairs == 10
    assert sampled.failures == 0
    again = check_sum_containment(a, 1, 1, 2, mode="sampled", sample_size=10, seed=3)
    assert sampled == again
    assert full.bound_power == sampled.bound_power


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"mode": "sampled", "sample_size": 0}, "sample size must be at least 1, got 0"),
        ({"mode": "sampled", "sample_size": -1}, "sample size must be at least 1, got -1"),
        ({"mode": "exhaustive", "sample_size": 0}, "sample size must be at least 1, got 0"),
        ({"mode": "bogus"}, "unknown mode 'bogus'"),
    ],
)
def test_containment_checks_refuse_their_sample_before_enumerating(kwargs, message):
    # a sample of no element would check nothing and pass; neither check
    # enumerates a power, a log set or a chain level before it refuses
    a = heisenberg_ball(1)
    cert = containment_certificate(1, AlgebraContext(2, 2))
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_sum_containment(a, 1, 1, 2, **kwargs)
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_commutator_containment(a, 1, cert, **kwargs)
    assert len(a._kept["powers"]) == 1
    assert a._kept["logs"] == {} and a._kept["chain"] == []


@pytest.mark.parametrize(
    "k1, k2, name",
    [(1, 1, "ball"), (1, 1, "generators"), (2, 1, "ball"), (2, 1, "generators"), (1, 1, "ball2")],
)
def test_sum_containment_min_powers_match_brute_force(k1, k2, name):
    a = SETS[name]()
    report = check_sum_containment(a, k1, k2, 2)
    assert report.failures == 0
    powers = literal_powers(a, max(k1, k2, report.max_witness_power))
    index = min_power_index(powers[: report.max_witness_power])
    us, vs = log_set(powers[k1 - 1]), log_set(powers[k2 - 1])
    found = [index.get(nil_scale(nil_add(u, v), report.m)) for u in us for v in vs]
    assert report.checked_pairs == len(found)
    # every target lies in log(A^p) for some p <= the reported maximum, and
    # the largest of the least such p is that maximum
    assert None not in found
    assert max(found) == report.max_witness_power


def test_sum_containment_dimension_guard():
    with pytest.raises(ValueError):
        check_sum_containment(heisenberg_ball(1), 1, 1, 3)
    with pytest.raises(ValueError):
        check_sum_containment(heisenberg_ball(1), 0, 1, 2)


def test_b_chain_heisenberg():
    a = heisenberg_ball(1)
    chain = compute_B_chain(a, 2)
    assert [len(b) for b in chain] == [5, 3, 1]
    assert chain[2] == frozenset({nil_zero(3)})
    # B_1 sits in the center: only the corner entry survives
    for x in chain[1]:
        assert x.rows[0][1] == 0 and x.rows[1][2] == 0


def test_b_chain_dim_four_terminates():
    a = generate_ball(4, ut_generators(4), 1)
    assert len(a) == 7
    chain = compute_B_chain(a, 3)
    assert chain[3] == frozenset({nil_zero(4)})


def test_commutator_containment_first_level():
    a = heisenberg_ball(1)
    cert = containment_certificate(1, AlgebraContext(2, 2))
    report = check_commutator_containment(a, 1, cert)
    assert report.failures == 0
    assert report.checked == report.set_size == 3
    # every witness reconstructs its target exactly
    for target, parts in report.witnesses:
        total = nil_zero(3)
        for q, part in zip(cert.rationals, parts):
            total = nil_add(total, nil_scale(part, 1))
        # parts are already scaled by q_i inside the term sets
        assert total == target


def test_commutator_containment_trivial_level():
    a = heisenberg_ball(1)
    cert = containment_certificate(2, AlgebraContext(2, 2))
    report = check_commutator_containment(a, 2, cert)
    assert report.failures == 0


def witness_search_unhoisted(target, term_sets, idx):
    """The witness search as it was before the scanned terms were negated
    once per report: every step negates its term again."""
    s = term_sets[idx]
    if idx == len(term_sets) - 1:
        return (target,) if target in s else None
    for t in s:
        rest = witness_search_unhoisted(nil_add(target, nil_scale(t, -1)), term_sets, idx + 1)
        if rest is not None:
            return (t,) + rest
    return None


def witnesses_by_reference(a, j, cert) -> tuple:
    """The exhaustive witnesses of B_j, from the unhoisted search over the
    term sets built from the public power and log sets."""
    term_sets = [
        scale_set(log_set(power_set(a, k)), q) for q, k in zip(cert.rationals, cert.exponents)
    ]
    term_sets[:-1] = [sorted(s, key=lambda m: m.tri) for s in term_sets[:-1]]
    targets = sorted(compute_B_chain(a, j)[j], key=lambda m: m.tri)
    results = [(x, witness_search_unhoisted(x, term_sets, 0)) for x in targets]
    return tuple((x, w) for x, w in results if w is not None)


def heisenberg_image_ball(seed: int):
    """The radius-1 ball on the images of e12 and e23 under a seeded
    automorphism of UT(3, Z): an invertible integer 2x2 matrix on the
    abelianization and any centre parts, as the growth benchmark draws them."""
    rng = Random(f"growth:witness:{seed}")
    while True:
        p, q, r, s = (rng.randint(-2, 2) for _ in range(4))
        if abs(p * s - q * r) == 1:
            break
    gens = [
        UnipotentMatrix(((1, p, rng.randint(-2, 2)), (0, 1, r), (0, 0, 1))),
        UnipotentMatrix(((1, q, rng.randint(-2, 2)), (0, 1, s), (0, 0, 1))),
    ]
    return generate_ball(3, gens + [mat_inverse(g) for g in gens], 1)


WITNESS_SETS = {
    "ball": lambda: heisenberg_ball(1),
    "ball2": lambda: heisenberg_ball(2),
    **{f"image{seed}": lambda seed=seed: heisenberg_image_ball(seed) for seed in range(4)},
}


@pytest.mark.parametrize("name", WITNESS_SETS)
def test_commutator_witnesses_match_unhoisted_search(name):
    cert = containment_certificate(1, AlgebraContext(2, 2))
    want = witnesses_by_reference(WITNESS_SETS[name](), 1, cert)
    report = check_commutator_containment(WITNESS_SETS[name](), 1, cert)
    assert want and report.witnesses == want


def witness_scan(target, term_sets, idx, add):
    """The witness search the walk of the last set replaced: every
    set but the last is a list of (t, -t) in canonical order and is scanned
    in that order; the last is looked up."""
    if idx == len(term_sets) - 1:
        return (target,) if target in term_sets[idx] else None
    for t, minus_t in term_sets[idx]:
        rest = witness_scan(add(target, minus_t), term_sets, idx + 1, add)
        if rest is not None:
            return (t,) + rest
    return None


def scanned_term_sets(term_sets) -> list:
    """The term sets as witness_scan reads them."""
    head = [[(t, tuple(-v for v in t)) for t in sorted(s)] for s in term_sets[:-1]]
    return head + [term_sets[-1]]


def assert_search_matches_scan(term_sets, targets, add) -> list:
    """The witnesses of the search and of the scan, target by target; the
    search's results are returned."""
    search = growth._witness_search(list(term_sets), add)
    old = scanned_term_sets(term_sets)
    got = [search(t) for t in targets]
    assert got == [witness_scan(t, old, 0, add) for t in targets]
    return got


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_witness_search_matches_scan_on_balls(monkeypatch, radius):
    seen = []
    search = growth._witness_search

    def recorded(term_sets, add):
        found = search(term_sets, add)
        seen.append((list(term_sets), add, []))

        def traced(target):
            seen[-1][2].append(target)
            return found(target)

        return traced

    monkeypatch.setattr(growth, "_witness_search", recorded)
    cert = containment_certificate(1, AlgebraContext(2, 2))
    report = check_commutator_containment(heisenberg_ball(radius), 1, cert)
    (term_sets, add, targets), = seen
    monkeypatch.setattr(growth, "_witness_search", search)
    got = assert_search_matches_scan(term_sets, targets, add)
    assert report.failures == got.count(None) == 0 and len(targets) == report.checked


def rational_term_set(rng, size: int) -> frozenset:
    """size distinct triangles of d = 3 with entries in {-1, -1/2, 0, 1/2, 1}."""
    out = set()
    while len(out) < size:
        out.add(tuple(Fraction(rng.randint(-2, 2), 2) for _ in range(3)))
    return frozenset(out)


@pytest.mark.parametrize(
    "sizes", [(8,), (6, 20), (20, 6), (9, 9), (4, 5, 18), (4, 18, 5), (7, 3, 3)],
    ids=["one", "last-larger", "last-smaller", "equal", "3-last-larger", "3-last-smaller", "3-equal"],
)
def test_witness_search_matches_scan_on_synthetic_sets(sizes):
    # entries from a few negative and positive halves, so most targets have
    # many decompositions and the first in canonical order must be found;
    # random targets with larger entries have none
    rng = Random(f"growth:witness-sets:{sizes}")
    term_sets = [rational_term_set(rng, k) for k in sizes]
    add = growth.triangles(3).add
    targets = [
        tuple(sum(v) for v in zip(*(rng.choice(sorted(s)) for s in term_sets))) for _ in range(40)
    ]
    targets += [tuple(Fraction(rng.randint(-9, 9), 3) for _ in range(3)) for _ in range(20)]
    targets += [(Fraction(-7, 2), 5, Fraction(11, 2))]  # out of reach of every sum
    got = assert_search_matches_scan(term_sets, targets, add)
    assert None not in got[:40] and got[-1] is None and got.count(None) > 1
    for t, parts in zip(targets, got):
        if parts is not None:
            assert tuple(map(sum, zip(*parts))) == t


def test_sets_refuse_matrices_of_another_type_or_dimension():
    # the triangle kernels would read them silently, so the sets refuse them
    with pytest.raises(TypeError):
        FiniteGroupSet(3, frozenset({mat_log(ut_generators(3)[0])}))
    with pytest.raises(ValueError):
        FiniteGroupSet(3, frozenset(ut_generators(2)))
    with pytest.raises(ValueError):
        sumset(log_set(heisenberg_ball(1)), {nil_zero(4)})


def test_size_cap_trips():
    with pytest.raises(SizeCapError) as err:
        generate_ball(3, ut_generators(3), 4, cap=30)
    assert err.value.cap == 30
    a = heisenberg_ball(1)
    with pytest.raises(SizeCapError):
        product_set(a, a, cap=10)


# ---------------------------------------------------------------------------
# the Fraction route: the differential oracle of the int-numerator logs, the
# one-denominator sums, term sets and witness search, and the cover's hits
# built by inversion


def tri_order(m):
    return m.tri


def fraction_logs(a, k: int) -> frozenset:
    """log(A^k) by mat_log over the literal power."""
    return frozenset(mat_log(g) for g in literal_powers(a, k)[-1].elements)


def fraction_chain(a, n: int) -> list:
    chain = [fraction_logs(a, 1)]
    for _ in range(n):
        chain.append(frozenset(nil_bracket(x, y) for x in chain[0] for y in chain[-1]))
    return chain


def fraction_min_powers(a, targets, bound: int) -> dict:
    """Least p <= bound with target in log(A^p): mat_exp of each target,
    looked up in the literal powers."""
    exps = {t: mat_exp(t) for t in targets}
    found, power = {}, a
    for p in range(1, bound + 1):
        if p > 1:
            power = product_set(power, a)
        found.update((t, p) for t, g in exps.items() if t not in found and g in power.elements)
        if len(found) == len(exps):
            break
    return found


def fraction_sum_report(a, k1: int, k2: int, n: int):
    sw = sum_word(n)
    bound = sw.length * max(k1, k2)
    us = sorted(fraction_logs(a, k1), key=tri_order)
    vs = sorted(fraction_logs(a, k2), key=tri_order)
    targets = [nil_scale(nil_add(u, v), sw.m) for u in us for v in vs]
    min_power = fraction_min_powers(a, set(targets), bound)
    found = [min_power.get(t) for t in targets]
    witnessed = [p for p in found if p is not None]
    return SumContainmentReport(
        n, k1, k2, sw.m, sw.length, bound, len(targets), found.count(None), max(witnessed, default=0)
    )


def fraction_bracket_report(a, j: int, cert, mode="exhaustive", sample_size=50, seed=7):
    bj = fraction_chain(a, j)[j]
    term_sets = [
        frozenset(nil_scale(x, q) for x in fraction_logs(a, k))
        for q, k in zip(cert.rationals, cert.exponents)
    ]
    term_sets[:-1] = [sorted(s, key=tri_order) for s in term_sets[:-1]]
    targets = growth._sample(sorted(bj, key=tri_order), mode, sample_size, seed)
    results = [(x, witness_search_unhoisted(x, term_sets, 0)) for x in targets]
    witnesses = tuple((x, w) for x, w in results if w is not None)
    return BracketContainmentReport(j, len(bj), len(targets), len(results) - len(witnesses), witnesses)


def fraction_cover(a):
    translates = greedy_cover_by_set_scan(a)
    return CoverReport(len(a), len(product_set(a, a)), len(translates), translates)


def rational_ball(d: int):
    """A radius-1 ball on generators with entries in sixths and thirds: the
    entries of its square reach the denominator 36 = 6^(d-1) at d = 3, so
    its logs are over more than lcm(1..d-1)."""
    gens = []
    for i in range(d - 1):
        rows = [[Fraction(int(r == c)) for c in range(d)] for r in range(d)]
        rows[i][i + 1] = Fraction(1 + 4 * (i % 2), 6)
        if i + 2 < d:
            rows[i][i + 2] = Fraction(-1, 3)
        gens.append(UnipotentMatrix(rows))
    return generate_ball(d, gens + [mat_inverse(g) for g in gens], 1)


def one_sided_set():
    """{1, x, y}^2 for the generators x, y of UT(3, Z): no inverse of x or y,
    so A^-1 is not A."""
    s = FiniteGroupSet(3, frozenset([mat_identity(3), *ut_generators(3)[::2]]))
    return product_set(s, s)


ORACLE_SETS = {
    **{f"ut3r{r}": lambda r=r: heisenberg_ball(r) for r in (1, 2, 3)},
    "ut4r1": lambda: generate_ball(4, ut_generators(4), 1),
    **{f"image{seed}": lambda seed=seed: heisenberg_image_ball(seed) for seed in (0, 1)},
    "rational3": lambda: rational_ball(3),
    "rational4": lambda: rational_ball(4),
    "one_sided": one_sided_set,
}
# the sum containment is a theorem, and cheap to enumerate, on these
SUM_SETS = ["ut3r1", "ut3r2", "ut3r3", "image0", "image1"]
# small exponents with rationals over 2 and 3: the term sets' denominators
# differ from the chain level's
SMALL_CERT = ContainmentCertificate(1, (Fraction(2), Fraction(-1, 2), Fraction(-3, 2)), (1, 2, 1), 1, 0)
DEEP_CERT = ContainmentCertificate(2, (Fraction(1, 3), Fraction(-3, 4)), (1, 1), 1, 0)


@pytest.mark.parametrize("name", ORACLE_SETS)
def test_logs_and_chain_match_fraction_route(name):
    a = ORACLE_SETS[name]()
    n = a.dim - 1
    assert log_set(a) == fraction_logs(a, 1)
    assert compute_B_chain(a, n) == fraction_chain(a, n)


@pytest.mark.parametrize("name", ORACLE_SETS)
def test_cover_matches_fraction_route(name):
    a = ORACLE_SETS[name]()
    assert find_cover(a) == fraction_cover(a)


@pytest.mark.parametrize("name", SUM_SETS)
def test_sum_report_matches_fraction_route(name):
    a = ORACLE_SETS[name]()
    for k1, k2 in ((1, 1), (2, 1)):
        assert check_sum_containment(a, k1, k2, 2) == fraction_sum_report(a, k1, k2, 2)


@pytest.mark.parametrize("name", ORACLE_SETS)
def test_min_powers_match_fraction_route(name):
    # the targets m(log a + log b) for a, b in A, found up to A^2: int
    # numerators over the set's log denominator against Fraction triangles
    a = ORACLE_SETS[name]()
    m = sum_word(a.dim - 1).m
    den = a._kept["den"]
    logs = growth._log_power(a, 1, 10**6)
    targets = [tuple(m * (x + y) for x, y in zip(u, v)) for u in logs for v in logs]
    got = growth._find_min_powers(a, targets, 2, 10**6)
    want = fraction_min_powers(a, {nil_scale(nil_add(u, v), m) for u in log_set(a) for v in log_set(a)}, 2)
    assert {tuple(Fraction(v, den) for v in t): p for t, p in got.items()} == {
        x.tri: p for x, p in want.items()
    }
    assert want


@pytest.mark.parametrize("name", ORACLE_SETS)
def test_bracket_report_matches_fraction_route(name):
    a = ORACLE_SETS[name]()
    certs = [SMALL_CERT]
    if a.dim == 3:
        certs.append(containment_certificate(1, AlgebraContext(2, 2)))
    if a.dim == 4:
        certs.append(DEEP_CERT)
    for cert in certs:
        got = check_commutator_containment(a, cert.j, cert)
        assert got == fraction_bracket_report(a, cert.j, cert)
        sampled = check_commutator_containment(a, cert.j, cert, mode="sampled", sample_size=2, seed=3)
        assert sampled == fraction_bracket_report(a, cert.j, cert, "sampled", 2, 3)


@pytest.mark.parametrize("d", [0, 1])
def test_sets_of_matrices_without_entries(d):
    # no entry above the diagonal: every log, bracket and witness is empty
    a = FiniteGroupSet(d, frozenset({mat_identity(d)}))
    empty = NilpotentMatrix._raw(d, ())
    assert compute_B_chain(a, 1) == [frozenset({empty})] * 2
    report = check_commutator_containment(a, 1, SMALL_CERT)
    assert report == BracketContainmentReport(1, 1, 1, 0, ((empty, (empty,) * 3),))


def is_exact_entry(v) -> bool:
    """An int when integral, a Fraction otherwise."""
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


@pytest.mark.parametrize("name", ORACLE_SETS)
def test_entries_are_ints_where_integral(name):
    a = ORACLE_SETS[name]()
    report = check_commutator_containment(a, 1, SMALL_CERT)
    la = log_set(a)
    matrices = [*la, *sumset(la, la), *(x for level in compute_B_chain(a, a.dim - 1) for x in level)]
    matrices += [m for x, w in report.witnesses for m in (x, *w)]
    assert report.witnesses
    assert all(is_exact_entry(v) for x in matrices for v in x.tri)
