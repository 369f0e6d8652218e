"""Finite-set growth lab on unipotent matrix groups."""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from random import Random
from types import SimpleNamespace

import pytest

from nilbch import growth
from nilbch.algebra import AlgebraContext
from nilbch.cli import main
from nilbch.errors import SizeCapError
from nilbch.growth import (
    FiniteGroupSet,
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
from nilbch.identities import containment_certificate
from nilbch.matrices import (
    UnipotentMatrix,
    mat_identity,
    mat_inverse,
    mat_log,
    mat_mul,
    nil_add,
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
    a = heisenberg_ball(2)
    built = []
    init = FiniteGroupSet.__init__

    def counted(self, dim, elements):
        built.append(len(elements))
        init(self, dim, elements)

    monkeypatch.setattr(FiniteGroupSet, "__init__", counted)
    assert len(power_set(a, 4)) == 1793
    assert built == [1793]
    assert [len(p) for p in powers_up_to(a, 4)] == built[1:] == [17, 135, 593, 1793]
    assert power_set(a, 1).elements is a.elements


def count_triangle_calls(monkeypatch, name: str, calls: list):
    """Make each call of growth's triangle function `name` append to calls."""
    original = growth.triangles

    def triangles(d):
        found = original(d)
        fn = getattr(found, name)

        def counted(*args):
            calls.append(1)
            return fn(*args)

        return SimpleNamespace(**{**vars(found), name: counted})

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
    # only frozensets are kept, so a set never holds itself
    kept = a._kept
    assert all(
        type(s) is frozenset
        for s in (*kept["powers"], *kept["logs"].values(), *kept["chain"])
    )


def test_report_takes_each_log_set_and_the_chain_once(monkeypatch):
    # one growth report: log(A^p) once for each power p that the sum and
    # bracket checks read, and the brackets of B_1..B_n once
    logs, brackets = [], []
    count_triangle_calls(monkeypatch, "log", logs)
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


def test_kept_chain_level_still_meets_the_cap():
    a = heisenberg_ball(1)
    size = len(compute_B_chain(a, 2)[1])
    with pytest.raises(SizeCapError) as err:
        compute_B_chain(a, 2, cap=size - 1)
    assert (err.value.what, err.value.size, err.value.cap) == ("bracket set", size, size - 1)


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
