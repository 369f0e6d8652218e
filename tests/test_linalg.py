"""The integer elimination against a Fraction Gauss-Jordan oracle."""

from fractions import Fraction
from random import Random

import pytest

from nilbch import algebra, group
from nilbch.algebra import (
    AlgebraContext,
    LieElement,
    _rightnormed_solver,
    bracket_coords,
    hall_basis,
    patterns,
    rightnormed_fold,
    tree_degree,
    tree_fold,
)
from nilbch.errors import InternalInvariantError
from nilbch.identities import _commutator_word, _pattern_word, vandermonde_recipe
from nilbch.linalg import apply_inverse, spanning_inverse
from nilbch.words import FormalWord, SymbolFactor


# ---------------------------------------------------------------------------
# the Fraction oracle: the same greedy rule and inverse, eliminated over Q

def invert_matrix(rows):
    """Inverse of a square matrix; raises if singular. Zero entries are
    skipped, which keeps the oracle's cost in test time small."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise InternalInvariantError("singular matrix in exact elimination")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv if x else x for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b if b else a for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def mat_vec(rows, vec):
    """Matrix-vector product over Q."""
    return [sum((a * v for a, v in zip(row, vec)), Fraction(0)) for row in rows]


def plain_fold(pattern, args, op):
    """The right-normed fold of one pattern, innermost bracket first, with
    no memo."""
    out = args[pattern[-1] - 1]
    for i in reversed(pattern[:-1]):
        out = op(args[i - 1], out)
    return out


def fraction_solver(num_generators, arity):
    """Pivot patterns by a greedy echelon over Fraction, the inverse of their
    block, and the basis trees. The echelon rows are sparse, so the oracle
    costs test time only where entries are nonzero."""
    basis = [
        t
        for t in hall_basis(AlgebraContext(num_generators, arity))
        if tree_degree(t) == arity
    ]
    dim = len(basis)
    row_of = {t: r for r, t in enumerate(basis)}
    echelon = []
    pivots = []
    columns = []
    units = [{i: 1} for i in range(num_generators)]
    for alpha in patterns(num_generators, arity):
        coords = plain_fold(alpha, units, lambda u, v: bracket_coords(u, v, arity))
        col = {row_of[t]: Fraction(c) for t, c in coords.items()}
        v = dict(col)
        for lead, u in echelon:
            f = v.get(lead)
            if f:
                for r, b in u.items():
                    v[r] = v.get(r, 0) - f * b
                v = {r: a for r, a in v.items() if a}
        if v:
            inv = 1 / v[min(v)]
            echelon.append((min(v), {r: a * inv for r, a in v.items()}))
            pivots.append(alpha)
            columns.append(col)
            if len(pivots) == dim:
                break
    assert len(pivots) == dim
    square = [[columns[j].get(r, 0) for j in range(dim)] for r in range(dim)]
    return tuple(pivots), invert_matrix(square), tuple(basis)


def as_fractions(den, rows):
    return [[Fraction(c, den) for c in row] for row in rows]


# ---------------------------------------------------------------------------
# differential tests

SOLVER_SIZES = (
    [(2, a) for a in range(2, 11)]
    + [(3, a) for a in range(2, 7)]
    + [(4, a) for a in range(2, 6)]
)


@pytest.mark.parametrize("num_generators,arity", SOLVER_SIZES)
def test_rightnormed_solver_matches_the_fraction_oracle(num_generators, arity):
    pivots, inverse, basis = fraction_solver(num_generators, arity)
    got_pivots, den, rows, got_basis = _rightnormed_solver(num_generators, arity)
    assert got_pivots == pivots
    assert got_basis == basis
    assert as_fractions(den, rows) == inverse


@pytest.mark.parametrize("n", range(2, 9))
def test_vandermonde_inverse_matches_the_fraction_oracle(n):
    points = range(1, n)
    inverse = invert_matrix([[Fraction(s) ** j for j in range(1, n)] for s in points])
    assert vandermonde_recipe(n).inverse_matrix == tuple(map(tuple, inverse))
    columns = [{s - 1: s**j for s in points} for j in range(1, n)]
    chosen, den, rows = spanning_inverse(columns, n - 1)
    assert chosen == tuple(range(n - 1))
    assert as_fractions(den, rows) == inverse


def test_spanning_inverse_skips_dependent_columns():
    columns = [{}, {0: 2, 1: 4}, {0: -1, 1: -2}, {1: 3}, {0: 5}]
    chosen, den, rows = spanning_inverse(columns, 2)
    assert chosen == (1, 3)
    assert as_fractions(den, rows) == invert_matrix([[2, 0], [4, 3]])
    # an explicit zero is no entry: it can be no column's lead
    chosen, den, rows = spanning_inverse([{0: 0, 1: 3}, {0: 2, 1: 0}], 2)
    assert as_fractions(den, rows) == invert_matrix([[0, 2], [3, 0]])
    # nothing to span: one generator has no brackets of degree 2 and more
    assert spanning_inverse([{}], 0) == ((), 1, ())


def test_non_spanning_columns_raise():
    with pytest.raises(InternalInvariantError):
        spanning_inverse([{0: 1, 1: 2}, {0: -2, 1: -4}, {}], 2)
    with pytest.raises(InternalInvariantError):
        spanning_inverse([], 1)


def test_apply_inverse_matches_the_fraction_product():
    rng = Random("linalg:apply")
    _, den, rows = spanning_inverse([{s - 1: s**j for s in range(1, 6)} for j in range(1, 6)], 5)
    inverse = as_fractions(den, rows)
    for _ in range(20):
        vec = [rng.choice((0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
               for _ in range(5)]
        got = apply_inverse(den, rows, vec)
        assert got == mat_vec(inverse, vec)
        assert all(type(x) is Fraction for x in got)


def test_a_failed_rightnormed_solve_names_its_degree(monkeypatch):
    # with every column zero nothing spans, and the error says which solve failed
    monkeypatch.setattr(algebra, "bracket_coords", lambda a, b, step: {})
    with pytest.raises(InternalInvariantError, match="fail to span degree 3 over 2 generators"):
        _rightnormed_solver.__wrapped__(2, 3)


# ---------------------------------------------------------------------------
# the suffix memo against the plain fold

FOLD_SIZES = [(2, a) for a in range(1, 9)] + [(3, a) for a in range(1, 6)]


@pytest.mark.parametrize("num_generators,arity", FOLD_SIZES)
def test_a_shared_memo_folds_lie_brackets_as_the_plain_fold(num_generators, arity):
    gens = AlgebraContext(num_generators, arity).generators()
    memo = {}
    for alpha in patterns(num_generators, arity):
        got = rightnormed_fold(alpha, gens, LieElement.bracket, memo)
        assert got == plain_fold(alpha, gens, LieElement.bracket)


@pytest.mark.parametrize("num_generators,step", FOLD_SIZES)
def test_a_basis_tree_folds_on_unit_generators_to_itself(num_generators, step):
    units = [{i: 1} for i in range(num_generators)]
    op, shared = (lambda u, v: bracket_coords(u, v, step)), {}
    for t in hall_basis(AlgebraContext(num_generators, step)):
        assert tree_fold(t, units, op, shared) == {t: 1}
        assert tree_fold(t, units, op, {}) == {t: 1}


def test_a_shared_memo_folds_commutators_and_words_as_the_plain_fold():
    ctx = AlgebraContext(3, 4)
    gens = [group.exp(x) for x in ctx.generators()]
    letters = [FormalWord((SymbolFactor(s),)) for s in ctx.symbols]
    commutators, words = {}, {}
    for arity in range(1, 5):
        for alpha in patterns(3, arity):
            got = rightnormed_fold(alpha, gens, group.commutator, commutators)
            assert got == plain_fold(alpha, gens, group.commutator)
            want = plain_fold(alpha, letters, _commutator_word)
            assert rightnormed_fold(alpha, letters, _commutator_word, words) == want
            assert _pattern_word(alpha, ctx.symbols) == want
