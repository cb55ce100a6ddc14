"""Differential property tests on random sentences over at most three
letters: the L rows and columns by key against the whole-degree tables, psi
as an involution on both sides, the Mobius maps and antipodes (row routes)
against their signed sums written out here, and the triangular solves on
random mixed-degree expressions against the descent graph's inverses,
through round trips, and (IM -> H and RSIM -> E) against the creation
operators, and every conversion between two tags of one side as a round
trip on random Fraction expressions that hold the () term.

The examples are derandomized and their number fixed, so a run is
deterministic and its cost bounded."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqsym import descent_graph as dg
from cqsym import nsym, qsym
from cqsym.exprs import NSYM_TAGS, QSYM_TAGS, Expr
from cqsym.sentences import (
    Alphabet,
    complement,
    from_splits,
    is_refinement,
    maximal_word,
    reversal,
    size,
)
from cqsym.tableaux import ell_column, ell_row, solve_columns, solve_rows, standard_data

ALPHABETS = tuple(Alphabet(colors) for colors in ("a", "ab", "abc"))


def _sentence(draw, alphabet, max_size):
    """A word of size 1..max_size over the alphabet, split after any set of
    its positions."""
    n = draw(st.integers(1, max_size))
    word = "".join(draw(st.lists(st.sampled_from(alphabet.colors), min_size=n, max_size=n)))
    splits = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
    return from_splits(word, splits)


@st.composite
def sentences(draw, max_size=5):
    """(alphabet, sentence), over one of the alphabets."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    return alphabet, _sentence(draw, alphabet, max_size)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(sentences())
def test_rows_and_columns_by_key_equal_the_table_and_its_transpose(case):
    alphabet, s = case
    table = standard_data(alphabet, sum(map(len, s)))
    assert ell_row(s) == table[s]
    # the transpose, read off the row of every shape
    assert ell_column(s) == {j: row[s] for j, row in table.items() if s in row}


@settings(derandomize=True, max_examples=120, deadline=None)
@given(sentences(max_size=6), st.sampled_from(QSYM_TAGS + NSYM_TAGS))
def test_psi_is_an_involution_on_both_sides(case, tag):
    alphabet, s = case
    e = Expr.basis(tag, s, alphabet)
    psi = qsym.psi if tag in QSYM_TAGS else nsym.psi
    assert psi(psi(e)) == e


# the references: each map's signed sum over every sentence with the right
# maximal word, tested by is_refinement, rather than read off the
# refinement or coarsening lists the routes use

def _splittings(word):
    """Every sentence with this maximal word."""
    inner = range(1, len(word))
    return [from_splits(word, cut) for r in range(len(word)) for cut in combinations(inner, r)]


def _finer(i):
    return [j for j in _splittings(maximal_word(i)) if is_refinement(j, i)]


def _coarser(i):
    return [j for j in _splittings(maximal_word(i)) if is_refinement(i, j)]


def _sign(k):
    return -1 if k % 2 else 1


REFERENCES = {
    # F_I = sum of M_J over the refinements J of I, and its Mobius inverse
    "F->M": (qsym._f_to_m, "F", "M", lambda i: {j: 1 for j in _finer(i)}),
    "M->F": (qsym._m_to_f, "M", "F", lambda i: {j: _sign(len(j) - len(i)) for j in _finer(i)}),
    # H_I = sum of R_J over the coarsenings J of I, and its Mobius inverse
    "H->R": (nsym._h_to_r, "H", "R", lambda i: {j: 1 for j in _coarser(i)}),
    "R->H": (nsym._r_to_h, "R", "H", lambda i: {j: _sign(len(i) - len(j)) for j in _coarser(i)}),
    # E_I = sum of (-1)^(|I| - l(J)) H_J over the refinements J of I, and back
    "E->H": (nsym._e_to_h, "E", "H", lambda i: {j: _sign(size(i) - len(j)) for j in _finer(i)}),
    "H->E": (nsym._h_to_e, "H", "E", lambda i: {j: _sign(size(i) - len(j)) for j in _finer(i)}),
    "E->R": (nsym._e_to_r, "E", "R", lambda i: {j: 1 for j in _finer(complement(i))}),
    # S*(M_I) and S(H_I)
    "antipode M": (
        qsym.antipode_m, "M", "M", lambda i: {reversal(j): _sign(len(i)) for j in _coarser(i)}
    ),
    "antipode H": (
        nsym.antipode_h, "H", "H", lambda i: {j: _sign(len(j)) for j in _finer(reversal(i))}
    ),
}


@st.composite
def combinations_of(draw, tag, max_size=6):
    """A sum of one to three basis terms of one alphabet, with non-zero
    integer coefficients, of sizes 1..max_size (so often of mixed degree)."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    e = Expr(tag, alphabet)
    for _ in range(draw(st.integers(1, 3))):
        e.add_term(_sentence(draw, alphabet, max_size), draw(st.sampled_from((-3, -1, 1, 2))))
    return e


@pytest.mark.parametrize("name", REFERENCES)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_mobius_maps_and_antipodes_are_their_signed_sums(name, data):
    route, source, target, row = REFERENCES[name]
    e = data.draw(combinations_of(source))
    want = Expr(target, e.alphabet)
    for i, c in e.terms.items():
        for j, coef in row(i).items():
            want.add_term(j, c * coef)
    assert route(e) == want


# the triangular solves F -> DI and IM -> R, on whole expressions, against
# the built graph: its swept inverse rows and columns summed term by term,
# and at degree <= 4 its literal signed path sums

SOLVES = {
    "F": (solve_rows, dg.inverse_row, dg.reachable, dg.path_inverse_coeff),
    "IM": (
        solve_columns,
        dg.inverse_column,
        lambda g, j: g.vertices,
        lambda g, j, k: dg.path_inverse_coeff(g, k, j),
    ),
}


@pytest.mark.parametrize("tag", SOLVES)
@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_solves_are_the_graph_inverses_term_by_term(tag, data):
    solve, sweep, candidates, paths = SOLVES[tag]
    e = data.draw(combinations_of(tag, max_size=5))
    swept, walked = Expr(tag, e.alphabet), Expr(tag, e.alphabet)
    for i, c in e.terms.items():
        g = dg.cached_graph(e.alphabet, size(i))
        for k, coef in sweep(g, i).items():
            swept.add_term(k, c * coef)
        if size(i) <= 4:
            for k in candidates(g, i):
                walked.add_term(k, c * paths(g, i, k))
    assert Expr(tag, e.alphabet, solve(e.terms)) == swept
    small = {i: c for i, c in e.terms.items() if size(i) <= 4}
    assert Expr(tag, e.alphabet, solve(small)) == walked


ROUND_TRIPS = (("F", "DI"), ("F", "RSDI"), ("IM", "R"), ("RSIM", "R"))


@pytest.mark.parametrize("tag, through", ROUND_TRIPS)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_conversions_through_the_solves_round_trip(tag, through, data):
    e = data.draw(combinations_of(tag))
    convert = qsym.convert if tag in QSYM_TAGS else nsym.convert
    there = convert(e, through)
    assert there.tag == through
    assert convert(there, tag) == e


# IM -> H and RSIM -> E go through the L columns (IM/RSIM -> R -> H/E); the
# creation operators, which are on no conversion route, build the same rows

@pytest.mark.parametrize("tag, target", [("IM", "H"), ("RSIM", "E")])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_conversions_from_the_immaculates_equal_the_creation_operators(tag, target, data):
    e = data.draw(combinations_of(tag))
    want = Expr(target, e.alphabet)
    for j, c in e.terms.items():
        for k, coef in nsym.immaculate_in_h(j, e.alphabet).terms.items():
            want.add_term(k, c * coef)
    assert nsym.convert(e, target) == want


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_ribbons_to_elementaries_are_psi_of_ribbons_to_completes(data):
    # psi complements the R indices and relabels H as E, both written out
    # here; R -> H is checked against its signed sum above
    e = data.draw(combinations_of("R"))
    flipped = Expr("R", e.alphabet, {complement(i): c for i, c in e.terms.items()})
    assert nsym.convert(e, "E") == Expr("E", e.alphabet, nsym.convert(flipped, "H").terms)


# every conversion between two tags of one side, both ways, on expressions
# of mixed degree with Fraction coefficients and the degree-0 term

TAG_PAIRS = [pair for tags in (QSYM_TAGS, NSYM_TAGS) for pair in combinations(tags, 2)]


@st.composite
def fraction_combinations_of(draw, tag, max_size=5):
    """c * () plus one to three basis terms of one alphabet, of sizes
    1..max_size, all with non-zero Fraction coefficients."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    coefficients = st.sampled_from((Fraction(-5, 2), Fraction(-1), Fraction(1, 3), Fraction(2)))
    e = Expr(tag, alphabet)
    e.add_term((), draw(coefficients))
    for _ in range(draw(st.integers(1, 3))):
        e.add_term(_sentence(draw, alphabet, max_size), draw(coefficients))
    return e


@pytest.mark.parametrize("tag, other", TAG_PAIRS)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_every_conversion_on_a_side_round_trips(tag, other, data):
    convert = qsym.convert if tag in QSYM_TAGS else nsym.convert
    for source, target in ((tag, other), (other, tag)):
        e = data.draw(fraction_combinations_of(source))
        there = convert(e, target)
        assert there.tag == target
        assert convert(there, source) == e
