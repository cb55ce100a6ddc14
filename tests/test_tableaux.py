import itertools
import math
import time
from collections import Counter

import pytest

from cqsym import descent_graph as dg
from cqsym import nsym, poset, qsym
from cqsym.exprs import Expr, side
from cqsym.sentences import (
    Alphabet,
    all_compositions,
    all_sentences,
    is_refinement,
    refinements,
    word_lengths,
)
from cqsym.tableaux import (
    IMMACULATE,
    ROW_STRICT,
    Tableau,
    descent_counts,
    ell_coeff,
    ell_column,
    ell_columns,
    ell_row,
    ell_table,
    enumerate_standard,
    enumerate_tableaux,
    kostka,
    kostka_columns,
    kostka_table,
    standard_data,
)

AB = Alphabet("ab")
ABC = Alphabet("abc")


# --- independent oracles ----------------------------------------------------

def brute_standard_fillings(shape, variant):
    """All standard fillings by filtering every permutation assignment."""
    lengths = word_lengths(shape)
    n = sum(lengths)
    boxes = [(i, j) for i, l in enumerate(lengths) for j in range(l)]
    out = set()
    for perm in itertools.permutations(range(1, n + 1)):
        grid = dict(zip(boxes, perm))
        ok = True
        for i, l in enumerate(lengths):
            for j in range(1, l):
                a, b = grid[(i, j - 1)], grid[(i, j)]
                if (b <= a) if variant == ROW_STRICT else (b < a):
                    ok = False
        firsts = [grid[(i, 0)] for i in range(len(lengths)) if lengths[i]]
        for a, b in zip(firsts, firsts[1:]):
            if (b < a) if variant == ROW_STRICT else (b <= a):
                ok = False
        if ok:
            out.add(tuple(tuple(grid[(i, j)] for j in range(l)) for i, l in enumerate(lengths)))
    return out


def brute_uncolored_standard_count(comp):
    return len(brute_standard_fillings(tuple("a" * p for p in comp), IMMACULATE))


# --- examples ---------------------------------------------------------------

def test_standard_shape_ab_cb():
    std = enumerate_standard(("ab", "cb"))
    assert len(std) == 3
    assert sorted(t.descent_composition() for t in std) == sorted(
        [("ab", "cb"), ("a", "cb", "b"), ("a", "cbb")]
    )


def test_standard_shape_ab_cbb():
    std = enumerate_standard(("ab", "cbb"))
    assert len(std) == 4
    assert sorted(t.descent_composition() for t in std) == sorted(
        [("ab", "cbb"), ("a", "cbb", "b"), ("a", "cb", "bb"), ("a", "cbbb")]
    )


def test_standard_single_box():
    assert len(enumerate_standard(("a",))) == 1


def test_enumerate_by_type_examples():
    assert len(enumerate_tableaux(("ab", "cb"), ("a", "cb", "b"))) == 2
    assert len(enumerate_tableaux(("ab", "cb"), ("", "a", "", "cb", "b"))) == 2
    assert enumerate_tableaux(("a",), ("b",)) == []


def test_kostka_flattening_invariance():
    assert kostka(("ab", "cb"), ("", "a", "", "cb", "b")) == kostka(("ab", "cb"), ("a", "cb", "b"))


def test_ell_examples():
    assert ell_coeff(("ab", "cb", "b"), ("a", "cb", "bb")) == 2
    for n in range(1, 5):
        for shape in all_sentences(AB, n):
            assert ell_coeff(shape, shape) == 1


def test_standardize_examples():
    t = Tableau(("ab", "cb"), ((1, 2), (3, 3)))
    assert t.type_() == ("a", "b", "cb")
    assert t.standardize().rows == ((1, 2), (3, 4))
    u = t.standardize()
    assert u.standardize() == u
    t3 = Tableau(("ab", "bca"), ((1, 2), (1, 3, 4)), ROW_STRICT)
    assert t3.standardize().rows == ((1, 3), (2, 4, 5))


def test_row_strict_descents_example():
    # standard fillings of (ab,bca) and their row-strict descent compositions
    u2 = Tableau(("ab", "bca"), ((1, 3), (2, 4, 5)), ROW_STRICT)
    assert u2.descent_set() == {2, 4}
    assert u2.descent_composition() == ("ab", "bc", "a")
    u3 = Tableau(("ab", "bca"), ((1, 4), (2, 3, 5)), ROW_STRICT)
    assert u3.descent_composition() == ("ab", "c", "ba")
    u4 = Tableau(("ab", "bca"), ((1, 5), (2, 3, 4)), ROW_STRICT)
    assert u4.descent_composition() == ("ab", "c", "a", "b")


def test_type_with_interior_empty():
    t = Tableau(("aba", "cb"), ((1, 5, 5), (2, 4)))
    assert t.type_() == ("a", "c", "", "b", "ba")
    assert t.flat_type() == ("a", "c", "b", "ba")


def test_invalid_tableaux_rejected():
    assert not Tableau(("ab",), ((2, 1),)).is_valid()
    assert not Tableau(("a", "b"), ((1,), (1,))).is_valid()  # first column strict
    assert Tableau(("a", "b"), ((1,), (1,)), ROW_STRICT).is_valid()
    assert not Tableau(("ab",), ((1, 1),), ROW_STRICT).is_valid()  # rows strict
    with pytest.raises(ValueError):
        Tableau(("ab",), ((1,),))
    with pytest.raises(ValueError):
        Tableau(("ab",), ((1, 2),), "diagonal")


# --- enumerator correctness against the brute-force oracle ------------------

def test_standard_enumeration_matches_brute_force():
    for n in range(1, 5):
        for shape in all_sentences(AB, n):
            got = {t.rows for t in enumerate_standard(shape)}
            want_imm = brute_standard_fillings(shape, IMMACULATE)
            want_rs = brute_standard_fillings(shape, ROW_STRICT)
            assert got == want_imm
            # variant bridge: the same integer fillings are the standard
            # row-strict fillings
            assert got == want_rs


def test_count_bridge_with_uncolored():
    counts = {}
    for n in range(1, 6):
        for shape in all_sentences(AB, n) if n <= 4 else [s for s in all_sentences(AB, 5)][:40]:
            comp = word_lengths(shape)
            if comp not in counts:
                counts[comp] = brute_uncolored_standard_count(comp)
            assert len(enumerate_standard(shape)) == counts[comp]


def _all_flat_typed_tableaux(shape):
    """Every tableau of the shape whose type is a plain sentence, found by
    enumerating types explicitly (uses only the typed enumerator)."""
    n = sum(word_lengths(shape))
    out = []
    for b in all_sentences(AB, n):
        out.extend(enumerate_tableaux(shape, b))
    return out


def test_standardization_injectivity_and_refinement_characterization():
    # standardization is injective for fixed shape and type, and a tableau of
    # flat type B standardizing to U exists exactly when B refines the
    # colored descent composition of U
    for n in range(1, 5):
        for shape in all_sentences(AB, n):
            seen = {}
            for t in _all_flat_typed_tableaux(shape):
                key = (t.flat_type(), t.standardize().rows)
                assert key not in seen, (shape, key)
                seen[key] = t
            standards = enumerate_standard(shape)
            expected = {
                (b, u.rows)
                for u in standards
                for b in refinements(u.descent_composition())
            }
            assert set(seen) == expected


def test_kostka_equals_sum_of_ell_over_coarsenings():
    for n in range(1, 6):
        ktab = kostka_table(AB, n, IMMACULATE)
        ltab = ell_table(AB, n)
        for shape in ktab:
            for b, count in ktab[shape].items():
                total = sum(c for comp, c in ltab[shape].items() if is_refinement(b, comp))
                assert count == total, (shape, b)


def test_kostka_table_matches_direct_enumeration():
    # the table route (standard tableaux + refinement accumulation) against
    # the independent backtracking enumerator
    for n in range(1, 5):
        ktab = kostka_table(AB, n, IMMACULATE)
        for shape in all_sentences(AB, n):
            for b in all_sentences(AB, n):
                assert ktab[shape].get(b, 0) == kostka(shape, b), (shape, b)


def test_kostka_table_rows_in_canonical_order():
    # every table keeps the shape order of standard_data, which must be the
    # canonical order of all_sentences: descent_graph.build takes its
    # vertices from that order without sorting them
    for alphabet in (AB, ABC):
        for n in range(1, 5):
            assert list(kostka_table(alphabet, n, IMMACULATE)) == all_sentences(alphabet, n)


def test_row_strict_tables_match_direct_enumeration():
    for n in range(1, 4):
        ktab = kostka_table(AB, n, ROW_STRICT)
        ltab = ell_table(AB, n, ROW_STRICT)
        for shape in all_sentences(AB, n):
            for b in all_sentences(AB, n):
                assert ktab[shape].get(b, 0) == kostka(shape, b, ROW_STRICT)
                assert ltab[shape].get(b, 0) == ell_coeff(shape, b, ROW_STRICT)


def test_standard_data_matches_tableau_descent_compositions():
    # the per-composition walk, colored shape by shape, against the
    # tableaux themselves: both variants (the row-strict table read through
    # the complement), and Counter order = filling order
    for alphabet, top in ((AB, 5), (ABC, 4)):
        for n in range(1, top + 1):
            shapes = all_sentences(alphabet, n)
            assert list(standard_data(alphabet, n)) == shapes
            for variant in (IMMACULATE, ROW_STRICT):
                table = ell_table(alphabet, n, variant)
                assert list(table) == shapes
                for shape, row in table.items():
                    want = Counter(
                        t.descent_composition() for t in enumerate_standard(shape, variant)
                    )
                    assert list(row.items()) == list(want.items()), (shape, variant)
                    for comp, count in want.items():
                        assert ell_coeff(shape, comp, variant) == count
                    missing = next(b for b in shapes if b not in want)
                    assert ell_coeff(shape, missing, variant) == 0


def test_standard_data_degree_zero():
    # the empty filling reads no word, so its descent composition is () in
    # both variants, as the empty tableau's is
    assert standard_data(AB, 0) == {(): Counter({(): 1})}
    assert ell_table(AB, 0, ROW_STRICT) == {(): {(): 1}}
    assert Tableau((), ()).descent_composition() == ()


def test_cached_tables_take_variant_positionally():
    # one lru_cache entry per table: a defaulted or keyword variant would
    # make (AB, 3) and (AB, 3, IMMACULATE) two keys for the same table
    for table in (kostka_table, kostka_columns):
        with pytest.raises(TypeError):
            table(AB, 3)
        with pytest.raises(TypeError):
            table(AB, 3, variant=IMMACULATE)
        assert table(AB, 3, IMMACULATE) is table(AB, 3, IMMACULATE)
    # the L columns are immaculate only: one entry per degree
    assert ell_columns(AB, 3) is ell_columns(AB, 3)
    # the L rows and columns by key are immaculate only: one entry per key
    shape = ("ab", "a")
    assert ell_row(shape) is ell_row(shape)
    assert ell_column(shape) is ell_column(shape)
    for by_key in (ell_row, ell_column):
        with pytest.raises(TypeError):
            by_key(shape, IMMACULATE)


def test_rows_and_columns_by_key_match_the_tables():
    # every row in the table's key order, and every column, degree 0 too
    for alphabet, top in ((Alphabet("a"), 7), (AB, 5), (ABC, 4)):
        for n in range(top + 1):
            table = standard_data(alphabet, n)
            for shape, row in table.items():
                assert list(ell_row(shape).items()) == list(row.items()), shape
            columns = ell_columns(alphabet, n)
            for comp in table:
                assert ell_column(comp) == columns.get(comp, {}), comp
    # degree 0: the empty filling reads no word, so () is its own row,
    # column and skew row
    assert ell_row(()) == ell_column(()) == {(): 1}
    for shape in ((), ("ab", "a")):
        assert descent_counts(shape, shape) == {(): 1}


def test_rows_count_f_alpha_fillings():
    # f^alpha = prod_i C(alpha_i + ... + alpha_l - 1, alpha_i - 1): the
    # smallest value in rows i..l opens row i, and row i takes any
    # alpha_i - 1 of the others
    for n in range(1, 9):
        for alpha in all_compositions(n):
            want = 1
            for i, part in enumerate(alpha):
                want *= math.comb(sum(alpha[i:]) - 1, part - 1)
            shape = tuple("a" * part for part in alpha)
            assert sum(ell_row(shape).values()) == want, alpha


def test_a_degree_12_row_and_column_walk_only_their_fillings():
    # the degree has B_12 = 4,213,597 standard fillings; the row of (6, 6)
    # walks its 462 and the one-word column its one
    start = time.perf_counter()
    row = ell_row(("aaaaaa", "aaaaaa"))
    column = ell_column(("a" * 12,))
    elapsed = time.perf_counter() - start
    assert sum(row.values()) == math.comb(11, 5) == 462
    assert column == {("a" * 12,): 1}
    assert elapsed < 2.0, elapsed


# the conversion routes (the expand routes of perfbench/queries.py)
_EXPAND_ROUTES = (
    ("DI", "M"), ("DI", "F"), ("RSDI", "M"), ("RSDI", "F"),
    ("M", "DI"), ("M", "RSDI"), ("F", "DI"), ("F", "RSDI"),
    ("H", "IM"), ("H", "RSIM"), ("E", "IM"), ("E", "RSIM"), ("R", "IM"), ("R", "RSIM"),
    ("IM", "H"), ("IM", "R"), ("RSIM", "H"), ("RSIM", "R"),
)


def test_no_conversion_builds_a_whole_degree():
    # every route reads L rows and columns by key and sweeps them by key:
    # the whole-degree standard data, L columns and descent graph stay
    # views for `graph`, `coeffs` and the tests
    caches = (standard_data, ell_columns, dg.cached_graph)
    for cache in caches:
        cache.cache_clear()
    for alphabet, (j, k) in ((AB, (("ab", "ba"), ("b", "aab"))), (ABC, (("ca", "b"), ("b", "ac")))):
        for src, dst in _EXPAND_ROUTES:
            convert = qsym.convert if side(src) == "qsym" else nsym.convert
            convert(Expr.basis(src, j, alphabet), dst)
        for variant, dual in ((IMMACULATE, "DI"), (ROW_STRICT, "RSDI")):
            for target in ("M", "F", dual):
                poset.skew_expand(j, j[:1], target, alphabet, variant)
            poset.coproduct_di(j, alphabet, variant)
            qsym.coproduct(Expr.basis(dual, k, alphabet))
        qsym.product(Expr.basis("DI", j[:1], alphabet), Expr.basis("RSDI", k[1:], alphabet))
        nsym.product(Expr.basis("IM", j[:1], alphabet), Expr.basis("RSIM", k[1:], alphabet))
        nsym.pair(Expr.basis("IM", j, alphabet), Expr.basis("DI", k, alphabet))
        nsym.pair(Expr.basis("RSIM", j, alphabet), Expr.basis("RSDI", k, alphabet))
        for tag in ("DI", "RSDI"):
            qsym.psi(Expr.basis(tag, j, alphabet))
        for tag in ("IM", "RSIM"):
            nsym.psi(Expr.basis(tag, j, alphabet))
        poset.structure_constants(j[1:], j[:1], alphabet)
    for cache in caches:
        assert cache.cache_info().currsize == 0, cache


def test_no_route_builds_the_kostka_matrix():
    # kostka_table and kostka_columns are reference views for the tests:
    # every route reads the L data, the descent graph and the Mobius maps
    kostka_table.cache_clear()
    kostka_columns.cache_clear()
    j, k = ("ab", "ba"), ("b", "aab")
    for src, dst in _EXPAND_ROUTES:
        convert = qsym.convert if side(src) == "qsym" else nsym.convert
        convert(Expr.basis(src, j, AB), dst)
    for variant, dual in ((IMMACULATE, "DI"), (ROW_STRICT, "RSDI")):
        for target in ("M", "F", dual):
            poset.skew_expand(j, ("a",), target, AB, variant)
        poset.coproduct_di(j, AB, variant)
    qsym.product(Expr.basis("DI", ("ab",), AB), Expr.basis("RSDI", ("b", "a"), AB))
    nsym.pair(Expr.basis("IM", j, AB), Expr.basis("DI", k, AB))
    qsym.psi(Expr.basis("DI", j, AB))
    nsym.psi(Expr.basis("IM", j, AB))
    poset.structure_constants(("a", "b"), ("ab",), AB)
    assert kostka_table.cache_info().currsize == 0
    assert kostka_columns.cache_info().currsize == 0


def test_render_block():
    t = Tableau(("ab", "cb"), ((1, 2), (2, 3)))
    assert t.render_block() == "a,1|b,2\nc,2|b,3"
