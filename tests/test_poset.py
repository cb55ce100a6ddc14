import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqsym import nsym, poset, qsym
from cqsym.exprs import Expr, TensorExpr, parse
from cqsym.sentences import Alphabet, all_sentences, complement, from_splits, size
from cqsym.tableaux import (
    IMMACULATE,
    ROW_STRICT,
    descent_counts,
    ell_row,
    enumerate_standard,
    fillings,
    reading_type,
)

AB = Alphabet("ab")
ABC = Alphabet("abc")
A6 = Alphabet("abcdef")


def test_covers_counts_and_contents():
    cs = poset.covers(("a",), AB)
    assert len(cs) == 4
    assert {(c.row, c.color, c.upper) for c in cs} == {
        (1, "a", ("aa",)),
        (1, "b", ("ab",)),
        (2, "a", ("a", "a")),
        (2, "b", ("a", "b")),
    }
    assert {c.upper for c in poset.covers((), AB)} == {("a",), ("b",)}
    for n in range(3):
        for s in all_sentences(AB, n):
            assert len(poset.covers(s, AB)) == (len(s) + 1) * 2


def test_chain_replay_example():
    steps = [("a",), ("a", "d"), ("a", "de"), ("ab", "de"), ("ab", "def"), ("abc", "def")]
    found = [ch for ch in poset.chains((), ("abc", "def")) if [e.upper for e in ch] == steps]
    assert len(found) == 1
    t = poset.chain_to_tableau(found[0])
    assert t.rows == ((1, 4, 6), (2, 3, 5))
    labels = [(e.row, e.color) for e in found[0]]
    assert labels == [(1, "a"), (2, "d"), (2, "e"), (1, "b"), (2, "f"), (1, "c")]


def test_skew_chain_example():
    steps = [("ab", "de"), ("ab", "def"), ("abc", "def")]
    found = [
        ch
        for ch in poset.chains(("a", "de"), ("abc", "def"))
        if [e.upper for e in ch] == steps
    ]
    t = poset.chain_to_tableau(found[0])
    assert t.rows == ((None, 1, 3), (None, None, 2))
    assert t.is_standard()


def test_chains_error_outside_interval():
    with pytest.raises(ValueError):
        poset.chains(("b",), ("ab", "c"))


def test_chain_tableau_bijection():
    for n in range(1, 5):
        for j in all_sentences(AB, n):
            chs = poset.chains((), j)
            standards = enumerate_standard(j)
            assert len(chs) == len(standards)
            got = {tuple(r for r in poset.chain_to_tableau(c).rows) for c in chs}
            assert got == {t.rows for t in standards}


def test_inner_sentences():
    inner = poset.inner_sentences(("ab", "c"))
    assert set(inner) == {(), ("a",), ("ab",), ("a", "c"), ("ab", "c")}
    assert poset.left_contained((), ("ab", "c"))
    assert not poset.left_contained(("c",), ("ab", "c"))


# (variant, dual immaculate tag, immaculate tag)
FAMILIES = ((IMMACULATE, "DI", "IM"), (ROW_STRICT, "RSDI", "RSIM"))


def test_skew_trivial_and_straight():
    for variant, dual_tag, _ in FAMILIES:
        e = poset.skew_expand(("ab", "c"), ("ab", "c"), "M", ABC, variant)
        assert e == Expr.basis("M", (), ABC)
        for j in all_sentences(AB, 3):
            assert poset.skew_expand(j, (), "M", AB, variant) == qsym.convert(
                Expr.basis(dual_tag, j, AB), "M"
            ), (variant, j)


def test_skew_m_matches_pairing_definition():
    # the definition: the Y_K coefficient of the skew function of I/J is
    # <S_J X_K, S*_I> for dual bases (X, Y): (H, M) up to degree 4, and
    # (R, F) and the immaculate family with its dual up to degree 3
    for variant, dual_tag, imm_tag in FAMILIES:
        for n in range(1, 5):
            duals = (("H", "M"),) if n > 3 else (("H", "M"), ("R", "F"), (imm_tag, dual_tag))
            for i in all_sentences(AB, n):
                dual_m = qsym.convert(Expr.basis(dual_tag, i, AB), "M")
                for j in poset.inner_sentences(i):
                    s_j = nsym.convert(Expr.basis(imm_tag, j, AB), "H")
                    for x_tag, y_tag in duals:
                        skew = poset.skew_expand(i, j, y_tag, AB, variant)
                        for k in all_sentences(AB, n - size(j)):
                            val = nsym.pair(
                                nsym.product(s_j, Expr.basis(x_tag, k, AB)), dual_m
                            )
                            assert skew.coefficient(k) == val, (variant, i, j, y_tag, k)


def test_skew_descents_of_straight_shapes_are_the_l_rows():
    # the walk with an empty inner shape is the straight-shape walk
    for alphabet, top in ((Alphabet("a"), 7), (AB, 5), (ABC, 4)):
        for n in range(1, top + 1):
            for shape in all_sentences(alphabet, n):
                assert descent_counts(shape, ()) == ell_row(shape), shape


# (outer, inner) with empty inner words, which leave their rows' first boxes
# in the first column
WEAK_INNER = [
    (("a", "ab", "b"), ("", "a")),
    (("ab", "a", "ba"), ("", "", "b")),
    (("a", "ab", "ab"), ("", "a", "")),
    (("ab", "ba", "a"), ("a", "", "a")),
]


def test_skew_descents_count_the_saturated_chains():
    # one standard skew tableau per saturated chain from J to I
    pairs = [
        (i, j) for n in range(5) for i in all_sentences(AB, n) for j in poset.inner_sentences(i)
    ]
    for i, j in pairs + WEAK_INNER:
        assert sum(descent_counts(i, j).values()) == len(poset.chains(j, i)), (i, j)


# the reference route for skew functions: every skew filling of I/J, of
# any type, counted by its type into M, then converted to the target

def reference_skew_m(i, j, alphabet, variant):
    out = Expr("M", alphabet)
    for rows in fillings(i, j, variant):
        out.add_term(reading_type(i, rows, variant), 1)
    return out


def reference_coproduct(i, alphabet, variant):
    tag = "DI" if variant == IMMACULATE else "RSDI"
    out = TensorExpr((tag, tag), alphabet)
    for j in poset.inner_sentences(i):
        for k, c in qsym.convert(reference_skew_m(i, j, alphabet, variant), tag).terms.items():
            out.add_term((j, k), c)
    return out


def assert_skew_matches_reference(i, j, alphabet):
    for variant, dual_tag, _ in FAMILIES:
        m = reference_skew_m(i, j, alphabet, variant)
        for target in ("M", "F", dual_tag):
            got = poset.skew_expand(i, j, target, alphabet, variant)
            assert got == qsym.convert(m, target), (i, j, variant, target)


@pytest.mark.parametrize("alphabet,top", [(AB, 5), (ABC, 4)])
def test_skew_from_standard_tableaux_matches_the_filling_count(alphabet, top):
    # every (I, J) with J left-contained in I, J = () and J = I included
    for n in range(top + 1):
        for i in all_sentences(alphabet, n):
            for j in poset.inner_sentences(i):
                assert_skew_matches_reference(i, j, alphabet)


def test_skew_with_a_weak_inner_shape_matches_the_filling_count():
    for i, j in WEAK_INNER:
        assert_skew_matches_reference(i, j, AB)


@pytest.mark.parametrize("alphabet,top", [(AB, 4), (ABC, 3)])
def test_coproducts_match_the_filling_count(alphabet, top):
    for n in range(top + 1):
        for i in all_sentences(alphabet, n):
            for variant, tag, _ in FAMILIES:
                want = reference_coproduct(i, alphabet, variant)
                assert poset.coproduct_di(i, alphabet, variant) == want, (i, variant)
                assert qsym.coproduct(Expr.basis(tag, i, alphabet)) == want, (i, tag)


@st.composite
def skew_shapes(draw):
    """(alphabet, outer, inner): an outer sentence of size 1..6 over at most
    three letters and an inner sentence left-contained in it."""
    alphabet = Alphabet(draw(st.sampled_from(("a", "ab", "abc"))))
    n = draw(st.integers(1, 6))
    word = "".join(draw(st.lists(st.sampled_from(alphabet.colors), min_size=n, max_size=n)))
    outer = from_splits(word, draw(st.sets(st.integers(1, n - 1))) if n > 1 else ())
    inner = draw(st.sampled_from(poset.inner_sentences(outer)))
    return alphabet, outer, inner


@settings(derandomize=True, max_examples=120, deadline=None)
@given(skew_shapes())
def test_skew_property_matches_the_filling_count(case):
    alphabet, outer, inner = case
    assert_skew_matches_reference(outer, inner, alphabet)


# rows of enumerate_skew_tableaux, in list order
SKEW_ROWS_GOLDENS = [
    (("ab", "b", "a"), ("a",), IMMACULATE, [
        ((None, 1), (2,), (3,)), ((None, 2), (1,), (3,)), ((None, 3), (1,), (2,)),
        ((None, 2), (1,), (2,)), ((None, 1), (1,), (2,)),
    ]),
    (("ab", "b", "a"), ("a",), ROW_STRICT, [
        ((None, 3), (1,), (2,)), ((None, 2), (1,), (3,)), ((None, 2), (1,), (2,)),
        ((None, 2), (1,), (1,)), ((None, 1), (2,), (3,)), ((None, 1), (2,), (2,)),
        ((None, 1), (1,), (2,)), ((None, 1), (1,), (1,)),
    ]),
    (("aab", "ba"), ("a", "b"), IMMACULATE, [
        ((None, 1, 2), (None, 3)), ((None, 1, 3), (None, 2)), ((None, 1, 2), (None, 2)),
        ((None, 1, 1), (None, 2)), ((None, 2, 3), (None, 1)), ((None, 2, 2), (None, 1)),
        ((None, 1, 2), (None, 1)), ((None, 1, 1), (None, 1)),
    ]),
    (("aab", "ba"), ("a", "b"), ROW_STRICT, [
        ((None, 2, 3), (None, 1)), ((None, 1, 3), (None, 2)), ((None, 1, 2), (None, 3)),
        ((None, 1, 2), (None, 2)), ((None, 1, 2), (None, 1)),
    ]),
    (("ab", "a"), (), IMMACULATE, [
        ((1, 2), (3,)), ((1, 3), (2,)), ((1, 2), (2,)), ((1, 1), (2,)),
    ]),
    (("ab", "a"), (), ROW_STRICT, [
        ((1, 3), (2,)), ((1, 2), (3,)), ((1, 2), (2,)), ((1, 2), (1,)),
    ]),
    (("ab", "ba"), ("ab",), IMMACULATE, [((None, None), (1, 2)), ((None, None), (1, 1))]),
    (("ab", "ba"), ("ab",), ROW_STRICT, [((None, None), (1, 2))]),
    (("ab", "c"), ("ab", "c"), ROW_STRICT, [((None, None), (None,))]),
    # an empty inner word leaves its row's first box in the first column
    (("a", "ab", "b"), ("", "a"), IMMACULATE, [
        ((1,), (None, 2), (3,)), ((1,), (None, 3), (2,)), ((1,), (None, 2), (2,)),
        ((2,), (None, 1), (3,)), ((1,), (None, 1), (2,)),
    ]),
    (("a", "ab", "b"), ("", "a"), ROW_STRICT, [
        ((2,), (None, 1), (3,)), ((2,), (None, 1), (2,)), ((1,), (None, 3), (2,)),
        ((1,), (None, 2), (3,)), ((1,), (None, 2), (2,)), ((1,), (None, 2), (1,)),
        ((1,), (None, 1), (2,)), ((1,), (None, 1), (1,)),
    ]),
]


@pytest.mark.parametrize("outer,inner,variant,rows", SKEW_ROWS_GOLDENS)
def test_skew_tableaux_rows_golden(outer, inner, variant, rows):
    got = poset.enumerate_skew_tableaux(outer, inner, variant)
    assert [t.rows for t in got] == rows
    assert all(t.variant == variant for t in got)


def test_structure_constants_examples():
    sc = poset.structure_constants(("ab",), ("c",), ABC)
    assert sc == {("ab", "c"): 1, ("abc",): 1}
    assert poset.structure_constants((), ("ab", "c"), ABC) == {("ab", "c"): 1}
    # the signed product lives on the dual side
    p = qsym.product(Expr.basis("DI", ("ab",), ABC), Expr.basis("DI", ("c",), ABC))
    assert p == parse("DI[abc] + DI[c,ab] + DI[ac,b] - DI[a,bc]", ABC)


def test_structure_constants_match_skew_coefficients():
    for n in range(1, 5):
        for i in all_sentences(AB, n):
            for j in poset.inner_sentences(i):
                skew = poset.skew_expand(i, j, "DI", AB)
                for k in all_sentences(AB, n - size(j)):
                    assert skew.coefficient(k) == poset.structure_constants(
                        j, k, AB
                    ).get(i, 0), (i, j, k)


def test_coproduct_counit():
    for n in range(1, 4):
        for i in all_sentences(AB, n):
            t = poset.coproduct_di(i, AB)
            assert {k: c for (j, k), c in t.terms.items() if j == ()} == {i: 1}
            assert {j: c for (j, k), c in t.terms.items() if k == ()} == {i: 1}


def test_coproduct_duality_with_structure_constants():
    for n in range(1, 4):
        for i in all_sentences(AB, n):
            t = poset.coproduct_di(i, AB)
            for (j, k), c in t.terms.items():
                assert poset.structure_constants(j, k, AB).get(i, 0) == c


def test_coproduct_di_agrees_with_deconcatenation():
    # the skew-function coproduct and the elementary deconcatenation coproduct
    # compute the same map, so they must agree after conversion to M (x) M
    for n in range(1, 4):
        for i in all_sentences(AB, n):
            via_skew = {}
            for (j, k), c in poset.coproduct_di(i, AB).terms.items():
                mj = qsym.convert(Expr.basis("DI", j, AB), "M")
                mk = qsym.convert(Expr.basis("DI", k, AB), "M")
                for a, ca in mj.terms.items():
                    for b, cb in mk.terms.items():
                        key = (a, b)
                        val = via_skew.get(key, 0) + c * ca * cb
                        if val:
                            via_skew[key] = val
                        else:
                            via_skew.pop(key, None)
            direct = {}
            for s, c in qsym.convert(Expr.basis("DI", i, AB), "M").terms.items():
                for cut in range(len(s) + 1):
                    key = (s[:cut], s[cut:])
                    direct[key] = direct.get(key, 0) + c
            assert via_skew == direct, i


def test_coproduct_coassociative():
    for n in range(1, 4):
        for i in all_sentences(AB, n):
            t = poset.coproduct_di(i, AB)
            left = {}
            right = {}
            for (j, k), c in t.terms.items():
                for (j1, j2), c2 in poset.coproduct_di(j, AB).terms.items():
                    key = (j1, j2, k)
                    left[key] = left.get(key, 0) + c * c2
                for (k1, k2), c2 in poset.coproduct_di(k, AB).terms.items():
                    key = (j, k1, k2)
                    right[key] = right.get(key, 0) + c * c2
            left = {k: v for k, v in left.items() if v}
            right = {k: v for k, v in right.items() if v}
            assert left == right, i


def test_row_strict_skew_via_psi():
    for n in range(1, 4):
        for i in all_sentences(AB, n):
            for j in poset.inner_sentences(i):
                f_imm = poset.skew_expand(i, j, "F", AB, IMMACULATE)
                f_rs = poset.skew_expand(i, j, "F", AB, ROW_STRICT)
                twisted = Expr("F", AB)
                for k, c in f_imm.terms.items():
                    twisted.add_term(complement(k) if k else (), c)
                assert twisted == f_rs, (i, j)


def test_row_strict_coproduct_counit():
    for i in all_sentences(AB, 3):
        t = poset.coproduct_di(i, AB, ROW_STRICT)
        assert {k: c for (j, k), c in t.terms.items() if j == ()} == {i: 1}


def test_skew_errors():
    with pytest.raises(ValueError):
        poset.skew_expand(("ab",), ("b",), "M", AB)
    with pytest.raises(ValueError):
        poset.skew_expand(("ab",), ("a",), "RSDI", AB, IMMACULATE)
    with pytest.raises(ValueError):
        poset.skew_expand(("ab",), ("a",), "H", AB)


def test_skew_tableau_rendering():
    t = poset.SkewTableau(("abc", "def"), ("a", "de"), ((None, 1, 3), (None, None, 2)))
    assert t.render_block() == "a,-|b,1|c,3\nd,-|e,-|f,2"
    assert t.type_() == ("b", "f", "c")
