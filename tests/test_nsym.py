import random
from fractions import Fraction

import pytest

from cqsym import descent_graph as dg
from cqsym import nsym, qsym
from cqsym.exprs import Expr, UncoloredExpr, parse, row_route
from cqsym.sentences import (
    Alphabet,
    all_sentences,
    all_words,
    coarsenings,
    complement,
    refinements,
    size,
)
from cqsym.tableaux import IMMACULATE, ROW_STRICT, ell_columns, kostka, kostka_columns

AB = Alphabet("ab")
ABC = Alphabet("abc")
A = Alphabet("a")
A6 = Alphabet("abcdef")


def test_mrperp_paper_example():
    h = Expr.basis("H", ("ac", "bc", "ab", "cab"), ABC)
    got = nsym.mrperp(("c", "ab"), h)
    assert got == parse("H[a,bc,cab] + H[a,bc,ab,c] + H[ac,b,cab] + H[ac,b,ab,c]", ABC)


def test_mrperp_one_letter():
    got = nsym.mrperp(("a", "a"), Expr.basis("H", ("aa", "a", "a", "aa"), A))
    assert nsym.uncolor(got) == UncoloredExpr(
        "H", {(2, 2): 1, (2, 1, 1): 2, (1, 1, 2): 2, (1, 1, 1, 1): 1}
    )


def test_mrperp_empty_index():
    e = Expr.basis("H", ("ab", "c"), ABC)
    assert nsym.mrperp((), e) == e
    assert not nsym.mrperp(("c", "c", "c"), e)


def test_bernstein_base_cases():
    assert nsym.bernstein("def", Expr.basis("H", (), A6)) == Expr.basis("H", ("def",), A6)
    with pytest.raises(ValueError):
        nsym.bernstein("", Expr.basis("H", (), A6))
    with pytest.raises(ValueError):
        nsym.bernstein("a", Expr.basis("R", ("a",), AB))


def test_bernstein_eight_terms():
    e = nsym.bernstein("abc", Expr.basis("H", ("def",), A6))
    assert e == parse(
        "H[abc,def] - H[abcf,de] - H[abcef,d] + H[abcfe,d]"
        " - H[abcdef] + H[abcefd] + H[abcfde] - H[abcfed]",
        A6,
    )


def test_bernstein_one_letter():
    got = nsym.bernstein("a", Expr.basis("H", ("aa",), A))
    assert nsym.uncolor(got) == UncoloredExpr("H", {(1, 2): 1, (2, 1): -1})


def _single_letter_immaculate_in_h(j, alphabet):
    """Closed form when every word of j is a single letter: the signed sum of
    H over the coarsenings of j."""
    out = Expr("H", alphabet)
    for c in coarsenings(j):
        out.add_term(c, -1 if (len(j) - len(c)) % 2 else 1)
    return out


def test_immaculate_in_h():
    assert nsym.immaculate_in_h(("def",), A6) == Expr.basis("H", ("def",), A6)
    assert nsym.immaculate_in_h(("a", "b"), AB) == parse("H[a,b] - H[ab]", AB)
    # closed form for single-letter-word sentences agrees with the operators
    for alphabet, top in ((AB, 5), (ABC, 4)):
        for n in range(1, top + 1):
            for s in all_sentences(alphabet, n):
                if all(len(w) == 1 for w in s):
                    want = _single_letter_immaculate_in_h(s, alphabet)
                    assert nsym.immaculate_in_h(s, alphabet) == want, s
                    assert nsym.convert(Expr.basis("IM", s, alphabet), "H") == want, s


def test_creation_memos_are_bounded_and_evictions_change_no_row():
    # immaculate_in_h and _imm_h_row read the creation memos: every row
    # computed from empty memos equals the row computed after the Bernstein
    # memo has evicted, and neither memo holds more than its bound
    memos = (nsym._bernstein_terms, nsym._imm_h_terms)
    sentences = [j for n in range(6) for j in all_sentences(AB, n)]

    def rows(j):
        return (
            str(nsym.immaculate_in_h(j, AB)),
            str(Expr("E", AB, nsym._imm_h_row(AB, j))),
        )

    fresh = []
    for j in sentences:
        for memo in memos:
            memo.cache_clear()
        fresh.append(rows(j))
    for memo in memos:
        memo.cache_clear()
    for v in all_words(AB, 1) + all_words(AB, 2):
        for n in range(4):
            for t in all_sentences(AB, n):
                nsym._bernstein_terms(v, t)
    assert nsym._bernstein_terms.cache_info().misses > nsym._bernstein_terms.cache_info().maxsize
    assert [rows(j) for j in sentences] == fresh
    for memo in memos:
        info = memo.cache_info()
        assert info.currsize <= info.maxsize, memo


def test_uncolored_jacobi_trudi_value():
    got = nsym.uncolor(nsym.immaculate_in_h(("aa", "a"), A))
    assert got == UncoloredExpr("H", {(2, 1): 1, (3,): -1})


def test_convert_im_to_r_example():
    e = nsym.convert(Expr.basis("IM", ("a", "cb", "b"), ABC), "R")
    assert e == parse("R[a,cb,b] - R[ab,cb] + R[abb,c] - R[ab,c,b]", ABC)


def test_h_to_im_coefficients_are_kostka():
    c = ("a", "cb", "b")
    e = nsym.convert(Expr.basis("H", c, ABC), "IM")
    for shape, coef in e.terms.items():
        assert coef == kostka(shape, c), shape
    assert e.coefficient(("a", "cb", "b")) == 1


# H and E reach IM and RSIM through R.  The routes they replaced read the
# columns of the Kostka tables: H_B is the sum of K[J][B] IM_J, and psi sends
# it to E_B as the sum of K[J][B] RSIM_J; the row-strict table gives the
# other two.
_KOSTKA_COLUMN_ROUTES = {
    ("H", "IM"): IMMACULATE,
    ("E", "RSIM"): IMMACULATE,
    ("H", "RSIM"): ROW_STRICT,
    ("E", "IM"): ROW_STRICT,
}


def _kostka_column(variant):
    return lambda alphabet, j: kostka_columns(alphabet, size(j), variant).get(j, {})


def _cases():
    """(alphabet, terms): every basis element of ab n <= 5 and abc n <= 4,
    and a mixed-degree Fraction expression with an empty-sentence term."""
    cases = [(alphabet, {s: 1}) for alphabet, top in ((AB, 5), (ABC, 4))
             for n in range(top + 1) for s in all_sentences(alphabet, n)]
    cases.append((ABC, {(): Fraction(-3, 4), ("c",): 2, ("ab", "c"): Fraction(5, 3),
                        ("a", "bc"): -1, ("ca", "b", "a"): 7, ("abc", "ba"): Fraction(1, 2)}))
    return cases


def test_h_and_e_to_immaculate_match_the_kostka_columns():
    cases = _cases()
    for (src, dst), variant in _KOSTKA_COLUMN_ROUTES.items():
        reference = row_route(dst, _kostka_column(variant))
        for alphabet, terms in cases:
            e = Expr(src, alphabet, terms)
            assert nsym.convert(e, dst) == reference(e), (src, dst, terms)


# the whole-degree routes that the L columns by key replaced, kept as
# references: the transposed standard data and the built descent graph
def _table_column(complemented):
    def column(alphabet, c):
        c = complement(c) if complemented else c
        return ell_columns(alphabet, size(c)).get(c, {})

    return column


def _graph_column(complemented):
    def column(alphabet, j):
        if not j:
            return {(): 1}  # no graph has degree 0
        col = dg.inverse_column(dg.cached_graph(alphabet, size(j)), j)
        return {complement(i): v for i, v in col.items()} if complemented else col

    return column


_WHOLE_DEGREE_ROUTES = {
    ("R", "IM"): row_route("IM", _table_column(False)),
    ("R", "RSIM"): row_route("RSIM", _table_column(True)),
    ("IM", "R"): row_route("R", _graph_column(False)),
    ("RSIM", "R"): row_route("R", _graph_column(True)),
}


def test_routes_by_key_match_the_whole_degree_routes():
    for alphabet, terms in _cases():
        for (src, dst), reference in _WHOLE_DEGREE_ROUTES.items():
            e = Expr(src, alphabet, terms)
            assert nsym.convert(e, dst) == reference(e), (src, dst, terms)


def _creation_expansion(e, tag):
    """Each term c * X_j replaced by c times the creation-operator H
    expansion of the immaculate function of j, read in the basis tag."""
    out = Expr(tag, e.alphabet)
    for j, c in e.terms.items():
        for s, coef in nsym.immaculate_in_h(j, e.alphabet).terms.items():
            out.add_term(s, c * coef)
    return out


def test_immaculate_conversions_match_the_routes_through_h():
    # The references go through H: IM -> H -> R -> RSIM, RSIM -> H -> R -> IM
    # and RSIM -> H -> E.  The graph columns IM/RSIM -> R equal the coarsening
    # (H -> R) and E -> R maps of the creation operators' expansion, since psi
    # sends IM in H to RSIM in E.
    for alphabet, terms in _cases():
        im, rsim = Expr("IM", alphabet, terms), Expr("RSIM", alphabet, terms)
        im_in_h, rsim_in_e = _creation_expansion(im, "H"), _creation_expansion(rsim, "E")
        rsim_in_h = nsym._e_to_h(rsim_in_e)
        assert nsym.convert(rsim, "H") == rsim_in_h, terms
        assert nsym.convert(im, "RSIM") == nsym._r_to_rsim(nsym._h_to_r(im_in_h)), terms
        assert nsym.convert(rsim, "IM") == nsym._r_to_im(nsym._h_to_r(rsim_in_h)), terms
        assert nsym.convert(rsim, "E") == nsym._h_to_e(rsim_in_h), terms
        assert nsym.convert(im, "R") == nsym._h_to_r(im_in_h), terms
        assert nsym.convert(rsim, "R") == nsym._e_to_r(rsim_in_e), terms


def test_e_h_round_trips():
    for n in range(1, 6):
        for s in all_sentences(AB, n):
            e = Expr.basis("E", s, AB)
            assert nsym.convert(nsym.convert(e, "H"), "E") == e
            h = Expr.basis("H", s, AB)
            assert nsym.convert(nsym.convert(h, "E"), "H") == h
            assert nsym.convert(nsym.convert(h, "R"), "H") == h
            r = Expr.basis("R", s, AB)
            assert nsym.convert(nsym.convert(r, "H"), "R") == r


def test_e_single_letter():
    assert nsym.convert(Expr.basis("E", ("a",), AB), "H") == Expr.basis("H", ("a",), AB)


def test_e_in_ribbons_via_complement():
    # E_J equals the sum of ribbons over refinements of the complement; the
    # direct E -> R route reads this identity, so check it through H too
    for n in range(1, 6):
        for s in all_sentences(AB, n):
            e = Expr.basis("E", s, AB)
            want = Expr("R", AB, {i: 1 for i in refinements(complement(s))})
            assert nsym.convert(e, "R") == want, s
            assert nsym.convert(nsym.convert(e, "H"), "R") == want, s


def test_pieri_examples():
    p = nsym.pieri(("ab", "bc"), "ca", ABC)
    assert p == parse(
        "IM[ab,bc,ca] + IM[ab,bca,c] + IM[aba,bc,c] + IM[ab,bcca] + IM[aba,bcc] + IM[abca,bc]",
        ABC,
    )
    assert nsym.pieri((), "ca", ABC) == Expr.basis("IM", ("ca",), ABC)
    got = nsym.uncolor(nsym.pieri(("aa", "a"), "aa", A))
    assert got == UncoloredExpr(
        "IM", {(2, 1, 2): 1, (2, 2, 1): 1, (3, 1, 1): 1, (2, 3): 1, (3, 2): 1, (4, 1): 1}
    )


def test_pieri_agrees_with_operator_product():
    for total in range(1, 5):
        for wn in range(0, total + 1):
            for j in all_sentences(AB, total - wn):
                for w in all_words(AB, wn):
                    direct = nsym.pieri(j, w, AB)
                    via = nsym.product(
                        nsym.immaculate_in_h(j, AB),
                        Expr.basis("H", (w,) if w else (), AB),
                        target="IM",
                    )
                    assert direct == via, (j, w)


def test_hopf_product_concatenates():
    got = nsym.product(Expr.basis("H", ("ab",), ABC), Expr.basis("H", ("c", "a"), ABC))
    assert got == Expr.basis("H", ("ab", "c", "a"), ABC)


def test_coproduct_h():
    t = nsym.coproduct_h(Expr.basis("H", ("ab",), AB))
    assert t.coefficient((("ab",), ())) == 1
    assert t.coefficient(((), ("ab",))) == 1
    assert t.coefficient(((("a",)) and ("a",), ("b",))) == 1
    assert len(t.terms) == 3


def test_antipode_h_axiom():
    for n in range(1, 4):
        for s in all_sentences(AB, n):
            total = Expr.zero("H", AB)
            for (left, right), c in nsym.coproduct_h(Expr.basis("H", s, AB)).terms.items():
                sl = nsym.antipode_h(Expr.basis("H", left, AB))
                total = total + c * nsym.product(sl, Expr.basis("H", right, AB))
            assert not total, s


def test_psi_examples():
    assert nsym.psi(Expr.basis("E", ("ab",), AB)) == Expr.basis("H", ("ab",), AB)
    assert nsym.psi(Expr.basis("H", ("ab",), AB)) == Expr.basis("E", ("ab",), AB)
    five = Alphabet("abcde")
    assert nsym.psi(Expr.basis("R", ("abc", "de"), five)) == Expr.basis(
        "R", ("a", "b", "cd", "e"), five
    )
    assert nsym.psi(Expr.basis("IM", ("ab",), AB)) == Expr.basis("RSIM", ("ab",), AB)


def test_psi_involution_and_morphism():
    rng = random.Random(11)
    pool = [s for n in range(1, 4) for s in all_sentences(AB, n)]
    for tag in ("H", "E", "R", "IM", "RSIM"):
        for _ in range(8):
            e = Expr(tag, AB)
            for s in rng.sample(pool, 3):
                e.add_term(s, rng.randint(-3, 3))
            assert nsym.psi(nsym.psi(e)) == e
    for n1 in range(1, 3):
        for n2 in range(1, 3):
            for i in all_sentences(AB, n1):
                for j in all_sentences(AB, n2):
                    ri, rj = Expr.basis("R", i, AB), Expr.basis("R", j, AB)
                    assert nsym.psi(nsym.product(ri, rj)) == nsym.product(
                        nsym.psi(ri), nsym.psi(rj)
                    )


def test_pair_examples():
    assert nsym.pair(Expr.basis("H", ("ab", "c"), ABC), Expr.basis("M", ("ab", "c"), ABC)) == 1
    assert nsym.pair(Expr.basis("H", ("ab",), ABC), Expr.basis("M", ("a", "b"), ABC)) == 0
    # mixed degrees pair to zero silently
    assert nsym.pair(Expr.basis("H", ("ab",), ABC), Expr.basis("M", ("a",), ABC)) == 0
    for i in all_sentences(AB, 3):
        for j in all_sentences(AB, 3):
            assert nsym.pair(
                Expr.basis("R", i, AB), qsym.convert(Expr.basis("F", j, AB), "M")
            ) == (1 if i == j else 0)


def test_mrperp_adjoint_to_right_multiplication():
    rng = random.Random(23)
    pool = [s for n in range(1, 4) for s in all_sentences(AB, n)]
    for _ in range(25):
        s = rng.choice([x for x in pool if len(x) <= 2])
        n = Expr("H", AB)
        q = Expr("M", AB)
        for x in rng.sample(pool, 3):
            n.add_term(x, rng.randint(-2, 2))
        for x in rng.sample(pool, 3):
            q.add_term(x, rng.randint(-2, 2))
        lhs = nsym.pair(nsym.mrperp(s, n), q)
        rhs = nsym.pair(n, qsym.product(q, Expr.basis("M", s, AB)))
        assert lhs == rhs, (s, str(n), str(q))


def test_duality_small():
    for n in range(1, 4):
        idx = all_sentences(AB, n)
        for i in idx:
            im = nsym.convert(Expr.basis("IM", i, AB), "H")
            rs = nsym.convert(Expr.basis("RSIM", i, AB), "H")
            for j in idx:
                di = qsym.convert(Expr.basis("DI", j, AB), "M")
                rsdi = qsym.convert(Expr.basis("RSDI", j, AB), "M")
                want = 1 if i == j else 0
                assert nsym.pair(im, di) == want
                assert nsym.pair(rs, rsdi) == want


def test_conversion_chains_agree_with_direct_route():
    rng = random.Random(37)
    pool = [s for n in range(1, 5) for s in all_sentences(AB, n)]
    tags = ("H", "E", "R", "IM", "RSIM")
    for _ in range(60):
        src, mid, dst = (rng.choice(tags) for _ in range(3))
        e = Expr(src, AB)
        for s in rng.sample(pool, 3):
            e.add_term(s, rng.randint(-4, 4))
        chained = nsym.convert(nsym.convert(e, mid), dst)
        direct = nsym.convert(e, dst)
        assert chained == direct, (src, mid, dst)


def test_uncolor():
    assert nsym.uncolor(Expr.basis("H", ("ab", "c"), ABC)) == UncoloredExpr("H", {(2, 1): 1})
