import random
from fractions import Fraction

import pytest

from cqsym import descent_graph as dg
from cqsym import qsym
from cqsym.exprs import Expr, UncoloredExpr, parse, row_route
from cqsym.sentences import Alphabet, all_sentences, canonical_key, complement, size
from cqsym.tableaux import IMMACULATE, ROW_STRICT, ell_table, kostka_table

AB = Alphabet("ab")
ABC = Alphabet("abc")
A = Alphabet("a")


def test_di_to_m_example():
    e = qsym.convert(Expr.basis("DI", ("ab", "cb"), ABC), "M")
    assert e.coefficient(("a", "cb", "b")) == 2
    # every coefficient is a tableau count, so positive
    assert all(c > 0 for c in e.terms.values())


def test_f_to_di_example():
    e = qsym.convert(Expr.basis("F", ("ab", "cbb"), ABC), "DI")
    assert e == parse("DI[ab,cbb] - DI[a,cbb,b] + DI[a,c,bbb] - DI[a,cbbb]", ABC)


def test_one_letter_di_expansions():
    di = Expr.basis("DI", ("aa", "aa"), A)
    assert qsym.uncolor(qsym.convert(di, "F")) == UncoloredExpr(
        "F", {(1, 2, 1): 1, (1, 3): 1, (2, 2): 1}
    )
    assert qsym.uncolor(qsym.convert(di, "M")) == UncoloredExpr(
        "M", {(2, 2): 1, (2, 1, 1): 1, (1, 3): 1, (1, 2, 1): 2, (1, 1, 2): 2, (1, 1, 1, 1): 3}
    )


def test_f_m_round_trip():
    for n in range(6):
        for s in all_sentences(AB, n):
            f = Expr.basis("F", s, AB)
            assert qsym.convert(qsym.convert(f, "M"), "F") == f


def test_di_f_rsdi_round_trips():
    for n in range(6):
        for s in all_sentences(AB, n):
            f = Expr.basis("F", s, AB)
            assert qsym.convert(qsym.convert(f, "DI"), "F") == f
            assert qsym.convert(qsym.convert(f, "RSDI"), "F") == f
            m = Expr.basis("M", s, AB)
            assert qsym.convert(qsym.convert(m, "DI"), "M") == m
            assert qsym.convert(qsym.convert(m, "RSDI"), "M") == m


# --- the Kostka routes, kept as references ---------------------------------
#
# The conversions between M and DI/RSDI go through F.  These are the routes
# they replaced: the rows of the Kostka table, and unitriangular
# back-substitution against it, degree by degree in canonical order.

def _kostka_row(variant):
    return lambda alphabet, j: kostka_table(alphabet, size(j), variant)[j]


_kostka_di_to_m = row_route("M", _kostka_row(IMMACULATE))
_kostka_rsdi_to_m = row_route("M", _kostka_row(ROW_STRICT))


def _kostka_m_to_di(e):
    out = Expr("DI", e.alphabet)
    for n, part in e.degrees().items():
        if n == 0:
            out.add_term((), part[()])
            continue
        table = kostka_table(e.alphabet, n, IMMACULATE)
        remaining = dict(part)
        # the table is built over all_sentences, already in canonical order
        for j in table:
            c = remaining.get(j, 0)
            if not c:
                continue
            out.add_term(j, c)
            for b, count in table[j].items():
                new = remaining.get(b, 0) - c * count
                if new:
                    remaining[b] = new
                else:
                    remaining.pop(b, None)
        assert not remaining, "Kostka back-substitution left a remainder"
    return out


def _kostka_cases():
    """Every basis sentence of ab n <= 5 and abc n <= 4, then one
    mixed-degree Fraction expression with a degree-0 term."""
    for alphabet, top in ((AB, 5), (ABC, 4)):
        for n in range(top + 1):
            for s in all_sentences(alphabet, n):
                yield alphabet, {s: 1}
    yield ABC, {
        (): Fraction(-3, 4),
        ("c",): 2,
        ("ab", "c"): Fraction(5, 3),
        ("a", "bc"): -1,
        ("ca", "b", "a"): 7,
        ("abc", "ba"): Fraction(1, 2),
    }


def test_m_and_dual_immaculate_routes_match_the_kostka_references():
    for alphabet, terms in _kostka_cases():
        m = Expr("M", alphabet, terms)
        assert qsym.convert(m, "DI") == _kostka_m_to_di(m), terms
        di = Expr("DI", alphabet, terms)
        assert qsym.convert(di, "M") == _kostka_di_to_m(di), terms
        rsdi = Expr("RSDI", alphabet, terms)
        assert qsym.convert(rsdi, "M") == _kostka_rsdi_to_m(rsdi), terms


def test_dual_immaculate_twins_convert_through_f_as_through_m():
    # DI <-> RSDI is the one pair without a direct route; it takes the F
    # pivot, and must agree with the composite through M
    for alphabet, terms in _kostka_cases():
        for src, dst in (("DI", "RSDI"), ("RSDI", "DI")):
            e = Expr(src, alphabet, terms)
            through_m = qsym.convert(qsym.convert(e, "M"), dst)
            assert qsym.convert(e, dst) == through_m, (src, terms)


# the whole-degree routes that the L rows by key replaced, kept as
# references: the cached standard data and the built descent graph
def _table_row(variant):
    return lambda alphabet, j: ell_table(alphabet, size(j), variant)[j]


def _graph_row(complemented):
    def row(alphabet, i):
        if not i:
            return {(): 1}  # no graph has degree 0
        return dg.inverse_row(dg.cached_graph(alphabet, size(i)), complement(i) if complemented else i)

    return row


_WHOLE_DEGREE_ROUTES = {
    ("DI", "F"): row_route("F", _table_row(IMMACULATE)),
    ("RSDI", "F"): row_route("F", _table_row(ROW_STRICT)),
    ("F", "DI"): row_route("DI", _graph_row(False)),
    ("F", "RSDI"): row_route("RSDI", _graph_row(True)),
}


def test_routes_by_key_match_the_whole_degree_routes():
    for alphabet, terms in _kostka_cases():
        for (src, dst), reference in _WHOLE_DEGREE_ROUTES.items():
            e = Expr(src, alphabet, terms)
            assert qsym.convert(e, dst) == reference(e), (src, dst, terms)


def test_kostka_matrix_unitriangular():
    for n in range(1, 6):
        table = kostka_table(AB, n, IMMACULATE)
        for shape, row in table.items():
            assert row.get(shape) == 1
            for b in row:
                assert canonical_key(shape, AB) <= canonical_key(b, AB), (shape, b)


def test_product_di_example():
    p = qsym.product(Expr.basis("DI", ("ab",), ABC), Expr.basis("DI", ("c",), ABC))
    assert p == parse("DI[abc] + DI[c,ab] + DI[ac,b] - DI[a,bc]", ABC)


def test_product_unit_and_one_letter():
    e = Expr.basis("M", ("ab", "c"), ABC)
    assert qsym.product(e, Expr.basis("M", (), ABC)) == e
    p = qsym.product(Expr.basis("M", ("aa", "a"), A), Expr.basis("M", ("a",), A))
    assert qsym.uncolor(p) == UncoloredExpr(
        "M", {(2, 1, 1): 2, (1, 2, 1): 1, (2, 2): 1, (3, 1): 1}
    )


def test_coproduct_m():
    t = qsym.coproduct(Expr.basis("M", ("a", "bc"), ABC))
    assert t.coefficient(((), ("a", "bc"))) == 1
    assert t.coefficient((("a",), ("bc",))) == 1
    assert t.coefficient((("a", "bc"), ())) == 1
    assert len(t.terms) == 3


def test_coproduct_m_one_letter():
    t = qsym.coproduct(Expr.basis("M", ("a", "aa", "a"), A))
    lengths = {
        (tuple(map(len, l)), tuple(map(len, r))): c for (l, r), c in t.terms.items()
    }
    assert lengths == {
        ((), (1, 2, 1)): 1,
        ((1,), (2, 1)): 1,
        ((1, 2), (1,)): 1,
        ((1, 2, 1), ()): 1,
    }


def test_coproduct_di_degree_one():
    t = qsym.coproduct(Expr.basis("DI", ("a",), AB))
    assert t.coefficient(((), ("a",))) == 1
    assert t.coefficient((("a",), ())) == 1
    assert len(t.terms) == 2


def test_coproduct_unsupported_tag():
    with pytest.raises(ValueError):
        qsym.coproduct(Expr.basis("F", ("a",), AB))


def test_antipode_examples():
    assert qsym.antipode_m(Expr.basis("M", ("a",), AB)) == parse("-M[a]", AB)
    assert qsym.antipode_m(Expr.basis("M", ("a", "b"), AB)) == parse("M[b,a] + M[ab]", AB)


def _antipode_collapse(s, alphabet):
    total = Expr.zero("M", alphabet)
    for (left, right), c in qsym.coproduct(Expr.basis("M", s, alphabet)).terms.items():
        sl = qsym.antipode_m(Expr.basis("M", left, alphabet))
        total = total + c * qsym.product(sl, Expr.basis("M", right, alphabet))
    return total


def test_antipode_axiom():
    assert not _antipode_collapse(("a", "bc"), ABC)
    for n in range(1, 5):
        for s in all_sentences(AB, n):
            assert not _antipode_collapse(s, AB)


def test_psi_examples():
    five = Alphabet("abcde")
    assert qsym.psi(Expr.basis("F", ("abc", "de"), five)) == Expr.basis(
        "F", ("a", "b", "cd", "e"), five
    )
    assert qsym.psi(Expr.basis("DI", ("ab", "cb"), ABC)) == Expr.basis(
        "RSDI", ("ab", "cb"), ABC
    )


def test_psi_involution_random_exprs():
    rng = random.Random(7)
    pool = [s for n in range(1, 5) for s in all_sentences(AB, n)]
    for tag in ("M", "F", "DI", "RSDI"):
        for _ in range(10):
            e = Expr(tag, AB)
            for s in rng.sample(pool, 4):
                e.add_term(s, rng.randint(-3, 3))
            assert qsym.psi(qsym.psi(e)) == e


def test_uncolor_merges():
    e = Expr.basis("M", ("ab", "c"), ABC) + Expr.basis("M", ("ba", "c"), ABC)
    assert qsym.uncolor(e) == UncoloredExpr("M", {(2, 1): 2})


def test_uncolor_di_analogy():
    # the uncoloring of a colored dual immaculate M-expansion matches the
    # classical one computed independently from the one-letter alphabet
    di = qsym.convert(Expr.basis("DI", ("aa", "a", "aa"), A), "M")
    got = qsym.uncolor(di)
    # independent: classical immaculate Kostka numbers by brute force over
    # integer fillings of the composition diagram
    import itertools

    def classical_kostka(shape, beta):
        entries = []
        for v, mult in enumerate(beta, start=1):
            entries.extend([v] * mult)
        boxes = [(i, j) for i, l in enumerate(shape) for j in range(l)]
        count = 0
        for perm in set(itertools.permutations(entries)):
            grid = dict(zip(boxes, perm))
            ok = True
            for i, l in enumerate(shape):
                for j in range(1, l):
                    if grid[(i, j)] < grid[(i, j - 1)]:
                        ok = False
            firsts = [grid[(i, 0)] for i in range(len(shape))]
            if any(b <= a for a, b in zip(firsts, firsts[1:])):
                ok = False
            if ok:
                count += 1
        return count

    for comp, coef in got.terms.items():
        assert coef == classical_kostka((2, 1, 2), comp), comp


def test_realize_examples():
    r = qsym.realize(Expr.basis("M", ("a", "bc"), ABC), 3)
    assert r == {
        (("a", 1), ("bc", 2)): 1,
        (("a", 1), ("bc", 3)): 1,
        (("a", 2), ("bc", 3)): 1,
    }
    assert qsym.realize(Expr.basis("M", (), ABC), 4) == {(): 1}
    with pytest.raises(ValueError):
        qsym.realize(Expr.basis("F", ("a",), AB), 3)
    with pytest.raises(ValueError):
        qsym.realize(Fraction(1, 2) * Expr.basis("M", ("a",), AB), 3)


def test_monomial_multiply():
    assert qsym.monomial_multiply((("a", 2), ("b", 3)), (("c", 2),)) == (
        ("ac", 2),
        ("b", 3),
    )
    # the paper's reordering example: b at 1, a and c sharing 2, b at 3
    assert qsym.monomial_multiply((("b", 1), ("a", 2)), (("c", 2), ("b", 3))) == (
        ("b", 1),
        ("ac", 2),
        ("b", 3),
    )


def test_realization_product_oracle_small():
    for n1 in range(1, 3):
        for n2 in range(1, 3):
            positions = n1 + n2 + 1
            for i in all_sentences(AB, n1):
                ei = Expr.basis("M", i, AB)
                ri = qsym.realize(ei, positions)
                for j in all_sentences(AB, n2):
                    ej = Expr.basis("M", j, AB)
                    lhs = qsym.realize(qsym.product(ei, ej), positions)
                    assert lhs == qsym.realization_product(ri, qsym.realize(ej, positions))


def test_conversion_chains_agree_with_direct_route():
    # converting through any intermediate basis must equal the direct
    # conversion; exercises every route pairing on random expressions
    rng = random.Random(31)
    pool = [s for n in range(1, 5) for s in all_sentences(AB, n)]
    tags = ("M", "F", "DI", "RSDI")
    for _ in range(60):
        src, mid, dst = (rng.choice(tags) for _ in range(3))
        e = Expr(src, AB)
        for s in rng.sample(pool, 3):
            e.add_term(s, Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2])))
        chained = qsym.convert(qsym.convert(e, mid), dst)
        direct = qsym.convert(e, dst)
        assert chained == direct, (src, mid, dst)


def test_convert_rejects_wrong_side():
    with pytest.raises(ValueError):
        qsym.convert(Expr.basis("M", ("a",), AB), "H")
    with pytest.raises(ValueError):
        qsym.convert(Expr.basis("H", ("a",), AB), "M")
