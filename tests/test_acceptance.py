"""Acceptance criteria, one test per criterion.

All arithmetic is exact, so every comparison is bit-exact equality of term
multisets (dict equality on normalized expressions).  Each test prints one
pass/fail line with its elapsed time and enforces the stated budget.
"""

import csv
import io
import itertools
import random
import time
from fractions import Fraction

from cqsym import descent_graph as dg
from cqsym import nsym, poset, qsym, verify
from cqsym.cli import main as cli_main
from cqsym.exprs import Expr, UncoloredExpr, parse
from cqsym.sentences import (
    Alphabet,
    all_sentences,
    all_words,
    complement,
    sort_sentences,
    word_lengths,
)
from cqsym.tableaux import IMMACULATE, ell_coeff, ell_table, kostka, kostka_columns

AB = Alphabet("ab")
ABC = Alphabet("abc")
A = Alphabet("a")
A6 = Alphabet("abcdef")


def _criterion(num, budget_seconds, body):
    start = time.time()
    try:
        body()
    except Exception:
        print(f"criterion {num}: FAIL ({time.time() - start:.2f}s)")
        raise
    elapsed = time.time() - start
    print(f"criterion {num}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {num} exceeded {budget_seconds}s"


# 1 -------------------------------------------------------------------------

def test_criterion_1_golden_expansions():
    def body():
        checks = []

        def timed(label, fn):
            t = time.time()
            fn()
            checks.append((label, time.time() - t))

        timed("dual immaculate into M", lambda: _golden_di_to_m())
        timed("F into dual immaculate", lambda: _golden_f_to_di())
        timed("immaculate in H", lambda: _golden_imm_h())
        timed("right perp", lambda: _golden_mrperp())
        timed("Pieri product", lambda: _golden_pieri())
        timed("immaculate into ribbon", lambda: _golden_im_to_r())
        timed("dual immaculate product", lambda: _golden_di_product())
        timed("descent count", lambda: _golden_ell())
        timed("weak-type count", lambda: _golden_kostka_weak())
        for label, took in checks:
            assert took < 1.0, label

    _criterion(1, 15, body)


def _golden_di_to_m():
    e = qsym.convert(Expr.basis("DI", ("ab", "cb"), ABC), "M")
    assert e.coefficient(("a", "cb", "b")) == 2


def _golden_f_to_di():
    e = qsym.convert(Expr.basis("F", ("ab", "cbb"), ABC), "DI")
    assert e == parse("DI[ab,cbb] - DI[a,cbb,b] + DI[a,c,bbb] - DI[a,cbbb]", ABC)


def _golden_imm_h():
    e = nsym.immaculate_in_h(("abc", "def"), A6)
    assert e == parse(
        "H[abc,def] - H[abcf,de] - H[abcef,d] + H[abcfe,d]"
        " - H[abcdef] + H[abcefd] + H[abcfde] - H[abcfed]",
        A6,
    )


def _golden_mrperp():
    got = nsym.mrperp(("c", "ab"), Expr.basis("H", ("ac", "bc", "ab", "cab"), ABC))
    assert got == parse("H[a,bc,cab] + H[a,bc,ab,c] + H[ac,b,cab] + H[ac,b,ab,c]", ABC)


def _golden_pieri():
    got = nsym.pieri(("ab", "bc"), "ca", ABC)
    assert got == parse(
        "IM[ab,bc,ca] + IM[ab,bca,c] + IM[aba,bc,c] + IM[ab,bcca] + IM[aba,bcc] + IM[abca,bc]",
        ABC,
    )


def _golden_im_to_r():
    got = nsym.convert(Expr.basis("IM", ("a", "cb", "b"), ABC), "R")
    assert got == parse("R[a,cb,b] - R[ab,cb] + R[abb,c] - R[ab,c,b]", ABC)


def _golden_di_product():
    got = qsym.product(Expr.basis("DI", ("ab",), ABC), Expr.basis("DI", ("c",), ABC))
    assert got == parse("DI[abc] + DI[c,ab] + DI[ac,b] - DI[a,bc]", ABC)


def _golden_ell():
    assert ell_coeff(("ab", "cb", "b"), ("a", "cb", "bb")) == 2


def _golden_kostka_weak():
    assert kostka(("ab", "cb"), ("", "a", "", "cb", "b")) == 2


# 2 -------------------------------------------------------------------------

def test_criterion_2_one_letter_specialization():
    def body():
        di = Expr.basis("DI", ("aa", "aa"), A)
        assert qsym.uncolor(qsym.convert(di, "M")) == UncoloredExpr(
            "M",
            {(2, 2): 1, (2, 1, 1): 1, (1, 3): 1, (1, 2, 1): 2, (1, 1, 2): 2, (1, 1, 1, 1): 3},
        )
        assert qsym.uncolor(qsym.convert(di, "F")) == UncoloredExpr(
            "F", {(1, 2, 1): 1, (1, 3): 1, (2, 2): 1}
        )
        prod = qsym.product(Expr.basis("M", ("aa", "a"), A), Expr.basis("M", ("a",), A))
        assert qsym.uncolor(prod) == UncoloredExpr(
            "M", {(2, 1, 1): 2, (1, 2, 1): 1, (2, 2): 1, (3, 1): 1}
        )
        cop = qsym.coproduct(Expr.basis("M", ("a", "aa", "a"), A))
        got = {
            (word_lengths(l), word_lengths(r)): c for (l, r), c in cop.terms.items()
        }
        assert got == {
            ((), (1, 2, 1)): 1,
            ((1,), (2, 1)): 1,
            ((1, 2), (1,)): 1,
            ((1, 2, 1), ()): 1,
        }
        perp = nsym.mrperp(("a", "a"), Expr.basis("H", ("aa", "a", "a", "aa"), A))
        assert nsym.uncolor(perp) == UncoloredExpr(
            "H", {(2, 2): 1, (2, 1, 1): 2, (1, 1, 2): 2, (1, 1, 1, 1): 1}
        )
        pieri = nsym.pieri(("aa", "a"), "aa", A)
        assert nsym.uncolor(pieri) == UncoloredExpr(
            "IM",
            {(2, 1, 2): 1, (2, 2, 1): 1, (3, 1, 1): 1, (2, 3): 1, (3, 2): 1, (4, 1): 1},
        )

    _criterion(2, 6, body)


# 3 -------------------------------------------------------------------------

def test_criterion_3_duality():
    def body():
        report = verify.run("duality", AB, 4)
        assert report["failures"] == []
        expected = 2 * sum(len(all_sentences(AB, n)) ** 2 for n in range(1, 5))
        assert report["checks"] == expected
        assert len(all_sentences(AB, 4)) == 128

    _criterion(3, 30, body)


# 4 -------------------------------------------------------------------------

def _h_expansions_by_back_substitution(alphabet, n):
    """Solve the unitriangular system H_C = sum_J K_{J,C} S_J for every S in
    canonical order; independent of the creation-operator route."""
    cols = kostka_columns(alphabet, n, IMMACULATE)
    order = sort_sentences(all_sentences(alphabet, n), alphabet)
    sol = {}
    for c in order:
        expr = {c: 1}
        for j, count in cols.get(c, {}).items():
            if j == c:
                continue
            for h_index, coef in sol[j].items():
                new = expr.get(h_index, 0) - count * coef
                if new:
                    expr[h_index] = new
                else:
                    del expr[h_index]
        sol[c] = expr
    return sol


def test_criterion_4_two_algorithm_agreement():
    def body():
        for n in range(1, 6):
            sol = _h_expansions_by_back_substitution(AB, n)
            for j in all_sentences(AB, n):
                via_operators = nsym.immaculate_in_h(j, AB)
                assert via_operators.terms == sol[j], j

    _criterion(4, 30, body)


# 5 -------------------------------------------------------------------------

def test_criterion_5_pieri_consistency():
    def body():
        for total in range(1, 6):
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

    _criterion(5, 30, body)


# 6 -------------------------------------------------------------------------

def test_criterion_6_descent_graph_integrity():
    def body():
        for n in range(1, 6):
            g = dg.build(n, ABC)
            assert g.is_acyclic
            for i, targets in g.edges.items():
                for j in targets:
                    assert word_lengths(j) < word_lengths(i)
            table = ell_table(ABC, n)
            for i in g.vertices:
                inv = dg.inverse_row(g, i)
                acc = {}
                for k, c in inv.items():
                    for target, w in table[k].items():
                        acc[target] = acc.get(target, 0) + c * w
                assert {k: v for k, v in acc.items() if v} == {i: 1}, i
                acc = {}
                for j, w in table[i].items():
                    for k, c in dg.inverse_row(g, j).items():
                        acc[k] = acc.get(k, 0) + w * c
                assert {k: v for k, v in acc.items() if v} == {i: 1}, i
        g5 = dg.build(5, ABC)
        root = ("ab", "cbb")
        nodes = set(dg.reachable(g5, root))
        assert nodes == {
            ("ab", "cbb"),
            ("a", "cbb", "b"),
            ("a", "cb", "bb"),
            ("a", "cbbb"),
            ("a", "c", "bbb"),
            ("a", "c", "bb", "b"),
            ("a", "c", "b", "bb"),
        }
        edges = {
            (i, j): w for i in nodes for j, w in g5.out_edges(i).items() if j in nodes
        }
        assert edges == {
            (("ab", "cbb"), ("a", "cbb", "b")): 1,
            (("ab", "cbb"), ("a", "cb", "bb")): 1,
            (("ab", "cbb"), ("a", "cbbb")): 1,
            (("a", "cbb", "b"), ("a", "cb", "bb")): 1,
            (("a", "cbb", "b"), ("a", "c", "bbb")): 1,
            (("a", "cb", "bb"), ("a", "c", "bb", "b")): 1,
            (("a", "cb", "bb"), ("a", "c", "bbb")): 1,
            (("a", "c", "bb", "b"), ("a", "c", "b", "bb")): 1,
        }

    _criterion(6, 30, body)


# 7 -------------------------------------------------------------------------

def test_criterion_7_involutions():
    def body():
        for n in range(1, 5):
            for s in all_sentences(AB, n):
                for tag in ("M", "F", "DI", "RSDI"):
                    e = Expr.basis(tag, s, AB)
                    assert qsym.psi(qsym.psi(e)) == e
                for tag in ("H", "E", "R", "IM", "RSIM"):
                    e = Expr.basis(tag, s, AB)
                    assert nsym.psi(nsym.psi(e)) == e
                assert nsym.psi(Expr.basis("E", s, AB)) == Expr.basis("H", s, AB)
                assert qsym.psi(Expr.basis("DI", s, AB)) == Expr.basis("RSDI", s, AB)
        for n1 in range(1, 4):
            for n2 in range(1, 4):
                if n1 + n2 > 4:
                    continue
                for i in all_sentences(AB, n1):
                    for j in all_sentences(AB, n2):
                        ri, rj = Expr.basis("R", i, AB), Expr.basis("R", j, AB)
                        assert nsym.psi(nsym.product(ri, rj)) == nsym.product(
                            nsym.psi(ri), nsym.psi(rj)
                        )

    _criterion(7, 30, body)


# 8 -------------------------------------------------------------------------

def _tensor_pair(cop, q1_m, q2_m):
    total = 0
    for (left, right), c in cop.terms.items():
        a = q1_m.terms.get(left)
        if not a:
            continue
        b = q2_m.terms.get(right)
        if b:
            total += c * a * b
    return total


def test_criterion_8_hopf_axioms():
    def body():
        for n in range(1, 4):
            for s in all_sentences(AB, n):
                total = Expr.zero("H", AB)
                for (l, r), c in nsym.coproduct_h(Expr.basis("H", s, AB)).terms.items():
                    sl = nsym.antipode_h(Expr.basis("H", l, AB))
                    total = total + c * nsym.product(sl, Expr.basis("H", r, AB))
                assert not total, s
                total = Expr.zero("M", AB)
                for (l, r), c in qsym.coproduct(Expr.basis("M", s, AB)).terms.items():
                    sl = qsym.antipode_m(Expr.basis("M", l, AB))
                    total = total + c * qsym.product(sl, Expr.basis("M", r, AB))
                assert not total, s
        # coassociativity on H, M and DI
        def coassoc(element, coproduct):
            first = coproduct(element)
            left, right = {}, {}
            for (a, b), c in first.terms.items():
                for (a1, a2), c2 in coproduct(a).terms.items():
                    left[(a1, a2, b)] = left.get((a1, a2, b), 0) + c * c2
                for (b1, b2), c2 in coproduct(b).terms.items():
                    right[(a, b1, b2)] = right.get((a, b1, b2), 0) + c * c2
            assert {k: v for k, v in left.items() if v} == {
                k: v for k, v in right.items() if v
            }

        for n in range(1, 4):
            for s in all_sentences(AB, n):
                coassoc(s, lambda x: nsym.coproduct_h(Expr.basis("H", x, AB)))
                coassoc(s, lambda x: qsym.coproduct(Expr.basis("M", x, AB)))
                coassoc(s, lambda x: poset.coproduct_di(x, AB))
        # product/coproduct duality on seeded random pairs
        rng = random.Random(404)
        pool = [x for n in range(1, 4) for x in all_sentences(AB, n)]
        for _ in range(40):
            h = Expr("H", AB)
            for x in rng.sample(pool, 3):
                h.add_term(x, rng.randint(-2, 2))
            q1 = Expr.basis("M", rng.choice(pool), AB)
            q2 = Expr.basis("M", rng.choice(pool), AB)
            lhs = nsym.pair(h, qsym.product(q1, q2))
            rhs = _tensor_pair(nsym.coproduct_h(h), q1, q2)
            assert lhs == rhs
            n1 = Expr.basis("H", rng.choice(pool), AB)
            n2 = Expr.basis("H", rng.choice(pool), AB)
            q = Expr("M", AB)
            for x in rng.sample(pool, 3):
                q.add_term(x, rng.randint(-2, 2))
            lhs = nsym.pair(nsym.product(n1, n2), q)
            rhs = 0
            for (left, right), c in qsym.coproduct(q).terms.items():
                a = n1.terms.get(left)
                b = n2.terms.get(right) if a else None
                if a and b:
                    rhs += c * a * b
            assert lhs == rhs

    _criterion(8, 30, body)


# 9 -------------------------------------------------------------------------

def test_criterion_9_realization_oracle():
    def body():
        for total in range(2, 6):
            for n1 in range(1, total):
                n2 = total - n1
                positions = total + 1
                for i in all_sentences(AB, n1):
                    ei = Expr.basis("M", i, AB)
                    ri = qsym.realize(ei, positions)
                    for j in all_sentences(AB, n2):
                        ej = Expr.basis("M", j, AB)
                        lhs = qsym.realize(qsym.product(ei, ej), positions)
                        rhs = qsym.realization_product(ri, qsym.realize(ej, positions))
                        assert lhs == rhs, (i, j)

    _criterion(9, 30, body)


# 10 ------------------------------------------------------------------------

def _brute_uncolored_ell_table(n):
    comps = []
    for r in range(n):
        for cuts in itertools.combinations(range(1, n), r):
            cuts = (0,) + cuts + (n,)
            comps.append(tuple(b - a for a, b in zip(cuts, cuts[1:])))
    table = {}
    for alpha in comps:
        boxes = [(i, j) for i, p in enumerate(alpha) for j in range(p)]
        row = {}
        for perm in itertools.permutations(range(1, n + 1)):
            grid = dict(zip(boxes, perm))
            ok = True
            for i, p in enumerate(alpha):
                for j in range(1, p):
                    if grid[(i, j)] < grid[(i, j - 1)]:
                        ok = False
            firsts = [grid[(i, 0)] for i in range(len(alpha))]
            if any(b <= a for a, b in zip(firsts, firsts[1:])):
                ok = False
            if not ok:
                continue
            pos = {v: box for box, v in grid.items()}
            des = [t for t in range(1, n) if pos[t + 1][0] > pos[t][0]]
            cuts = [0] + des + [n]
            beta = tuple(b - a for a, b in zip(cuts, cuts[1:]))
            row[beta] = row.get(beta, 0) + 1
        table[alpha] = row
    return comps, table


def _invert_with_fractions(comps, table):
    m = len(comps)
    mat = [
        [Fraction(table[comps[r]].get(comps[c], 0)) for c in range(m)] for r in range(m)
    ]
    inv = [[Fraction(1 if r == c else 0) for c in range(m)] for r in range(m)]
    for col in range(m):
        assert mat[col][col] == 1
        for r in range(m):
            if r != col and mat[r][col]:
                f = mat[r][col]
                for c in range(m):
                    mat[r][c] -= f * mat[col][c]
                    inv[r][c] -= f * inv[col][c]
    return inv


def test_criterion_10_uncolored_table(capsys):
    def body():
        for n in range(1, 7):
            comps, brute = _brute_uncolored_ell_table(n)
            comps = sorted(comps, key=lambda c: tuple(-p for p in c))
            inv = _invert_with_fractions(comps, brute)
            want = {}
            for r, alpha in enumerate(comps):
                row = {
                    comps[c]: int(inv[r][c]) for c in range(len(comps)) if inv[r][c]
                }
                want[alpha] = row
            assert dg.uncolored_coeffs(n) == want
        # the CSV deliverable from the CLI matches the same table at n = 6
        code = cli_main(["coeffs", "--degree", "6", "--uncolored"])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["from", "to", "coeff"]
        comps, brute = _brute_uncolored_ell_table(6)
        comps = sorted(comps, key=lambda c: tuple(-p for p in c))
        inv = _invert_with_fractions(comps, brute)
        want_rows = {}
        for r, alpha in enumerate(comps):
            for c, beta in enumerate(comps):
                if inv[r][c]:
                    want_rows[
                        (",".join(map(str, alpha)), ",".join(map(str, beta)))
                    ] = int(inv[r][c])
        got_rows = {(r[0], r[1]): int(r[2]) for r in rows[1:]}
        assert got_rows == want_rows

    _criterion(10, 30, body)
