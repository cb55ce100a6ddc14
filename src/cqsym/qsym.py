"""The quasisymmetric side: M, F, DI (dual immaculate) and RSDI (row-strict
dual immaculate) bases, conversions, Hopf operations, the psi involution,
uncoloring, and a truncated polynomial realization used as a product oracle.

Every cross-basis route pivots through M; the direct single-step routes are
the tableau expansions (DI/RSDI into M and F), the Mobius pair M <-> F, the
descent-graph inversion F -> DI, and its complement twin F -> RSDI.  M -> DI
is unitriangular back-substitution against the Kostka matrix per degree.
"""

from __future__ import annotations

import itertools
from collections import Counter

from . import descent_graph as dg
from .exprs import Expr, TensorExpr, UncoloredExpr, side
from .sentences import (
    coarsenings,
    complement,
    quasishuffle,
    refinements,
    reversal,
    size,
    word_lengths,
)
from .tableaux import IMMACULATE, ROW_STRICT, ell_table, kostka_table


def _require_side(e: Expr, which: str):
    if side(e.tag) != which:
        raise ValueError(f"expected a {which} expression, got tag {e.tag}")


def convert(e: Expr, target: str) -> Expr:
    """Rewrite e in the target basis of QSym_A."""
    _require_side(e, "qsym")
    if side(target) != "qsym":
        raise ValueError(f"cannot convert QSym_A expression to {target} (wrong side)")
    if e.tag == target:
        return e
    route = _ROUTES.get((e.tag, target))
    if route is not None:
        return route(e)
    return convert(convert(e, "M"), target)


# single-step routes ---------------------------------------------------

def _f_to_m(e: Expr) -> Expr:
    out = Expr("M", e.alphabet)
    for i, c in e.terms.items():
        for j in refinements(i):
            out.add_term(j, c)
    return out


def _m_to_f(e: Expr) -> Expr:
    out = Expr("F", e.alphabet)
    for i, c in e.terms.items():
        li = len(i)
        for j in refinements(i):
            out.add_term(j, -c if (len(j) - li) % 2 else c)
    return out


def _tableau_row_route(table_fn, variant, out_tag):
    def route(e: Expr) -> Expr:
        out = Expr(out_tag, e.alphabet)
        for j, c in e.terms.items():
            if not j:
                out.add_term((), c)
                continue
            row = table_fn(e.alphabet, size(j), variant)[j]
            for b, count in row.items():
                out.add_term(b, c * count)
        return out

    return route


_di_to_m = _tableau_row_route(kostka_table, IMMACULATE, "M")
_rsdi_to_m = _tableau_row_route(kostka_table, ROW_STRICT, "M")


def _ell_row_route(variant, out_tag):
    def route(e: Expr) -> Expr:
        out = Expr(out_tag, e.alphabet)
        for j, c in e.terms.items():
            if not j:
                out.add_term((), c)
                continue
            row = ell_table(e.alphabet, size(j), variant)[j]
            for comp, count in row.items():
                out.add_term(comp, c * count)
        return out

    return route


_di_to_f = _ell_row_route(IMMACULATE, "F")
_rsdi_to_f = _ell_row_route(ROW_STRICT, "F")


def _f_to_di(e: Expr) -> Expr:
    out = Expr("DI", e.alphabet)
    for i, c in e.terms.items():
        if not i:
            out.add_term((), c)
            continue
        g = dg.cached_graph(e.alphabet, size(i))
        for k, coef in dg.inverse_row(g, i).items():
            out.add_term(k, c * coef)
    return out


def _f_to_rsdi(e: Expr) -> Expr:
    # psi sends F_I to F_{I^c} and DI to RSDI, so the row-strict inverse
    # coefficients are the immaculate ones read from the complement
    out = Expr("RSDI", e.alphabet)
    for i, c in e.terms.items():
        if not i:
            out.add_term((), c)
            continue
        g = dg.cached_graph(e.alphabet, size(i))
        for k, coef in dg.inverse_row(g, complement(i)).items():
            out.add_term(k, c * coef)
    return out


def _m_to_di(e: Expr) -> Expr:
    """Back-substitute against the unitriangular Kostka matrix, degree by
    degree in canonical order."""
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
        if remaining:
            raise ArithmeticError("Kostka back-substitution left a remainder")
    return out


def _m_to_rsdi(e: Expr) -> Expr:
    # the row-strict Kostka matrix has zero diagonal entries, so there is no
    # unitriangular order to back-substitute in; go through F instead
    return _f_to_rsdi(_m_to_f(e))


_ROUTES = {
    ("M", "F"): _m_to_f,
    ("F", "M"): _f_to_m,
    ("DI", "M"): _di_to_m,
    ("DI", "F"): _di_to_f,
    ("RSDI", "M"): _rsdi_to_m,
    ("RSDI", "F"): _rsdi_to_f,
    ("F", "DI"): _f_to_di,
    ("F", "RSDI"): _f_to_rsdi,
    ("M", "DI"): _m_to_di,
    ("M", "RSDI"): _m_to_rsdi,
}


# Hopf operations -------------------------------------------------------

def product(e1: Expr, e2: Expr) -> Expr:
    """Multiply in QSym_A: quasishuffle on the M basis, result returned in
    the basis of the first factor."""
    _require_side(e1, "qsym")
    _require_side(e2, "qsym")
    if e1.alphabet != e2.alphabet:
        raise ValueError("mixed alphabets")
    m1, m2 = convert(e1, "M"), convert(e2, "M")
    out = Expr("M", e1.alphabet)
    for i, c1 in m1.terms.items():
        for j, c2 in m2.terms.items():
            for k, mult in quasishuffle(i, j).items():
                out.add_term(k, c1 * c2 * mult)
    return convert(out, e1.tag)


def coproduct(e: Expr) -> TensorExpr:
    """Deconcatenation coproduct on M; the DI and RSDI coproducts go through
    skew functions (see the poset module)."""
    _require_side(e, "qsym")
    if e.tag == "M":
        out = TensorExpr(("M", "M"), e.alphabet)
        for i, c in e.terms.items():
            for cut in range(len(i) + 1):
                out.add_term((i[:cut], i[cut:]), c)
        return out
    if e.tag in ("DI", "RSDI"):
        from . import poset  # deferred: poset builds on this module

        variant = IMMACULATE if e.tag == "DI" else ROW_STRICT
        out = TensorExpr((e.tag, e.tag), e.alphabet)
        for i, c in e.terms.items():
            t = poset.coproduct_di(i, e.alphabet, variant)
            for pair, coef in t.terms.items():
                out.add_term(pair, c * coef)
        return out
    raise ValueError(f"coproduct not defined on tag {e.tag}; convert to M, DI or RSDI first")


def antipode_m(e: Expr) -> Expr:
    """S*(M_I) = (-1)^l(I) sum of M_J over J whose reversal coarsens I."""
    if e.tag != "M":
        raise ValueError("antipode_m expects an M-tagged expression")
    out = Expr("M", e.alphabet)
    for i, c in e.terms.items():
        sign = -c if len(i) % 2 else c
        for j in coarsenings(i):
            out.add_term(reversal(j), sign)
    return out


_PSI_TAG = {"M": "M", "F": "F", "DI": "RSDI", "RSDI": "DI"}


def psi(e: Expr) -> Expr:
    """The involution complementing F indices; swaps DI and RSDI."""
    _require_side(e, "qsym")
    f = convert(e, "F")
    out = Expr("F", e.alphabet)
    for i, c in f.terms.items():
        out.add_term(complement(i), c)
    return convert(out, _PSI_TAG[e.tag])


def uncolor(e: Expr) -> UncoloredExpr:
    """Replace each index by its word lengths and merge coefficients."""
    _require_side(e, "qsym")
    out = UncoloredExpr(e.tag)
    for i, c in e.terms.items():
        out.add_term(word_lengths(i), c)
    return out


# polynomial realization -------------------------------------------------
#
# A colored monomial is a tuple of (word, position) pairs with strictly
# increasing positions.  Variables at distinct positions commute; at a shared
# position the words concatenate in factor order.

def realize(e: Expr, positions: int) -> Counter:
    """Expand an M-tagged expression over position indices 1..positions.
    Coefficients become multiplicities, so they must be non-negative ints."""
    if e.tag != "M":
        raise ValueError("realize expects an M-tagged expression")
    if positions < 1:
        raise ValueError("positions must be >= 1")
    out = Counter()
    for i, c in e.terms.items():
        if not isinstance(c, int) or c < 0:
            raise ValueError("realization needs non-negative integer coefficients")
        if len(i) > positions:
            continue
        for spots in itertools.combinations(range(1, positions + 1), len(i)):
            out[tuple(zip(i, spots))] += c
    return out


def monomial_multiply(m1: tuple, m2: tuple) -> tuple:
    """Merge two colored monomials by position; words at a shared position
    concatenate with the first factor's word on the left."""
    d = {}
    for w, p in m1:
        d[p] = d.get(p, "") + w
    for w, p in m2:
        d[p] = d.get(p, "") + w
    return tuple((d[p], p) for p in sorted(d))


def realization_product(r1: Counter, r2: Counter) -> Counter:
    out = Counter()
    for m1, c1 in r1.items():
        for m2, c2 in r2.items():
            out[monomial_multiply(m1, m2)] += c1 * c2
    return out
