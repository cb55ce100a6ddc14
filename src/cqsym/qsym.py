"""The quasisymmetric side: M, F, DI (dual immaculate) and RSDI (row-strict
dual immaculate) bases, conversions, Hopf operations, the psi involution,
uncoloring, and a truncated polynomial realization used as a product oracle.

convert takes the shortest chain of the single-step routes in _ROUTES: the
tableau expansions DI/RSDI -> F (one L row by key per term), the Mobius pair
M <-> F, the inversion F -> DI (one triangular solve over the whole
expression, tableaux.solve_rows), and its complement twin F -> RSDI.  L by
key is immaculate only: RSDI -> F complements the keys of each row
(tableaux.row_strict_row), and F -> RSDI the F indices, since
L_RS[J][C] = L[J][C^c].
Every other pair, M <-> DI/RSDI and DI <-> RSDI, goes through F, so no route
builds the Kostka matrix (L composed with F -> M).  Every other single-step
route, and the antipode, is a row route (exprs.row_route), and psi is the
one built for both sides by exprs.side_psi, with F as its pivot.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .exprs import Expr, TensorExpr, UncoloredExpr, require_side, row_route, side_converter, side_psi
from .sentences import (
    alternating,
    coarsenings,
    complement,
    quasishuffle,
    refinements,
    reversal,
    word_lengths,
)
from .tableaux import IMMACULATE, ROW_STRICT, ell_row, row_strict_row, solve_rows


# single-step routes ---------------------------------------------------

_f_to_m = row_route("M", lambda alphabet, i: dict.fromkeys(refinements(i), 1))
_m_to_f = row_route("F", lambda alphabet, i: alternating(refinements(i), len(i)))


_di_to_f = row_route("F", lambda alphabet, j: ell_row(j))
_rsdi_to_f = row_route("F", lambda alphabet, j: row_strict_row(ell_row(j)))


def _f_to_di(e: Expr) -> Expr:
    return Expr("DI", e.alphabet, solve_rows(e.terms))


# psi sends F_I to F_{I^c} and DI to RSDI, so F -> RSDI is F -> DI with the
# F indices complemented
def _f_to_rsdi(e: Expr) -> Expr:
    return Expr("RSDI", e.alphabet, solve_rows({complement(i): c for i, c in e.terms.items()}))


_ROUTES = {
    ("M", "F"): _m_to_f,
    ("F", "M"): _f_to_m,
    ("DI", "F"): _di_to_f,
    ("RSDI", "F"): _rsdi_to_f,
    ("F", "DI"): _f_to_di,
    ("F", "RSDI"): _f_to_rsdi,
}

convert = side_converter("qsym", _ROUTES)


# Hopf operations -------------------------------------------------------

def product(e1: Expr, e2: Expr) -> Expr:
    """Multiply in QSym_A: quasishuffle on the M basis, result returned in
    the basis of the first factor."""
    require_side(e1, "qsym")
    require_side(e2, "qsym")
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
    require_side(e, "qsym")
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


_antipode_m = row_route(
    "M", lambda alphabet, i: dict.fromkeys(map(reversal, coarsenings(i)), -1 if len(i) % 2 else 1)
)


def antipode_m(e: Expr) -> Expr:
    """S*(M_I) = (-1)^l(I) sum of M_J over J whose reversal coarsens I."""
    if e.tag != "M":
        raise ValueError("antipode_m expects an M-tagged expression")
    return _antipode_m(e)


_PSI_TAG = {"M": "M", "F": "F", "DI": "RSDI", "RSDI": "DI"}

psi = side_psi(convert, "F", _PSI_TAG)


def uncolor(e: Expr) -> UncoloredExpr:
    """Replace each index by its word lengths and merge coefficients."""
    require_side(e, "qsym")
    return UncoloredExpr(e.tag, ((word_lengths(i), c) for i, c in e.terms.items()))


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
