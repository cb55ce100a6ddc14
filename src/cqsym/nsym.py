"""The noncommutative side: H, E, R, IM (immaculate) and RSIM (row-strict
immaculate) bases, the right perp operator, creation operators, the right
Pieri rule, Hopf operations, psi, the duality pairing and uncoloring.

The immaculate function of a sentence (v_1, ..., v_h) is built by applying
the creation operator of v_1 to the immaculate function of (v_2, ..., v_h),
starting from the unit.  A creation operator acts on a single H term by
removing a suffix from each row (possibly empty), refining the removed
sentence, and gluing the reversed refinement onto the new first word with an
alternating sign.  This enumeration is finite term by term, unlike the
defining sum over all words.

Two bounded LRU memos hold the creation operators' work, and callers must
not mutate what they return.  No conversion route reads them: only
immaculate_in_h, the creation command and the duality and Pieri suites do.
_bernstein_terms(v, j) is B_v(H_j), at most 128 entries.  _imm_h_terms(j)
is the H expansion of the immaculate function of j, built from the entry
of its tail j[1:], at most 4,096 entries: an evicted entry recomputes its
whole suffix chain when read again.  The bounds trade the suites' speed
for warm memory.  With 4,096 and 8,192 entries, a warm session grew
5.375-5.5 MB instead of 5.0 MB (rss_growth_mb, 2 pairs), while on one CPU
verify pieri at ab <= 6 took 2.28 s instead of 3.58 s and verify duality
at abc <= 5 1.86 s instead of 3.29 s; the larger _imm_h_terms alone made
no measurable change.

convert takes the shortest chain of the single-step routes in _ROUTES: the
Mobius maps between H, E and R, the L columns by key R -> IM/RSIM, and the
inversions IM/RSIM -> R (one triangular solve over the whole expression,
tableaux.solve_columns).  L by key is immaculate only: the RSIM routes
complement the R index, since L_RS[J][C] = L[J][C^c].  Every route into or
out of IM and RSIM goes through R: IM -> H is IM -> R -> H and RSIM -> E is
RSIM -> R -> E.  The creation operators stay as a check of the solve that
shares no code with it.

Every other single-step route, and the antipode, rewrites an expression one
term at a time, so each is a row route (exprs.row_route), and psi is the one
built for both sides by exprs.side_psi, with R as its pivot.  The right perp
and the creation operators take an argument besides the expression (s or
v), so they stay loops.
"""

from __future__ import annotations

from functools import lru_cache

from . import qsym
from .exprs import Expr, TensorExpr, UncoloredExpr, require_side, row_route, side_converter, side_psi
from .sentences import (
    Alphabet,
    Sentence,
    Word,
    alternating,
    coarsenings,
    complement,
    concat,
    flatten,
    maximal_word,
    pieri_extensions,
    refinements,
    reversal,
    size,
    suffix_removals,
    word_lengths,
)
from .tableaux import ell_column, solve_columns


# ---------------------------------------------------------------------------
# perp and creation operators

def mrperp(s: Sentence, e: Expr) -> Expr:
    """Right perp by the monomial function of s: from each H index remove,
    per row, a suffix, so that the removed rows read s in row order."""
    if e.tag != "H":
        raise ValueError("mrperp acts on H-tagged expressions")
    out = Expr("H", e.alphabet)
    for j, c in e.terms.items():
        for k, rest in suffix_removals(j):
            if flatten(k) == s:
                out.add_term(flatten(rest), c)
    return out


def bernstein(v: Word, e: Expr) -> Expr:
    """Colored creation operator indexed by the non-empty word v."""
    if not v:
        raise ValueError("creation operators are indexed by non-empty words")
    if e.tag != "H":
        raise ValueError("bernstein acts on H-tagged expressions")
    e.alphabet.check_word(v)
    out = Expr("H", e.alphabet)
    for j, c in e.terms.items():
        for s, coef in _bernstein_terms(v, j).items():
            out.add_term(s, c * coef)
    return out


def _sum_terms(pairs) -> dict:
    """Add up (index, coefficient) pairs into a dict that keeps no zero."""
    out = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
        if not out[key]:
            del out[key]
    return out


@lru_cache(maxsize=128)
def _bernstein_terms(v: Word, j: Sentence) -> dict:
    return _sum_terms(
        ((v + maximal_word(reversal(q)),) + flatten(rest), -1 if len(q) % 2 else 1)
        for k, rest in suffix_removals(j)
        for q in refinements(flatten(k))
    )


@lru_cache(maxsize=4096)
def _imm_h_terms(j: Sentence) -> dict:
    """H expansion of the immaculate function of j, by creation operators."""
    if not j:
        return {(): 1}
    return _sum_terms(
        (s, c * coef)
        for tail, c in _imm_h_terms(j[1:]).items()
        for s, coef in _bernstein_terms(j[0], tail).items()
    )


def _imm_h_row(alphabet: Alphabet, j: Sentence) -> dict:
    alphabet.check_sentence(j)
    return _imm_h_terms(j)


def immaculate_in_h(j: Sentence, alphabet: Alphabet) -> Expr:
    """The immaculate function of j as an H-tagged expression."""
    return Expr("H", alphabet, _imm_h_row(alphabet, j))


# ---------------------------------------------------------------------------
# conversions

# R_D is the signed sum of H_K over the coarsenings K of D; psi sends H_K to
# E_K and R_D to R_complement(D), so it is also the signed sum of E_K over the
# coarsenings K of complement(D)
def _signed_coarsenings(i: Sentence) -> dict:
    return alternating(coarsenings(i), len(i))


_r_to_h = row_route("H", lambda alphabet, i: _signed_coarsenings(i))
_h_to_r = row_route("R", lambda alphabet, i: dict.fromkeys(coarsenings(i), 1))
# elementary <-> complete: the same signed refinement sum both ways; the
# matrix squares to the identity, which the test suite asserts per degree
_e_to_h = row_route("H", lambda alphabet, i: alternating(refinements(i), size(i)))
_h_to_e = row_route("E", lambda alphabet, i: alternating(refinements(i), size(i)))
# E_J is the sum of the ribbons over the refinements of complement(J)
_e_to_r = row_route("R", lambda alphabet, i: dict.fromkeys(refinements(complement(i)), 1))
_r_to_e = row_route("E", lambda alphabet, i: _signed_coarsenings(complement(i)))


# R_C is the sum over shapes J of L[J][C] IM_J (the transpose of DI -> F).
# psi fixes R up to complementing the index and sends IM to RSIM, so R_C is
# also the sum of L[J][complement(C)] RSIM_J.  H and E reach IM and RSIM
# through R, so no route builds the Kostka columns (the coarsening map
# H -> R composed with these L columns).
_r_to_im = row_route("IM", lambda alphabet, c: ell_column(c))
_r_to_rsim = row_route("RSIM", lambda alphabet, c: ell_column(complement(c)))


# the inverse of R -> IM, one triangular solve over the L columns
def _im_to_r(e: Expr) -> Expr:
    return Expr("R", e.alphabet, solve_columns(e.terms))


# psi fixes R up to complementing the index and sends IM to RSIM
def _rsim_to_r(e: Expr) -> Expr:
    return Expr("R", e.alphabet, {complement(i): c for i, c in solve_columns(e.terms).items()})


_ROUTES = {
    ("R", "H"): _r_to_h,
    ("H", "R"): _h_to_r,
    ("E", "H"): _e_to_h,
    ("H", "E"): _h_to_e,
    ("E", "R"): _e_to_r,
    ("R", "E"): _r_to_e,
    ("R", "IM"): _r_to_im,
    ("R", "RSIM"): _r_to_rsim,
    ("IM", "R"): _im_to_r,
    ("RSIM", "R"): _rsim_to_r,
}

convert = side_converter("nsym", _ROUTES)


# ---------------------------------------------------------------------------
# Hopf operations on the H basis

def product(e1: Expr, e2: Expr, target: str = None) -> Expr:
    """Multiply in NSym_A: concatenation on the H basis; the result comes
    back in the basis of the first factor unless a target tag is given."""
    require_side(e1, "nsym")
    require_side(e2, "nsym")
    if e1.alphabet != e2.alphabet:
        raise ValueError("mixed alphabets")
    h1, h2 = convert(e1, "H"), convert(e2, "H")
    out = Expr("H", e1.alphabet)
    for i, c1 in h1.terms.items():
        for j, c2 in h2.terms.items():
            out.add_term(concat(i, j), c1 * c2)
    return convert(out, target if target is not None else e1.tag)


def coproduct_h(e: Expr) -> TensorExpr:
    """Deconcatenation dual: sum over per-row suffix removals."""
    if e.tag != "H":
        raise ValueError("coproduct_h expects an H-tagged expression")
    out = TensorExpr(("H", "H"), e.alphabet)
    for i, c in e.terms.items():
        for k, rest in suffix_removals(i):
            out.add_term((flatten(rest), flatten(k)), c)
    return out


_antipode_h = row_route("H", lambda alphabet, i: alternating(refinements(reversal(i))))


def antipode_h(e: Expr) -> Expr:
    """S(H_I) = sum over refinements J of the reversal of I of (-1)^l(J) H_J."""
    if e.tag != "H":
        raise ValueError("antipode_h expects an H-tagged expression")
    return _antipode_h(e)


_PSI_TAG = {"H": "E", "E": "H", "R": "R", "IM": "RSIM", "RSIM": "IM"}

psi = side_psi(convert, "R", _PSI_TAG)


# ---------------------------------------------------------------------------
# Pieri rule, pairing, uncoloring

def pieri(j: Sentence, w: Word, alphabet: Alphabet) -> Expr:
    """Right multiplication of the immaculate function of j by H of the word
    w, as an IM-tagged sum with decomposition multiplicities."""
    alphabet.check_sentence(j)
    alphabet.check_word(w, allow_empty=True)
    out = Expr("IM", alphabet)
    for k in pieri_extensions(j, w):
        out.add_term(k, 1)
    return out


def pair(n: Expr, q: Expr):
    """Duality pairing of NSym_A with QSym_A: <H_I, M_J> = delta."""
    require_side(n, "nsym")
    require_side(q, "qsym")
    if n.alphabet != q.alphabet:
        raise ValueError("mixed alphabets")
    h = convert(n, "H")
    m = qsym.convert(q, "M")
    small, large = (h.terms, m.terms) if len(h.terms) <= len(m.terms) else (m.terms, h.terms)
    total = 0
    for s, c in small.items():
        other = large.get(s)
        if other:
            total += c * other
    return total


def uncolor(e: Expr) -> UncoloredExpr:
    """Replace each index by its word lengths and merge coefficients."""
    require_side(e, "nsym")
    return UncoloredExpr(e.tag, ((word_lengths(i), c) for i, c in e.terms.items()))
