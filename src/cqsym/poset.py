"""The poset of colored diagrams, skew tableaux, skew dual immaculate
functions, immaculate structure constants, and the coproducts of the dual
immaculate and row-strict dual immaculate bases.

Sentences are ordered by adding one colored box at a time, either to the
right end of an existing row or as a new bottom row.  Saturated chains from
the empty sentence are exactly the standard tableaux; chains from a non-empty
sentence J are the standard skew tableaux of shape I/J.  The poset itself is
infinite and never materialized beyond the requested intervals.  Skew
tableaux of every type are enumerated by tableaux.fillings, the filler that
also serves straight shapes.

The skew function of I/J is defined through the duality pairing: with S the
(row-strict) immaculate basis and S* its dual, S*_{I/J} is the sum over K of
<S_J X_K, S*_I> Y_K for any dual pair of bases (X, Y), such as (H, M), (R, F)
or (S, S*).  Its M coefficients count the skew tableaux of shape I/J by type;
standardizing them gives its F expansion, one F term per standard skew
tableau: the tableau's reading word cut after each descent of the variant
(t is an immaculate descent when t+1 sits in a lower row, and the
row-strict cuts are the complement).  skew_expand walks the standard skew
tableaux (tableaux.descent_counts, immaculate; the row-strict expansion
complements its keys) and converts that F expansion to the target basis,
and coproduct_di sums one skew expansion per inner shape.  The empty skew
shape has one filling, which reads (), so its expansion is F[()].  The
pairing definition, and the count of every skew tableau by type, are the
references the tests check it against.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate

from . import nsym, qsym
from .exprs import Expr, TensorExpr
from .sentences import Alphabet, Sentence, containment, maximal_word, sentence_str, word_lengths
from .tableaux import IMMACULATE, Filling, _check_variant, _standard_walk, descent_counts, fillings, row_strict_row

CoverEdge = namedtuple("CoverEdge", ["lower", "upper", "row", "color"])


def covers(j: Sentence, alphabet: Alphabet) -> list:
    """The (l(j)+1) * |A| cover edges above j: append one box of each color
    to each row end or as a new bottom row.  Rows are 1-based."""
    out = []
    for row in range(1, len(j) + 2):
        for color in alphabet.colors:
            if row <= len(j):
                upper = j[: row - 1] + (j[row - 1] + color,) + j[row:]
            else:
                upper = j + (color,)
            out.append(CoverEdge(j, upper, row, color))
    return out


def left_contained(j: Sentence, i: Sentence) -> bool:
    return containment(j, i, "left") is not None


def _require_left_contained(j: Sentence, i: Sentence) -> None:
    if not left_contained(j, i):
        raise ValueError(f"{sentence_str(j)} is not left-contained in {sentence_str(i)}")


def inner_sentences(i: Sentence) -> list:
    """All sentences left-contained in i: each takes a non-empty prefix of
    every one of the first h rows, for h = 0 .. l(i)."""
    out = [()]
    layer = [()]
    for w in i:
        layer = [base + (w[:cut],) for base in layer for cut in range(1, len(w) + 1)]
        out.extend(layer)
    return out


def chains(j: Sentence, i: Sentence) -> list:
    """All saturated chains from j to i in the poset, as lists of cover
    edges.  Chains stay inside the interval: every step extends a row of j
    toward the corresponding row of i or opens the next row of i.  They are
    the standard fillings of i/j, read value by value."""
    _require_left_contained(j, i)
    word = maximal_word(i)
    ends = list(accumulate(word_lengths(i)))
    out = []

    def visit(perm, cuts):
        chain, current = [], j
        for p in perm:
            row, color = bisect_right(ends, p), word[p]
            if row < len(current):
                upper = current[:row] + (current[row] + color,) + current[row + 1 :]
            else:
                upper = current + (color,)
            chain.append(CoverEdge(current, upper, row + 1, color))
            current = upper
        out.append(chain)

    _standard_walk(word_lengths(i), visit, word_lengths(j))
    return out


class SkewTableau(Filling):
    """A filling of the active boxes of a skew colored shape.  rows[i][j] is
    None on the inactive prefix (the first |inner_i| boxes of row i)."""

    __slots__ = ("outer", "inner", "rows", "variant")

    def __init__(self, outer: Sentence, inner: Sentence, rows, variant: str = IMMACULATE):
        _require_left_contained(inner, outer)
        self.outer = tuple(outer)
        self.inner = tuple(inner)
        self.rows = tuple(tuple(r) for r in rows)
        self.variant = _check_variant(variant)
        if word_lengths(self.outer) != tuple(len(r) for r in self.rows):
            raise ValueError("filling does not match the outer shape")
        for idx, r in enumerate(self.rows):
            inactive = len(self.inner[idx]) if idx < len(self.inner) else 0
            if any(v is not None for v in r[:inactive]) or any(
                v is None for v in r[inactive:]
            ):
                raise ValueError("inactive boxes are exactly the inner prefix")

    def __eq__(self, other):
        return (
            isinstance(other, SkewTableau)
            and (self.outer, self.inner, self.rows, self.variant)
            == (other.outer, other.inner, other.rows, other.variant)
        )

    def __hash__(self):
        return hash((self.outer, self.inner, self.rows, self.variant))

    def __repr__(self):
        return (
            f"<SkewTableau {sentence_str(self.outer)}/{sentence_str(self.inner)} "
            f"{self.rows} {self.variant}>"
        )

    def _diagram(self) -> Sentence:
        return self.outer

    def render_block(self) -> str:
        lines = []
        for i, row in enumerate(self.rows):
            cells = []
            for j, v in enumerate(row):
                cells.append(f"{self.outer[i][j]},{'-' if v is None else v}")
            lines.append("|".join(cells))
        return "\n".join(lines)


def chain_to_tableau(chain: list, outer: Sentence = None, inner: Sentence = None) -> SkewTableau:
    """Number the boxes added along a saturated chain 1, 2, ... in order.
    With an empty inner sentence the result is a standard straight tableau."""
    if chain:
        inner = chain[0].lower if inner is None else inner
        outer = chain[-1].upper if outer is None else outer
    if outer is None or inner is None:
        raise ValueError("an empty chain needs explicit outer and inner shapes")
    grid = []
    for idx, w in enumerate(outer):
        inactive = len(inner[idx]) if idx < len(inner) else 0
        grid.append([None] * len(w))
        for j in range(inactive, len(w)):
            grid[idx][j] = 0
    fill = [len(inner[idx]) if idx < len(inner) else 0 for idx in range(len(outer))]
    for t, edge in enumerate(chain, start=1):
        r = edge.row - 1
        grid[r][fill[r]] = t
        fill[r] += 1
    return SkewTableau(outer, inner, grid, IMMACULATE)


# ---------------------------------------------------------------------------
# skew tableau enumeration

def enumerate_skew_tableaux(outer: Sentence, inner: Sentence, variant: str = IMMACULATE) -> list:
    """All skew tableaux of shape outer/inner whose values form 1..g for some
    g (every value used at least once)."""
    _check_variant(variant)
    _require_left_contained(inner, outer)
    return [SkewTableau(outer, inner, rows, variant) for rows in fillings(outer, inner, variant)]


# ---------------------------------------------------------------------------
# skew expansions, structure constants, coproduct

def skew_expand(i: Sentence, j: Sentence, target: str, alphabet: Alphabet, variant: str = IMMACULATE) -> Expr:
    """The skew (row-strict) dual immaculate function of shape i/j in the M,
    F, DI or RSDI basis: each standard skew tableau of shape i/j gives the F
    term of its descent composition (tableaux.descent_counts, complemented
    for the row-strict variant), and the F expansion is converted to the
    target."""
    _check_variant(variant)
    _require_left_contained(j, i)
    dual_tag = "DI" if variant == IMMACULATE else "RSDI"
    if target not in ("M", "F", dual_tag):
        raise ValueError(
            f"skew target must be M, F or {dual_tag} for the {variant} variant"
        )
    counts = descent_counts(i, j)
    if variant != IMMACULATE:
        counts = row_strict_row(counts)
    return qsym.convert(Expr("F", alphabet, counts), target)


def structure_constants(j: Sentence, k: Sentence, alphabet: Alphabet) -> dict:
    """Coefficients of the immaculate expansion of the product of the
    immaculate functions of j and k, computed through the H basis."""
    prod = nsym.product(
        Expr.basis("IM", j, alphabet), Expr.basis("IM", k, alphabet), target="IM"
    )
    return dict(prod.terms)


def coproduct_di(i: Sentence, alphabet: Alphabet, variant: str = IMMACULATE) -> TensorExpr:
    """Coproduct of a (row-strict) dual immaculate basis element: the sum
    over the inner shapes j left-contained in i of (dual of j) tensor (skew
    expansion of i/j), each skew expansion read off the standard skew
    tableaux of i/j and converted from F."""
    _check_variant(variant)
    tag = "DI" if variant == IMMACULATE else "RSDI"
    out = TensorExpr((tag, tag), alphabet)
    for j in inner_sentences(i):
        skew = skew_expand(i, j, tag, alphabet, variant)
        for k, c in skew.terms.items():
            out.add_term((j, k), c)
    return out
