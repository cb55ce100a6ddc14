"""Colored immaculate and row-strict immaculate tableaux.

A tableau of shape J fills the colored diagram of J (row i carries the
letters of word i) with positive integers.  The two variants differ in where
strictness lives:

* immaculate: rows weakly increase left to right, first column strictly
  increases top to bottom; the type reads the boxes of each value left to
  right, bottom row first.
* row-strict: rows strictly increase, first column weakly increases; the
  type reads left to right, top row first.

Standard tableaux (each of 1..n once) have the same integer fillings in both
variants, but different descent data: value t is an immaculate descent when
t+1 sits in a strictly lower row, and a row-strict descent when t+1 sits in a
weakly higher row.  The colored descent composition splits the reading word
(colors in value order) after each descent, and the empty filling's is ().
So each t < n is a descent of exactly one variant, and the row-strict
descent composition of a filling is the complement of its immaculate one:
L_RS[J][C] = L[J][C^c].

This module owns L by key, immaculate only: ell_row and ell_column walk
only the standard fillings of one row or column, descent_counts does the
same on skew shapes, and the two triangular solves that invert L
(solve_rows, solve_columns) read them.  Every conversion route reads L this
way; a row-strict reader complements the keys (row_strict_row) or the index
(sentences.complement) itself.  By degree: standard_data holds every
immaculate row of a degree, ell_table reads the row-strict ones from it with
every key complemented, and ell_columns is its transpose; these whole-degree
views serve descent_graph.build (so `graph` and `coeffs`) and the tests.

One filler, `fillings`, enumerates tableaux by shape for both variants: on
straight shapes and on skew shapes (poset.enumerate_skew_tableaux), with a
given weak type or with any type.  One walker, `_standard_walk`, enumerates
standard fillings, on straight shapes and on skew ones; descent_counts
reads it as the L rows and as the skew functions.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import accumulate
from operator import itemgetter

from .sentences import (
    Alphabet,
    Sentence,
    all_compositions,
    all_words,
    complement,
    flatten,
    from_splits,
    refinements,
    sentence_str,
    size,
    word_lengths,
)

IMMACULATE = "immaculate"
ROW_STRICT = "row-strict"
VARIANTS = (IMMACULATE, ROW_STRICT)


def _check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return variant


class Filling:
    """Reading by value, shared by straight and skew tableaux: a subclass
    has rows and variant, and _diagram gives the colored diagram the rows
    fill.  Boxes holding None (the inactive part of a skew shape) hold no
    value."""

    __slots__ = ()

    def _values(self) -> list:
        return [v for r in self.rows for v in r if v is not None]

    def is_standard(self) -> bool:
        values = self._values()
        return sorted(values) == list(range(1, len(values) + 1))

    def boxes_of_value(self, v: int) -> list:
        """(row, col) boxes holding v, in the variant's type-reading order."""
        out = [
            (i, j)
            for i, row in enumerate(self.rows)
            for j, x in enumerate(row)
            if x == v
        ]
        if self.variant == IMMACULATE:
            out.sort(key=lambda rc: (-rc[0], rc[1]))
        else:
            out.sort(key=lambda rc: (rc[0], rc[1]))
        return out

    def type_(self) -> Sentence:
        """Weak sentence of color words per value, trailing empties trimmed."""
        return reading_type(self._diagram(), self.rows, self.variant)


def reading_type(diagram: Sentence, rows, variant: str) -> Sentence:
    """The type of a filling of the diagram: the word of value v spells the
    colors of v's boxes, rows read in the variant's type order (bottom row
    first for immaculate, top row first for row-strict), each left to right.
    Values run 1 .. the largest entry, and None boxes hold no value."""
    words = {}
    order = range(len(rows) - 1, -1, -1) if variant == IMMACULATE else range(len(rows))
    for i in order:
        colors = diagram[i]
        for j, v in enumerate(rows[i]):
            if v is not None:
                words[v] = words.get(v, "") + colors[j]
    return tuple(words.get(v, "") for v in range(1, max(words, default=0) + 1))


class Tableau(Filling):
    """A filled colored diagram.  rows[i][j] is the entry of box (i, j)."""

    __slots__ = ("shape", "rows", "variant")

    def __init__(self, shape: Sentence, rows, variant: str = IMMACULATE):
        self.shape = tuple(shape)
        self.rows = tuple(tuple(r) for r in rows)
        self.variant = _check_variant(variant)
        if word_lengths(self.shape) != tuple(len(r) for r in self.rows):
            raise ValueError("filling does not match the shape")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tableau)
            and self.shape == other.shape
            and self.rows == other.rows
            and self.variant == other.variant
        )

    def __hash__(self):
        return hash((self.shape, self.rows, self.variant))

    def __repr__(self):
        return f"<Tableau {sentence_str(self.shape)} {self.rows} {self.variant}>"

    def size(self) -> int:
        return size(self.shape)

    def is_valid(self) -> bool:
        strict_rows = self.variant == ROW_STRICT
        for r in self.rows:
            for a, b in zip(r, r[1:]):
                if (b <= a) if strict_rows else (b < a):
                    return False
        first = [r[0] for r in self.rows if r]
        for a, b in zip(first, first[1:]):
            if (b <= a) if not strict_rows else (b < a):
                return False
        return all(v >= 1 for r in self.rows for v in r)

    def _diagram(self) -> Sentence:
        return self.shape

    def flat_type(self) -> Sentence:
        return flatten(self.type_())

    def standardize(self) -> "Tableau":
        """Renumber the boxes 1..n in the order they appear in the type."""
        top = max((v for r in self.rows for v in r), default=0)
        order = []
        for v in range(1, top + 1):
            order.extend(self.boxes_of_value(v))
        relabel = {box: t + 1 for t, box in enumerate(order)}
        rows = tuple(
            tuple(relabel[(i, j)] for j in range(len(r))) for i, r in enumerate(self.rows)
        )
        return Tableau(self.shape, rows, self.variant)

    # standard-only statistics -----------------------------------------

    def _positions(self) -> dict:
        return {
            v: (i, j)
            for i, row in enumerate(self.rows)
            for j, v in enumerate(row)
        }

    def descent_set(self) -> set:
        if not self.is_standard():
            raise ValueError("descents are only defined for standard tableaux")
        pos = self._positions()
        n = self.size()
        out = set()
        for t in range(1, n):
            here, nxt = pos[t][0], pos[t + 1][0]
            if self.variant == IMMACULATE:
                if nxt > here:
                    out.add(t)
            else:
                if nxt <= here:
                    out.add(t)
        return out

    def reading_word(self) -> str:
        pos = self._positions()
        return "".join(self.shape[pos[t][0]][pos[t][1]] for t in range(1, self.size() + 1))

    def descent_composition(self) -> Sentence:
        """Split the reading word after each descent of the variant."""
        return from_splits(self.reading_word(), self.descent_set())

    def render_block(self) -> str:
        """CLI block: rows of "color,entry" cells separated by '|'."""
        lines = []
        for i, row in enumerate(self.rows):
            lines.append("|".join(f"{self.shape[i][j]},{v}" for j, v in enumerate(row)))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# standard enumeration
#
# A standard filling is determined by the sequence of rows receiving the
# values 1, 2, ..., n: rows fill left to right, and the first-column rule
# says exactly that the rows open top to bottom.  So the fillings depend
# only on the word lengths.  Each value t < n is a descent of exactly one
# variant: immaculate when t+1 sits in a lower row, row-strict otherwise.
# On a skew shape the inner shape's boxes count as placed: its non-empty
# rows start open, and only the other rows hold boxes of the first column,
# so only they open top to bottom.

def _standard_walk(lengths: tuple, visit, inner: tuple = ()) -> None:
    """Call visit(perm, cuts) once per standard filling of the skew shape
    lengths/inner (inner: the word lengths of a left-contained, possibly
    weak, inner shape), in a fixed order: perm[t] is the position in the
    maximal word of the box holding t+1, and cuts cut the reading word (0
    first, n last) after each immaculate descent, so the empty filling's
    cuts are [0] and cut no word.  perm is reused between calls."""
    k = len(lengths)
    inner += (0,) * (k - len(inner))
    ends = list(accumulate(lengths))
    starts = [0] + ends[:-1]
    free = [s + f for s, f in zip(starts, inner)]  # the next box of each row
    first_column = [r for r in range(k) if not inner[r]] + [k]
    following = dict(zip(first_column, first_column[1:]))
    n = sum(lengths) - sum(inner)
    perm, cuts = [], []

    def rec(t: int, prev: int, nxt: int) -> None:
        # nxt: the top row whose first box is still empty (k if none); it
        # is the one row that may open
        if t == n:
            visit(perm, cuts + [n])
            return
        for r in range(k):
            p = free[r]
            if p == ends[r]:
                continue
            if p > starts[r]:
                after = nxt
            elif r == nxt:
                after = following[r]
            else:
                continue  # a first-column row below nxt
            free[r] = p + 1
            perm.append(p)
            if r > prev:
                cuts.append(t)
                rec(t + 1, r, after)
                cuts.pop()
            else:
                rec(t + 1, r, after)
            perm.pop()
            free[r] = p

    rec(0, -1, first_column[0])  # value 1 opens the first word


def _row_slices(lengths: tuple) -> tuple:
    ends = list(accumulate(lengths))
    return tuple(map(slice, [0] + ends, ends))


def enumerate_standard(shape: Sentence, variant: str = IMMACULATE) -> list:
    """All standard tableaux of the shape.  The integer fillings coincide for
    the two variants; only the recorded variant (hence descent data) differs."""
    _check_variant(variant)
    lengths = word_lengths(shape)
    rows = _row_slices(lengths)
    out = []

    def visit(perm, cuts):
        values = [0] * len(perm)
        for t, p in enumerate(perm, 1):
            values[p] = t
        out.append(Tableau(shape, [values[r] for r in rows], variant))

    _standard_walk(lengths, visit)
    return out


def row_strict_row(row: dict) -> dict:
    """The row-strict L row of a shape from its immaculate one: the same
    fillings in the same order, each descent composition complemented."""
    return {complement(comp): count for comp, count in row.items()}


# ---------------------------------------------------------------------------
# L rows and columns by key
#
# A standard filling is its sequence of rows r_1, ..., r_n, a restricted
# growth string (row r opens only after row r-1); value t is an immaculate
# descent when r_{t+1} > r_t.  A row or a column walks only the fillings it
# counts, whatever the alphabet.
#
# * ell_row(J) walks the f^J fillings of J's word lengths, f^alpha =
#   prod_i C(alpha_i + ... + alpha_l - 1, alpha_i - 1), and cuts J's maximal
#   word, read in value order, after each descent.  The getters doing this
#   depend only on the word lengths (_readers).
# * ell_column(C) walks the restricted growth strings whose descent set is
#   C's cut set: after a cut the next value goes to a row in (r_t, top], top
#   the next row to open, and otherwise to a row in [0, r_t].  Every branch
#   completes.  Row q of the shape J spells C's reading word at the values
#   in row q, and L[J][C] counts the fillings that give J.
#
# The empty filling reads no word, so the degree-0 row and column are both
# {(): 1}, the diagonal entry alone, as every other row's diagonal is 1.

def _empty_reading(word: str) -> str:
    return ""


def _cutter(slices: tuple):
    """The getter that cuts a word into the tuple of its slices."""
    if len(slices) > 1:
        return itemgetter(*slices)
    return lambda word: tuple(word[s] for s in slices)


def _readers(lengths: tuple, inner: tuple) -> list:
    """(read, cut) per standard filling of the skew shape lengths/inner, in
    walk order: read takes a maximal word of the shape to the filling's
    reading word, and cut cuts that after each immaculate descent."""
    out = []

    def visit(perm, cuts):
        read = itemgetter(*perm) if perm else _empty_reading
        out.append((read, _cutter(tuple(map(slice, cuts, cuts[1:])))))

    _standard_walk(lengths, visit, inner)
    return out


# shapes read by key share the readers of their word lengths; a whole-degree
# table reads each composition once and keeps none (see standard_data)
_shared_readers = lru_cache(maxsize=128)(_readers)


def descent_counts(outer: Sentence, inner: Sentence) -> Counter:
    """{immaculate descent composition: count} over the standard fillings
    of outer/inner (inner () or left-contained in outer), keys in walk
    order: each cuts its reading word after each descent."""
    word = "".join(outer)
    readers = _shared_readers(word_lengths(outer), word_lengths(inner))
    return Counter([cut("".join(read(word))) for read, cut in readers])


@lru_cache(maxsize=512)
def ell_row(shape: Sentence) -> Counter:
    """The immaculate L row of one shape, {descent composition: count}:
    the entry standard_data(alphabet, n)[shape], keys in the same order.
    The row-strict row is row_strict_row of it.  Callers must not mutate
    it."""
    return descent_counts(shape, ())


@lru_cache(maxsize=512)
def ell_column(comp: Sentence) -> Counter:
    """The immaculate L column of a descent composition, {shape: count}:
    ell_columns(alphabet, n).get(comp, {}).  The row-strict column of C is
    the immaculate column of complement(C).  Callers must not mutate it."""
    column = Counter()
    reading = "".join(comp)
    n = len(reading)
    cuts = set(accumulate(map(len, comp[:-1])))
    rows = [""] * n

    def rec(t: int, r: int, top: int) -> None:
        # values 1..t placed, value t in row r (r = 0 at t = 0), rows < top open
        if t == n:
            column[tuple(rows[:top])] += 1
            return
        letter = reading[t]
        for q in range(r + 1, top + 1) if t in cuts else range(r + 1):
            before = rows[q]
            rows[q] = before + letter
            rec(t + 1, q, top if q < top else top + 1)
            rows[q] = before

    rec(0, 0, 0)
    return column


# ---------------------------------------------------------------------------
# the inverse of L by key, L being unitriangular in word-length order.  A
# step pushes keys of the popped key's degree, strictly later in the heap's
# order, so one heap serves mixed degrees and pops each key once, after
# every key feeding it.

def _back_substitute(terms: dict, line, order) -> dict:
    """{v: x_v} with sum_v x_v line(v) = terms, where line(v) holds v with
    weight 1 and otherwise keys later in order: pop the first key v, take
    its residual as x_v, and subtract x_v * line(v) off the diagonal."""
    residual = dict(terms)
    heap = [(order(v), v) for v in residual]
    heapify(heap)
    out = {}
    while heap:
        v = heappop(heap)[1]
        x = residual.pop(v)
        if x:
            out[v] = x
            for j, w in line(v).items():
                if j != v:
                    if j not in residual:
                        residual[j] = 0
                        heappush(heap, (order(j), j))
                    residual[j] -= w * x
    return out


def _larger_first(v: Sentence) -> tuple:
    return tuple([-p for p in word_lengths(v)])


def solve_rows(terms: dict) -> dict:
    """The DI coefficients of the F expression with these terms, largest
    word lengths first, subtracting L rows.  Negating the word lengths
    reverses their order within a degree, where no composition is a prefix
    of another."""
    return _back_substitute(terms, ell_row, _larger_first)


def solve_columns(terms: dict) -> dict:
    """The R coefficients of the IM expression with these terms, smallest
    word lengths first, subtracting along L columns."""
    return _back_substitute(terms, ell_column, word_lengths)


# ---------------------------------------------------------------------------
# enumeration by shape and (weak) type
#
# One filler serves straight shapes (inner shape ()) and skew shapes, with a
# given type or with any type.  It places the values 1, 2, ... in turn, each
# into boxes just past the filled part of some rows, reading the rows in the
# variant's type order.  A row whose first box is filled or lies in the inner
# shape is open.  The others hold the first column's active boxes; they open
# top to bottom, and only the next of them, `nxt`, may take a box, which makes
# the one after it next.  So an immaculate value, read bottom row first,
# opens at most one row (strict first column), and a row-strict value, read
# top row first, opens a run of rows below the open ones (weak first column).

def fillings(outer: Sentence, inner: Sentence, variant: str, type_: Sentence = None) -> list:
    """Row tuples of every tableau of shape outer/inner, in a deterministic
    order; inner must be left-contained in outer, and its boxes hold None.
    With a weak type, the boxes of value v spell type_[v-1] (an empty word
    leaves v unused); without one, the values used are 1..g for some g."""
    k = len(outer)
    filled = [len(w) for w in inner] + [0] * (k - len(inner))
    active = [w[f:] for w, f in zip(outer, filled)]
    # every box takes one value of its own color
    if type_ is not None and sorted("".join(type_)) != sorted("".join(active)):
        return []
    grid = [[None] * f + [0] * len(w) for w, f in zip(active, filled)]
    first_column = [r for r in range(k) if outer[r] and not filled[r]] + [k]
    following = dict(zip(first_column, first_column[1:]))
    immaculate = variant == IMMACULATE
    order = range(k - 1, -1, -1) if immaculate else range(k)
    out = []

    def value(v: int, nxt: int, left: int) -> None:
        # place v, or record the grid once no value is left to place; left
        # counts the empty boxes, and is read only without a type
        if type_ is None:
            if left:
                place(v, None, left, 0, 0, nxt)
                return
        elif v <= len(type_):
            word = type_[v - 1]
            place(v, word, len(word), 0, 0, nxt)
            return
        out.append(tuple(map(tuple, grid)))

    def place(v: int, word, limit: int, i: int, pos: int, nxt: int) -> None:
        # value v has taken pos of at most limit boxes in the first i rows
        # of the reading order (spelling word[:pos] when typed)
        if i == k or pos == limit:
            if (pos == limit) if word is not None else pos:
                value(v + 1, nxt, limit - pos)
            return
        place(v, word, limit, i + 1, pos, nxt)
        r = order[i]
        f = filled[r]
        if f:
            nxt_after = nxt
        elif r == nxt:
            nxt_after = following[r]
        else:
            return
        colors = outer[r]
        room = min(len(colors) - f, limit - pos)
        if not immaculate and room > 1:
            room = 1
        row = grid[r]
        for c in range(room):
            if word is not None and colors[f + c] != word[pos + c]:
                break
            row[f + c] = v
            filled[r] = f + c + 1
            place(v, word, limit, i + 1, pos + c + 1, nxt_after)
        filled[r] = f

    value(1, first_column[0], sum(map(len, active)))
    return out


def enumerate_tableaux(shape: Sentence, type_: Sentence, variant: str = IMMACULATE) -> list:
    """All tableaux of the given shape whose type equals the given weak
    sentence, in a deterministic order."""
    _check_variant(variant)
    return [Tableau(shape, rows, variant) for rows in fillings(shape, (), variant, type_)]


def kostka(shape: Sentence, type_: Sentence, variant: str = IMMACULATE) -> int:
    """Number of tableaux of the shape with the given (weak) type."""
    return len(enumerate_tableaux(shape, type_, variant))


def ell_coeff(shape: Sentence, comp: Sentence, variant: str = IMMACULATE) -> int:
    """Number of standard tableaux of the shape whose colored descent
    composition (of the variant) equals comp: one entry of its L row, the
    row-strict entry read at the complement."""
    if _check_variant(variant) == ROW_STRICT:
        comp = complement(comp)
    return ell_row(shape).get(comp, 0)


# ---------------------------------------------------------------------------
# per-degree transition tables
#
# standard_data(alphabet, n)[shape] is the shape's immaculate L row, a
# Counter over descent compositions; ell_columns is its transpose.  It reads
# every shape of each composition of n with that composition's getters
# (_readers), as ell_row does one shape: the reading word is the shape's
# maximal word at the filling's positions, cut at its descents.  A
# row-strict row is the immaculate one with its keys complemented, built
# when read.  K[J][B] counts standard fillings whose descent composition
# coarsens B.  No conversion route reads these tables: each reads L rows and
# columns by key (above), and K is L composed with the refinement or
# coarsening map.  kostka_table and kostka_columns are reference views for
# the tests.  They take the variant positionally and without a default, so
# each table has one cache key.  Each table, and the descent graph built
# from it, keeps at most WHOLE_DEGREE_CACHE (alphabet, degree) entries: more
# than any one sweep over degrees reads, so a sweep never rebuilds a table.

WHOLE_DEGREE_CACHE = 32


@lru_cache(maxsize=WHOLE_DEGREE_CACHE)
def standard_data(alphabet: Alphabet, n: int) -> dict:
    out = {}
    words = all_words(alphabet, n)
    for lengths in all_compositions(n):
        rows = _row_slices(lengths)
        readers = _readers(lengths, ())
        for word in words:
            out[tuple(map(word.__getitem__, rows))] = Counter(
                [cut("".join(read(word))) for read, cut in readers]
            )
    return out


def ell_table(alphabet: Alphabet, n: int, variant: str = IMMACULATE) -> dict:
    """L rows: ell_table[J][C] = number of standard tableaux of shape J with
    descent composition C (diagonal included for the immaculate variant)."""
    if _check_variant(variant) == IMMACULATE:
        return dict(standard_data(alphabet, n))
    return {shape: row_strict_row(row) for shape, row in standard_data(alphabet, n).items()}


@lru_cache(maxsize=WHOLE_DEGREE_CACHE)
def kostka_table(alphabet: Alphabet, n: int, variant: str, /) -> dict:
    out = {}
    for shape, ell_row in ell_table(alphabet, n, variant).items():
        row = Counter()
        for co, mult in ell_row.items():
            for b in refinements(co):
                row[b] += mult
        out[shape] = row
    return out


def _columns(rows: dict) -> dict:
    """Transpose {shape: {comp: count}} to {comp: {shape: count}}."""
    cols = {}
    for shape, row in rows.items():
        for b, count in row.items():
            cols.setdefault(b, {})[shape] = count
    return cols


@lru_cache(maxsize=WHOLE_DEGREE_CACHE)
def kostka_columns(alphabet: Alphabet, n: int, variant: str, /) -> dict:
    return _columns(kostka_table(alphabet, n, variant))


@lru_cache(maxsize=WHOLE_DEGREE_CACHE)
def ell_columns(alphabet: Alphabet, n: int) -> dict:
    return _columns(standard_data(alphabet, n))
