"""Colors, words, sentences and the combinatorics on them.

A word is a plain ``str`` of color letters.  A sentence is a tuple of
non-empty words; a weak sentence is a tuple of words where ``""`` marks an
empty word.  The empty sentence is ``()``.  All functions here are pure and
every value is immutable, so results can be shared freely across threads.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable, Iterator
from functools import lru_cache

Word = str
Sentence = tuple  # tuple[Word, ...]


class Alphabet:
    """An ordered set of single-letter lowercase colors.

    The position of a letter defines the total order used everywhere (it is
    not the ASCII order unless the letters happen to be sorted).
    """

    __slots__ = ("colors", "index")

    def __init__(self, colors: Iterable[str]):
        colors = tuple(colors)
        if not colors:
            raise ValueError("alphabet must be non-empty")
        for c in colors:
            if len(c) != 1 or not ("a" <= c <= "z"):
                raise ValueError(f"color {c!r} is not a lowercase ASCII letter")
        if len(set(colors)) != len(colors):
            raise ValueError(f"duplicate colors in alphabet {''.join(colors)!r}")
        self.colors = colors
        self.index = {c: i for i, c in enumerate(colors)}

    def __contains__(self, c: str) -> bool:
        return c in self.index

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.colors == other.colors

    def __hash__(self) -> int:
        return hash(self.colors)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.colors)!r})"

    def word_key(self, w: Word) -> tuple:
        return tuple(map(self.index.__getitem__, w))

    def check_word(self, w: Word, allow_empty: bool = False) -> Word:
        if not w and not allow_empty:
            raise ValueError("empty word not allowed here")
        for c in w:
            if c not in self.index:
                raise ValueError(f"letter {c!r} is not in alphabet {''.join(self.colors)!r}")
        return w

    def check_sentence(self, s: Sentence, weak: bool = False) -> Sentence:
        for w in s:
            self.check_word(w, allow_empty=weak)
        return s


# ---------------------------------------------------------------------------
# text format: words joined by ",", empty sentence "()", empty word "-"

def sentence_str(s: Sentence) -> str:
    if not s:
        return "()"
    return ",".join(w if w else "-" for w in s)


def parse_sentence(text: str, alphabet: Alphabet) -> Sentence:
    return _parse(text, alphabet, weak=False)


def parse_weak_sentence(text: str, alphabet: Alphabet) -> Sentence:
    return _parse(text, alphabet, weak=True)


def _parse(text: str, alphabet: Alphabet, weak: bool) -> Sentence:
    if text == "":
        raise ValueError("empty sentence text; use '()' for the empty sentence")
    if text == "()":
        return ()
    words = []
    for part in text.split(","):
        if part == "-":
            if not weak:
                raise ValueError("empty word '-' only allowed in weak sentences")
            words.append("")
            continue
        if part == "":
            raise ValueError(f"empty word in {text!r}")
        for c in part:
            if not ("a" <= c <= "z"):
                raise ValueError(f"invalid letter {c!r} in {text!r}")
            if c not in alphabet:
                raise ValueError(f"letter {c!r} not in alphabet {''.join(alphabet.colors)!r}")
        words.append(part)
    return tuple(words)


# ---------------------------------------------------------------------------
# basic statistics

def size(s: Sentence) -> int:
    return sum(len(w) for w in s)


def maximal_word(s: Sentence) -> Word:
    return "".join(s)


def word_lengths(s: Sentence) -> tuple:
    return tuple(map(len, s))


def flatten(s: Sentence) -> Sentence:
    """Drop empty words from a weak sentence."""
    return tuple(w for w in s if w)


def split_positions(s: Sentence) -> frozenset:
    """Positions i in 1..size-1 after which the sentence splits."""
    out, acc = [], 0
    for w in s[:-1]:
        acc += len(w)
        out.append(acc)
    return frozenset(out)


def from_splits(word: Word, positions: Iterable[int]) -> Sentence:
    if not word:
        return ()
    cuts = [0] + sorted(positions) + [len(word)]
    return tuple(word[a:b] for a, b in zip(cuts, cuts[1:]))


# ---------------------------------------------------------------------------
# refinement order
#
# The refinements and coarsenings of a sentence, and their canonical order
# (one maximal word, so reverse-lex on word lengths), depend on its word
# lengths alone.  So each composition has two plans, built once and already
# in that order: the slice tuples that cut its maximal word into each
# refinement, or coarsening.  _plans walks the cut positions left to right
# and puts "no cut" before "cut" at each free one, so it builds only the
# split sets it returns, in order.  One cache of 2,048 plans, keyed by word
# lengths and direction, holds both plans of every composition of size at
# most 10, the empty one included.

def is_refinement(i: Sentence, j: Sentence) -> bool:
    """True iff j can be obtained by merging adjacent words of i."""
    return maximal_word(i) == maximal_word(j) and split_positions(j) <= split_positions(i)


def coarsenings(i: Sentence) -> list:
    """All sentences obtained by merging adjacent words of i, i included."""
    w = maximal_word(i)
    return [tuple(map(w.__getitem__, plan)) for plan in _plans(word_lengths(i), True)]


def refinements(i: Sentence) -> list:
    """All sentences obtained by splitting words of i further, i included."""
    w = maximal_word(i)
    return [tuple(map(w.__getitem__, plan)) for plan in _plans(word_lengths(i), False)]


@lru_cache(maxsize=2048)
def _plans(lengths: tuple, coarsen: bool, /) -> tuple:
    """The plans of the refinements of lengths, or of its coarsenings if
    coarsen.  A split set is the kept splits (all of lengths' splits, or
    none) plus any subset of the free positions (the other positions, or
    the splits).  Deciding the lowest free position first, no cut before
    cut, gives the sets in canonical order."""
    n = sum(lengths)
    if not n:
        return ((),)
    splits = set(itertools.accumulate(lengths[:-1]))
    cut_sets = [(0,)]
    for p in range(1, n):
        if (p in splits) == coarsen:  # free
            cut_sets = [c + cut for c in cut_sets for cut in ((), (p,))]
        elif p in splits:  # kept
            cut_sets = [c + (p,) for c in cut_sets]
    return tuple(tuple(map(slice, c, c[1:] + (n,))) for c in cut_sets)


def mobius(j: Sentence, i: Sentence) -> int:
    """Mobius function of the refinement order, (-1)^(l(j)-l(i)) for j <= i."""
    if not is_refinement(j, i):
        raise ValueError(
            f"{sentence_str(j)} is not a refinement of {sentence_str(i)}"
        )
    return -1 if (len(j) - len(i)) % 2 else 1


def alternating(sentences: Iterable[Sentence], length: int = 0) -> dict:
    """Each of the distinct sentences j with the sign (-1)^(l(j) - length),
    the row of a Mobius map or an antipode."""
    return {j: -1 if (len(j) - length) % 2 else 1 for j in sentences}


# ---------------------------------------------------------------------------
# involutions

def complement(i: Sentence) -> Sentence:
    """Same maximal word, splits exactly where i does not; (), the degree-0
    descent composition, is its own complement."""
    if not i:
        return ()
    out, piece = [], ""  # piece: the word still open across i's splits
    for w in i:
        if len(w) > 1:
            out.append(piece + w[0])
            out.extend(w[1:-1])
            piece = w[-1]
        else:
            piece += w
    out.append(piece)
    return tuple(out)


def reversal(i: Sentence) -> Sentence:
    return tuple(reversed(i))


def concat(i: Sentence, j: Sentence) -> Sentence:
    return i + j


# ---------------------------------------------------------------------------
# quasishuffle

def quasishuffle(i: Sentence, j: Sentence) -> Counter:
    """Multiset of shuffles of the word sequences of i and j, where any set of
    consecutive pairs (word of i immediately followed by word of j) may be
    concatenated."""
    out = Counter()

    def rec(a: int, b: int, prefix: tuple):
        if a == len(i) and b == len(j):
            out[prefix] += 1
            return
        if a < len(i):
            rec(a + 1, b, prefix + (i[a],))
            if b < len(j):
                rec(a + 1, b + 1, prefix + (i[a] + j[b],))
        if b < len(j):
            rec(a, b + 1, prefix + (j[b],))

    rec(0, 0, ())
    return out


# ---------------------------------------------------------------------------
# containment and quotients

def containment(j: Sentence, i: Sentence, side: str) -> Sentence | None:
    """Left or right quotient of i by the weak sentence j, or None.

    j is padded with trailing empty words to the length of i; the quotient is
    returned unflattened (one word per row of i).
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if len(j) > len(i):
        return None
    padded = j + ("",) * (len(i) - len(j))
    quotient = []
    for w, v in zip(i, padded):
        if side == "right":
            if not w.endswith(v):
                return None
            quotient.append(w[: len(w) - len(v)])
        else:
            if not w.startswith(v):
                return None
            quotient.append(w[len(v):])
    return tuple(quotient)


def suffix_removals(j: Sentence) -> Iterator[tuple]:
    """All (k, rest) with k a weak sentence of per-row suffixes of j and rest
    the weak quotient, so that row r of j is rest[r] + k[r]."""
    choices = [range(len(w) + 1) for w in j]
    for cut in itertools.product(*choices):
        k = tuple(w[len(w) - c:] for w, c in zip(j, cut))
        rest = tuple(w[: len(w) - c] for w, c in zip(j, cut))
        yield k, rest


# ---------------------------------------------------------------------------
# Pieri extensions

def pieri_extensions(j: Sentence, w: Word) -> list:
    """All sentences obtained by appending boxes to row ends of j (plus at
    most one new bottom row) so that the appended letters, read bottom row
    first, spell w.  A sentence appears once per distinct decomposition."""
    if not w:
        return [j]
    out = []
    h = len(j)
    for g in (h, h + 1):
        if g == 0:
            continue
        # split w left to right into parts q_g, q_{g-1}, ..., q_1 (may be empty)
        for parts in weak_splits(w, g):
            qs = tuple(reversed(parts))  # qs[r] extends row r+1
            if g == h + 1 and not qs[h]:
                continue
            rows = tuple((j[r] if r < h else "") + qs[r] for r in range(g))
            out.append(rows)
    return out


def weak_splits(word: Word, parts: int) -> Iterator[tuple]:
    """All ways to write word as a concatenation of `parts` possibly empty
    pieces, left to right."""
    n = len(word)
    for cuts in itertools.combinations_with_replacement(range(n + 1), parts - 1):
        cuts = (0,) + cuts + (n,)
        yield tuple(word[a:b] for a, b in zip(cuts, cuts[1:]))


# ---------------------------------------------------------------------------
# canonical order: grade by size, reverse-lex on word lengths, then the
# alphabet's lexicographic order on maximal words.  The word lengths and the
# maximal word determine the sentence, so the key is injective.

def canonical_key(s: Sentence, alphabet: Alphabet):
    word = "".join(s)
    return (len(word), tuple([-len(w) for w in s]), alphabet.word_key(word))


def canonical_compare(i: Sentence, j: Sentence, alphabet: Alphabet) -> int:
    """-1, 0 or 1; a strict total order, equality only for equal sentences."""
    ki, kj = canonical_key(i, alphabet), canonical_key(j, alphabet)
    return -1 if ki < kj else (1 if ki > kj else 0)


def sort_sentences(seq: Iterable[Sentence], alphabet: Alphabet) -> list:
    return sorted(seq, key=lambda s: canonical_key(s, alphabet))


# ---------------------------------------------------------------------------
# enumeration

def all_compositions(n: int) -> list:
    """Compositions of n, in canonical (reverse-lex) order: the
    refinements of one word of size n."""
    plans = _plans((n,) if n else (), False)
    return [tuple(s.stop - s.start for s in plan) for plan in plans]


def all_words(alphabet: Alphabet, n: int) -> list:
    return ["".join(t) for t in itertools.product(alphabet.colors, repeat=n)]


def all_sentences(alphabet: Alphabet, n: int) -> list:
    """All sentences of size n over the alphabet, in canonical order: word
    lengths first, then the maximal word."""
    plans, words = _plans((n,) if n else (), False), all_words(alphabet, n)
    return [tuple(map(w.__getitem__, plan)) for plan in plans for w in words]


def sentence_count(alphabet: Alphabet, n: int) -> int:
    """|A|^n * 2^(n-1) for n >= 1; used for resource guards."""
    if n == 0:
        return 1
    return len(alphabet.colors) ** n * 2 ** (n - 1)
