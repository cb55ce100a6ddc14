"""Formal linear combinations with exact rational coefficients.

Coefficients are ints or Fractions, never floats, and zero terms are never
stored.  The private base class _Combination holds the sparse dict from
index to coefficient and writes once what every expression class shares:
accumulating terms, equality, the canonical term order, the signed rendering
and the JSON form.  Its three subclasses each supply a header, a sort key,
index labels with the rendered term body, and the JSON names of the labels:

* Expr: sentence-indexed, in one basis tagged M/F/DI/RSDI (QSym_A) or
  H/E/R/IM/RSIM (NSym_A); the only class with arithmetic, where mixed tags
  raise;
* TensorExpr: indexed by pairs of sentences, the output of coproducts;
* UncoloredExpr: composition-indexed, the output of uncoloring.

Conversion between tags is explicit.  side_converter makes the convert
function of each side from its table of single-step routes (see the qsym and
nsym modules): every pair of tags takes the shortest chain of routes, fixed
once when the side is imported.  row_route makes a map that replaces each
term by a row of a transition table; every single-step route, and every Hopf
map that rewrites an expression one term at a time, is one.  side_psi makes
the psi involution of either side from its convert function: convert to the
pivot basis, complement the indices (a row route), convert to the image tag.
"""

from __future__ import annotations

from fractions import Fraction

from .sentences import Alphabet, Sentence, canonical_key, complement, parse_sentence, sentence_str

QSYM_TAGS = ("M", "F", "DI", "RSDI")
NSYM_TAGS = ("H", "E", "R", "IM", "RSIM")
ALL_TAGS = QSYM_TAGS + NSYM_TAGS


def side(tag: str) -> str:
    if tag in QSYM_TAGS:
        return "qsym"
    if tag in NSYM_TAGS:
        return "nsym"
    raise ValueError(f"unknown basis tag {tag!r}")


def require_side(e: "Expr", which: str) -> None:
    if side(e.tag) != which:
        raise ValueError(f"expected a {which} expression, got tag {e.tag}")


def side_converter(which: str, routes: dict):
    """The convert function of one side from its table of single-step
    routes, (source tag, target tag) -> route.  Each pair of the side's tags
    takes the shortest chain of routes, found once here by a breadth-first
    search that tries the routes in table order, so among equally short
    chains the one whose first differing route is listed first wins.  Raises
    when some pair has no chain."""
    name = {"qsym": "QSym_A", "nsym": "NSym_A"}[which]
    tags = QSYM_TAGS if which == "qsym" else NSYM_TAGS
    plans = {}
    for source in tags:
        plans[source, source] = ()
        queue = [source]
        for tag in queue:  # the queue grows while it is read
            for (start, end), route in routes.items():
                if start == tag and (source, end) not in plans:
                    plans[source, end] = plans[source, tag] + (route,)
                    queue.append(end)
        for target in tags:
            if (source, target) not in plans:
                raise ValueError(f"no chain of {name} routes from {source} to {target}")

    def convert(e: Expr, target: str) -> Expr:
        require_side(e, which)
        if side(target) != which:
            raise ValueError(f"cannot convert {name} expression to {target} (wrong side)")
        for route in plans[e.tag, target]:
            e = route(e)
        return e

    convert.__doc__ = f"Rewrite e in the target basis of {name}."
    return convert


def side_psi(convert, pivot: str, tags: dict):
    """The psi involution of one side from its convert function.  psi
    complements the indices of the pivot basis (F or R) and sends the basis
    tagged T to the one tagged tags[T]."""
    flip = row_route(pivot, lambda alphabet, i: {complement(i): 1})

    def psi(e: Expr) -> Expr:
        # the inner convert runs first, so it checks the side
        return convert(flip(convert(e, pivot)), tags[e.tag])

    swaps = ", ".join(f"{a} -> {b}" for a, b in tags.items())
    psi.__doc__ = f"The involution complementing {pivot} indices; sends {swaps}."
    return psi


def row_route(out_tag: str, row):
    """A map that replaces each term c * X_j by c times row(alphabet, j), a
    dict from out_tag index to coefficient.  The empty index is an index
    like any other: every route and antipode has the row {(): 1} there."""

    def route(e: Expr) -> Expr:
        out = Expr(out_tag, e.alphabet)
        for j, c in e.terms.items():
            for k, coef in row(e.alphabet, j).items():
                out.add_term(k, c * coef)
        return out

    return route


def _norm_coef(c):
    """Keep integral values as int; Fractions stay exact."""
    # most coefficients are ints, and the exact type test skips the ABC
    # check that isinstance(c, Fraction) makes
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return c
    if isinstance(c, int):
        return c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


class ParseError(ValueError):
    """Syntax error in an expression, with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Combination:
    """A finite sum of coef * index terms.  A subclass's __init__ sets its
    header and an empty terms dict, and calls _fill only when given terms
    (most expressions start empty, and then building one makes no extra
    call).  It supplies _header (what besides the terms decides equality),
    _sort_key (a key function for the canonical order), _labels and _bodies
    (one comprehension each over a list of keys, so rendering makes no call
    per term) and _JSON_KEYS (the JSON field of each label); _json_head
    defaults to the tag."""

    __slots__ = ("terms",)
    _EMPTY = "0"

    def _fill(self, terms) -> None:
        for key, c in terms.items() if isinstance(terms, dict) else terms:
            self.add_term(key, c)

    def add_term(self, key, c) -> None:
        """In-place accumulate; only used while building a fresh combination."""
        c = _norm_coef(c)
        if not c:
            return
        new = self.terms.get(key, 0) + c
        if new:
            self.terms[key] = _norm_coef(new)
        else:
            del self.terms[key]

    def coefficient(self, key):
        return self.terms.get(key, 0)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._header() == other._header()
            and self.terms == other.terms
        )

    def items(self):
        """Terms in canonical order."""
        return [(key, self.terms[key]) for key in sorted(self.terms, key=self._sort_key())]

    def __str__(self) -> str:
        if not self.terms:
            return self._EMPTY
        keys = sorted(self.terms, key=self._sort_key())
        pieces = []
        for key, body in zip(keys, self._bodies(keys)):
            c = self.terms[key]
            mag = c if c > 0 else -c
            head = "" if mag == 1 else f"{mag}*"
            if not pieces:
                sign = "" if c > 0 else "-"
                pieces.append(f"{sign}{head}{body}")
            else:
                sign = "+" if c > 0 else "-"
                pieces.append(f" {sign} {head}{body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"

    def _json_head(self) -> dict:
        return {"tag": self.tag}

    def to_json_dict(self) -> dict:
        fields = self._JSON_KEYS
        keys = sorted(self.terms, key=self._sort_key())
        return {
            **self._json_head(),
            "terms": [
                dict(zip(fields, labels), coef=str(self.terms[key]))
                for key, labels in zip(keys, self._labels(keys))
            ],
        }


class Expr(_Combination):
    """A sentence-indexed combination in the basis named by tag."""

    __slots__ = ("tag", "alphabet")
    _JSON_KEYS = ("sentence",)

    def __init__(self, tag: str, alphabet: Alphabet, terms=None):
        side(tag)  # validates
        self.tag = tag
        self.alphabet = alphabet
        self.terms = {}
        if terms:
            self._fill(terms)

    # construction -----------------------------------------------------

    @classmethod
    def basis(cls, tag: str, s: Sentence, alphabet: Alphabet, coef=1) -> "Expr":
        alphabet.check_sentence(s)
        e = cls(tag, alphabet)
        e.add_term(s, coef)
        return e

    @classmethod
    def zero(cls, tag: str, alphabet: Alphabet) -> "Expr":
        return cls(tag, alphabet)

    # algebra ----------------------------------------------------------

    def _check_compatible(self, other: "Expr") -> None:
        if not isinstance(other, Expr):
            raise TypeError(f"cannot combine Expr with {type(other).__name__}")
        if self.tag != other.tag:
            raise ValueError(
                f"cannot add {self.tag}-tagged and {other.tag}-tagged expressions;"
                " convert explicitly first"
            )
        if self.alphabet != other.alphabet:
            raise ValueError("mixed alphabets")

    def __add__(self, other: "Expr") -> "Expr":
        self._check_compatible(other)
        out = Expr(self.tag, self.alphabet, dict(self.terms))
        for s, c in other.terms.items():
            out.add_term(s, c)
        return out

    def __sub__(self, other: "Expr") -> "Expr":
        return self + (-1) * other

    def __neg__(self) -> "Expr":
        return (-1) * self

    def __rmul__(self, c) -> "Expr":
        c = _norm_coef(c)
        if not c:
            return Expr(self.tag, self.alphabet)
        return Expr(self.tag, self.alphabet, {s: c * v for s, v in self.terms.items()})

    def __hash__(self):
        return hash((self.tag, self.alphabet, frozenset(self.terms.items())))

    def degrees(self) -> dict:
        """Split into homogeneous parts, degree -> {sentence: coef}."""
        out = {}
        for s, c in self.terms.items():
            out.setdefault(sum(len(w) for w in s), {})[s] = c
        return out

    # rendering ----------------------------------------------------------

    def _header(self):
        return self.tag, self.alphabet

    def _sort_key(self):
        # graded by size, then canonical key
        alphabet = self.alphabet
        return lambda s: canonical_key(s, alphabet)

    def _labels(self, keys) -> list:
        return [(sentence_str(s),) for s in keys]

    def _bodies(self, keys) -> list:
        tag = self.tag
        return [f"{tag}[{sentence_str(s)}]" for s in keys]


class TensorExpr(_Combination):
    """Output-only tensor of two expressions of the same side: a finite sum
    of coef * (left sentence (x) right sentence) terms."""

    __slots__ = ("tags", "alphabet")
    _EMPTY = ""
    _JSON_KEYS = ("left", "right")

    def __init__(self, tags: tuple, alphabet: Alphabet, terms=None):
        side(tags[0]), side(tags[1])
        self.tags = tags
        self.alphabet = alphabet
        self.terms = {}
        if terms:
            self._fill(terms)

    def _header(self):
        return self.tags, self.alphabet

    def _sort_key(self):
        alphabet = self.alphabet
        return lambda p: (canonical_key(p[0], alphabet), canonical_key(p[1], alphabet))

    def _labels(self, keys) -> list:
        return [(sentence_str(a), sentence_str(b)) for a, b in keys]

    def _bodies(self, keys) -> list:
        left, right = self.tags
        return [f"{left}[{a}] @ {right}[{b}]" for a, b in self._labels(keys)]

    def _json_head(self) -> dict:
        return {"tags": list(self.tags)}


class UncoloredExpr(_Combination):
    """A composition-indexed linear combination, the image of an Expr under
    the uncoloring map.  Output-only apart from equality."""

    __slots__ = ("tag",)
    _JSON_KEYS = ("sentence",)

    def __init__(self, tag: str, terms=None):
        side(tag)
        self.tag = tag
        self.terms = {}
        if terms:
            self._fill(terms)

    def _header(self):
        return self.tag

    def _sort_key(self):
        return lambda comp: (sum(comp), tuple(-p for p in comp))

    def _labels(self, keys) -> list:
        return [(",".join(str(p) for p in comp) if comp else "()",) for comp in keys]

    def _bodies(self, keys) -> list:
        tag = self.tag
        return [f"{tag}[{label}]" for (label,) in self._labels(keys)]


# ---------------------------------------------------------------------------
# parsing
#
# expr   := ['+'|'-'] term (('+'|'-') term)*
# term   := [coef '*'] tag '[' sentence ']'
# coef   := integer | integer '/' integer
# tag    := M|F|DI|RSDI|H|E|R|IM|RSIM
# sentence inside brackets follows the sentence text format, '()' for empty.

def parse(text: str, alphabet: Alphabet) -> Expr:
    p = _Parser(text, alphabet)
    return p.parse_expr()


class _Parser:
    def __init__(self, text: str, alphabet: Alphabet):
        self.text = text
        self.alphabet = alphabet
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] == " ":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_expr(self) -> Expr:
        self.skip_ws()
        if self.pos == len(self.text):
            self.error("empty expression")
        sign = 1
        if self.peek() in "+-":
            sign = -1 if self.peek() == "-" else 1
            self.pos += 1
        expr = None
        while True:
            coef, s, tag = self.parse_term()
            if expr is None:
                expr = Expr(tag, self.alphabet)
            if tag != expr.tag:
                self.error(f"mixed tags {expr.tag} and {tag} in one expression")
            expr.add_term(s, sign * coef)
            self.skip_ws()
            if self.pos == len(self.text):
                return expr
            if self.peek() not in "+-":
                self.error(f"expected '+' or '-', found {self.peek()!r}")
            sign = -1 if self.peek() == "-" else 1
            self.pos += 1

    def parse_term(self):
        self.skip_ws()
        coef = 1
        if self.peek().isdigit():
            coef = self.parse_coef()
            self.skip_ws()
            if self.peek() != "*":
                self.error("expected '*' after coefficient")
            self.pos += 1
            self.skip_ws()
        tag = self.parse_tag()
        if self.peek() != "[":
            self.error(f"expected '[' after tag {tag}")
        self.pos += 1
        close = self.text.find("]", self.pos)
        if close < 0:
            self.error("missing closing ']'")
        inside = self.text[self.pos : close]
        try:
            s = parse_sentence(inside, self.alphabet)
        except ValueError as exc:
            self.error(str(exc))
        self.pos = close + 1
        return coef, s, tag

    def parse_coef(self):
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        num = int(self.text[start : self.pos])
        if self.peek() == "/":
            self.pos += 1
            dstart = self.pos
            while self.peek().isdigit():
                self.pos += 1
            if dstart == self.pos:
                self.error("missing denominator")
            den = int(self.text[dstart : self.pos])
            if den == 0:
                self.error("zero denominator")
            return Fraction(num, den)
        return num

    def parse_tag(self) -> str:
        # longest match first so DI/RSDI/IM/RSIM win over single letters
        for tag in ("RSDI", "RSIM", "DI", "IM", "M", "F", "H", "E", "R"):
            if self.text.startswith(tag, self.pos):
                self.pos += len(tag)
                return tag
        self.error(f"unknown basis tag at {self.text[self.pos:self.pos+4]!r}")
