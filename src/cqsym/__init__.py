"""Exact-arithmetic library for colored quasisymmetric (QSym_A) and colored
noncommutative symmetric (NSym_A) functions: sentence combinatorics, the
colored immaculate family of bases, descent graphs, the poset of colored
diagrams, skew functions, and the uncoloring specialization."""

from .exprs import Expr, ParseError, TensorExpr, UncoloredExpr, parse
from .sentences import (
    Alphabet,
    parse_sentence,
    parse_weak_sentence,
    sentence_str,
)
from .tableaux import IMMACULATE, ROW_STRICT, Tableau

__all__ = [
    "Alphabet",
    "Expr",
    "IMMACULATE",
    "ParseError",
    "ROW_STRICT",
    "Tableau",
    "TensorExpr",
    "UncoloredExpr",
    "parse",
    "parse_sentence",
    "parse_weak_sentence",
    "sentence_str",
]
