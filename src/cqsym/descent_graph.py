"""Descent graphs on sentences of a fixed size.

Vertices are all sentences of size n; there is an edge I -> J (J != I)
weighted by the number of standard tableaux of shape I whose colored descent
composition is J.  For the immaculate variant every edge strictly decreases
the word-length composition in lexicographic order, so the graph is acyclic
and signed path sums invert the L matrix.  That order is also topological,
so inverse rows and columns are computed by a sweep over the vertices in
increasing word-length order, which finishes every out-neighbour of a vertex
before the vertex itself; the rows are cached on the graph.  The row-strict
variant is NOT acyclic in general (already at n = 2 the shapes (aa) and
(a,a) form a 2-cycle), so it is built only for export (`graph --row-strict`)
and the routes read the one cached immaculate graph per degree,
complementing the indices of the row-strict bases (see qsym and nsym).
"""

from __future__ import annotations

import csv
import io
from functools import lru_cache

from .sentences import Alphabet, Sentence, sentence_count, sentence_str, sort_sentences, word_lengths
from .tableaux import IMMACULATE, _check_variant, ell_table

DEFAULT_VERTEX_CAP = 10**6


class DescentGraph:
    __slots__ = (
        "degree",
        "alphabet",
        "variant",
        "vertices",
        "edges",
        "is_acyclic",
        "_rows",
        "_rev",
    )

    def __init__(self, degree, alphabet, variant, vertices, edges, is_acyclic):
        self.degree = degree
        self.alphabet = alphabet
        self.variant = variant
        self.vertices = vertices
        self.edges = edges  # vertex -> {target: weight}, no self-loops
        self.is_acyclic = is_acyclic
        self._rows = {}  # vertex -> {target: inverse coefficient}, nonzero only
        self._rev = None

    def out_edges(self, i: Sentence) -> dict:
        return self.edges.get(i, {})

    def in_neighbors(self, j: Sentence) -> list:
        if self._rev is None:
            rev = {}
            for v, targets in self.edges.items():
                for t in targets:
                    rev.setdefault(t, []).append(v)
            self._rev = rev
        return self._rev.get(j, [])

    def __repr__(self):
        return f"<DescentGraph n={self.degree} {self.variant} |V|={len(self.vertices)}>"


def build(n: int, alphabet: Alphabet, variant: str = IMMACULATE, cap: int = DEFAULT_VERTEX_CAP) -> DescentGraph:
    """Build the degree-n descent graph.  Aborts when the vertex count would
    exceed the cap, and (immaculate variant) when an edge fails the
    lexicographic-descent certificate that guarantees acyclicity."""
    _check_variant(variant)
    if n < 1:
        raise ValueError("degree must be >= 1")
    count = sentence_count(alphabet, n)
    if count > cap:
        raise ValueError(
            f"descent graph at degree {n} over {''.join(alphabet.colors)} has "
            f"{count} vertices, above the cap {cap}"
        )
    rows = ell_table(alphabet, n, variant)
    # standard_data yields its shapes in canonical order already
    vertices = list(rows)
    edges = {}
    acyclic = True
    for i, counter in rows.items():
        out = {j: w for j, w in counter.items() if j != i}
        if not out:
            continue
        edges[i] = out
        lengths = word_lengths(i)
        for j in out:
            if not word_lengths(j) < lengths:
                acyclic = False
                if variant == IMMACULATE:
                    raise ValueError(
                        "descent graph cycle certificate failed on edge "
                        f"{sentence_str(i)} -> {sentence_str(j)}"
                    )
    return DescentGraph(n, alphabet, variant, vertices, edges, acyclic)


@lru_cache(maxsize=None)
def cached_graph(alphabet: Alphabet, n: int) -> DescentGraph:
    """The one shared immaculate graph of the degree."""
    return build(n, alphabet)


def _require_acyclic(g: DescentGraph) -> None:
    if not g.is_acyclic:
        raise ValueError(
            f"{g.variant} descent graph at degree {g.degree} is cyclic; "
            "path sums diverge (use the complement route instead)"
        )


def _closure(root: Sentence, step, known=()) -> set:
    """root and every vertex reached from it through step, never entering a
    vertex of known."""
    seen = {root}
    stack = [root]
    while stack:
        for j in step(stack.pop()):
            if j not in seen and j not in known:
                seen.add(j)
                stack.append(j)
    return seen


def _row(g: DescentGraph, i: Sentence) -> dict:
    """The cached inverse row of i; callers must not mutate it.  A cached
    row's descendants are cached too, so the sweep only visits the vertices
    below i that have no row yet, sinks first."""
    _require_acyclic(g)
    rows = g._rows
    if i not in rows:
        for v in sorted(_closure(i, g.out_edges, rows), key=word_lengths):
            row = {v: 1}
            for j, w in g.out_edges(v).items():
                for k, c in rows[j].items():
                    row[k] = row.get(k, 0) - w * c
            rows[v] = {k: c for k, c in row.items() if c}
    return rows[i]


def inverse_coeff(g: DescentGraph, i: Sentence, k: Sentence) -> int:
    """Signed sum over directed paths from i to k of the product of edge
    weights: entry k of the swept inverse row of i (see inverse_row), and 0
    when k is not reachable from i."""
    return _row(g, i).get(k, 0)


def inverse_row(g: DescentGraph, i: Sentence) -> dict:
    """All nonzero inverse coefficients from i, as a fresh dict.  Rows are
    computed by the sweep row_v = e_v - sum over edges v -> j of
    w_vj * row_j, in increasing word-length order, and cached on the graph."""
    return dict(_row(g, i))


def inverse_column(g: DescentGraph, k: Sentence) -> dict:
    """All nonzero inverse coefficients into k, indexed by the source: the
    sweep col_i = delta_ik - sum over edges i -> j of w_ij * col_j over the
    ancestors of k, in increasing word-length order."""
    _require_acyclic(g)
    col = {}
    for i in sorted(_closure(k, g.in_neighbors), key=word_lengths):
        c = 1 if i == k else 0
        for j, w in g.out_edges(i).items():
            c -= w * col.get(j, 0)
        if c:
            col[i] = c
    return col


def reachable(g: DescentGraph, root: Sentence) -> list:
    return sort_sentences(_closure(root, g.out_edges), g.alphabet)


def path_inverse_coeff(g: DescentGraph, i: Sentence, k: Sentence) -> int:
    """Literal path enumeration; exponential, debug use only."""
    if not g.is_acyclic:
        raise ValueError("path enumeration requires an acyclic graph")
    total = 0

    def walk(v, sign, weight):
        nonlocal total
        if v == k:
            total += sign * weight
        for j, w in g.out_edges(v).items():
            walk(j, -sign, weight * w)

    walk(i, 1, 1)
    return total


def uncolored_coeffs(n: int) -> dict:
    """Inverse-coefficient table over compositions: run the one-letter graph
    and relabel sentences by their word lengths.  Row alpha, column beta holds
    the coefficient of the dual immaculate function beta in the fundamental
    function alpha (equally: of the ribbon alpha in the immaculate beta)."""
    g = cached_graph(Alphabet("a"), n)
    out = {}
    for i in g.vertices:
        row = inverse_row(g, i)
        out[word_lengths(i)] = {word_lengths(k): c for k, c in row.items()}
    return out


def export_dot(g: DescentGraph, root: Sentence = None) -> str:
    """DOT digraph; vertex labels are sentence strings, edge labels weights.
    With a root, restricts to the subgraph reachable from it."""
    nodes = g.vertices if root is None else reachable(g, root)
    node_set = set(nodes)
    lines = ["digraph descent_graph {"]
    for v in nodes:
        lines.append(f'  "{sentence_str(v)}";')
    for v in nodes:
        targets = [j for j in g.out_edges(v) if j in node_set]
        for j in sort_sentences(targets, g.alphabet):
            w = g.out_edges(v)[j]
            lines.append(f'  "{sentence_str(v)}" -> "{sentence_str(j)}" [label="{w}"];')
    lines.append("}")
    return "\n".join(lines)


def export_csv(g: DescentGraph, root: Sentence = None) -> str:
    """Edge list as CSV rows from,to,weight (fields quoted as needed)."""
    nodes = g.vertices if root is None else reachable(g, root)
    node_set = set(nodes)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["from", "to", "weight"])
    for v in nodes:
        targets = [j for j in g.out_edges(v) if j in node_set]
        for j in sort_sentences(targets, g.alphabet):
            writer.writerow([sentence_str(v), sentence_str(j), g.out_edges(v)[j]])
    return buf.getvalue()
