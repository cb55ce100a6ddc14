"""Descent graphs on sentences of a fixed size.

Vertices are all sentences of size n; there is an edge I -> J (J != I)
weighted by the number of standard tableaux of shape I whose colored descent
composition is J: the out-edges of I are its L row off the diagonal, and the
in-edges of J its L column.  For the immaculate variant every edge strictly
decreases the word-length composition in lexicographic order, so the graph
is acyclic and its signed path sums invert the L matrix: they are the
combinatorial reading of the triangular solves that the conversions run.
The conversion routes build no graph and import none of this module: F -> DI
and IM -> R are each one triangular solve over the whole expression
(tableaux.solve_rows, tableaux.solve_columns), reading one L row or column
by key per term of the answer.  The column walk by key (tableaux.ell_column)
is thus a combinatorial description of the graph's in-edges.

On a built graph (for `coeffs` and the tests) L is inverted in two ways.
inverse_rows makes every inverse row in one sweep over the vertices in
increasing word-length order, a topological order, so each vertex comes
after all of its out-neighbours.  inverse_row and inverse_column run the
conversions' back-substitution (tableaux._back_substitute) over the graph's
out-edges and in-edges in place of L rows and columns.

The row-strict variant is NOT acyclic in general (already at n = 2 the
shapes (aa) and (a,a) form a 2-cycle), so it is built only for export
(`graph --row-strict`); the routes read the immaculate inverses,
complementing the indices of the row-strict bases (see qsym and nsym).
"""

from __future__ import annotations

import csv
import io
from functools import lru_cache

from .sentences import Alphabet, Sentence, sentence_count, sentence_str, sort_sentences, word_lengths
from .tableaux import IMMACULATE, WHOLE_DEGREE_CACHE, _back_substitute, _check_variant, _larger_first, ell_table

DEFAULT_VERTEX_CAP = 10**6


class DescentGraph:
    __slots__ = (
        "degree",
        "alphabet",
        "variant",
        "vertices",
        "edges",
        "is_acyclic",
        "_rev",
    )

    def __init__(self, degree, alphabet, variant, vertices, edges, is_acyclic):
        self.degree = degree
        self.alphabet = alphabet
        self.variant = variant
        self.vertices = vertices
        self.edges = edges  # vertex -> {target: weight}, no self-loops
        self.is_acyclic = is_acyclic
        self._rev = None

    def out_edges(self, i: Sentence) -> dict:
        return self.edges.get(i, {})

    def in_edges(self, j: Sentence) -> dict:
        """{source: weight} over the edges into j."""
        if self._rev is None:
            rev = {}
            for v, targets in self.edges.items():
                for t, w in targets.items():
                    rev.setdefault(t, {})[v] = w
            self._rev = rev
        return self._rev.get(j, {})

    def in_neighbors(self, j: Sentence) -> list:
        return list(self.in_edges(j))

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


@lru_cache(maxsize=WHOLE_DEGREE_CACHE)
def cached_graph(alphabet: Alphabet, n: int) -> DescentGraph:
    """The one shared immaculate graph of the degree."""
    return build(n, alphabet)


def _require_acyclic(g: DescentGraph) -> None:
    if not g.is_acyclic:
        raise ValueError(
            f"{g.variant} descent graph at degree {g.degree} is cyclic; "
            "path sums diverge (use the complement route instead)"
        )


def inverse_rows(g: DescentGraph) -> dict:
    """Every inverse row, {i: {k: inverse coefficient}}, nonzero only: one
    sweep over the vertices in increasing word-length order, row_v = e_v -
    sum over edges v -> j of w_vj * row_j, each out-neighbour's row being
    finished before its vertex's."""
    _require_acyclic(g)
    rows = {}
    for v in sorted(g.vertices, key=word_lengths):
        row = {v: 1}
        for j, w in g.out_edges(v).items():
            for k, c in rows[j].items():
                row[k] = row.get(k, 0) - w * c
        rows[v] = {k: c for k, c in row.items() if c}
    return rows


def inverse_coeff(g: DescentGraph, i: Sentence, k: Sentence) -> int:
    """Signed sum over directed paths from i to k of the product of edge
    weights: entry k of the inverse row of i, and 0 when k is not reachable
    from i."""
    return inverse_row(g, i).get(k, 0)


def inverse_row(g: DescentGraph, i: Sentence) -> dict:
    """All nonzero inverse coefficients from i: the back-substitution of
    tableaux.solve_rows, subtracting the graph's out-edges in place of L
    rows."""
    _require_acyclic(g)
    return _back_substitute({i: 1}, g.out_edges, _larger_first)


def inverse_column(g: DescentGraph, k: Sentence) -> dict:
    """All nonzero inverse coefficients into k, indexed by the source: the
    back-substitution of tableaux.solve_columns, subtracting along the
    graph's in-edges in place of L columns."""
    _require_acyclic(g)
    return _back_substitute({k: 1}, g.in_edges, word_lengths)


def reachable(g: DescentGraph, root: Sentence) -> list:
    seen = {root}
    stack = [root]
    while stack:
        for j in g.out_edges(stack.pop()):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return sort_sentences(seen, g.alphabet)


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
    rows = inverse_rows(cached_graph(Alphabet("a"), n))
    return {
        word_lengths(i): {word_lengths(k): c for k, c in row.items()}
        for i, row in rows.items()
    }


def _export_edges(g: DescentGraph, nodes: list):
    """(from, to, weight) for the edges between the nodes, in node order and
    each node's out-edges in canonical order."""
    node_set = set(nodes)
    for v in nodes:
        out = g.out_edges(v)
        for j in sort_sentences([j for j in out if j in node_set], g.alphabet):
            yield v, j, out[j]


def export_dot(g: DescentGraph, root: Sentence = None) -> str:
    """DOT digraph; vertex labels are sentence strings, edge labels weights.
    With a root, restricts to the subgraph reachable from it."""
    nodes = g.vertices if root is None else reachable(g, root)
    lines = ["digraph descent_graph {"]
    for v in nodes:
        lines.append(f'  "{sentence_str(v)}";')
    for v, j, w in _export_edges(g, nodes):
        lines.append(f'  "{sentence_str(v)}" -> "{sentence_str(j)}" [label="{w}"];')
    lines.append("}")
    return "\n".join(lines)


def export_csv(g: DescentGraph, root: Sentence = None) -> str:
    """Edge list as CSV rows from,to,weight (fields quoted as needed)."""
    nodes = g.vertices if root is None else reachable(g, root)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["from", "to", "weight"])
    for v, j, w in _export_edges(g, nodes):
        writer.writerow([sentence_str(v), sentence_str(j), w])
    return buf.getvalue()
