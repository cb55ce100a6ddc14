import itertools
from fractions import Fraction

import pytest

from cqsym import descent_graph as dg
from cqsym.sentences import Alphabet, all_sentences, complement, word_lengths
from cqsym.tableaux import IMMACULATE, ROW_STRICT, ell_column, ell_table, enumerate_standard, solve_columns, solve_rows

AB = Alphabet("ab")
ABC = Alphabet("abc")
A = Alphabet("a")


def test_figure_subgraph_exact():
    g = dg.build(5, ABC)
    root = ("ab", "cbb")
    nodes = set(dg.reachable(g, root))
    assert nodes == {
        ("ab", "cbb"),
        ("a", "cbb", "b"),
        ("a", "cb", "bb"),
        ("a", "cbbb"),
        ("a", "c", "bbb"),
        ("a", "c", "bb", "b"),
        ("a", "c", "b", "bb"),
    }
    edges = {
        (i, j): w for i in nodes for j, w in g.out_edges(i).items() if j in nodes
    }
    assert edges == {
        (("ab", "cbb"), ("a", "cbb", "b")): 1,
        (("ab", "cbb"), ("a", "cb", "bb")): 1,
        (("ab", "cbb"), ("a", "cbbb")): 1,
        (("a", "cbb", "b"), ("a", "cb", "bb")): 1,
        (("a", "cbb", "b"), ("a", "c", "bbb")): 1,
        (("a", "cb", "bb"), ("a", "c", "bb", "b")): 1,
        (("a", "cb", "bb"), ("a", "c", "bbb")): 1,
        (("a", "c", "bb", "b"), ("a", "c", "b", "bb")): 1,
    }


def test_weighted_edge_example():
    g = dg.build(5, ABC)
    assert g.out_edges(("ab", "cb", "b"))[("a", "cb", "bb")] == 2


def test_degree_one_edgeless():
    g = dg.build(1, ABC)
    assert g.edges == {}
    assert len(g.vertices) == 3


def test_dag_certificate():
    for n in range(1, 6):
        g = dg.build(n, ABC)
        assert g.is_acyclic
        for i, targets in g.edges.items():
            for j in targets:
                assert word_lengths(j) < word_lengths(i), (i, j)


def test_build_vertices_in_canonical_order():
    # build lists its vertices in the shape order of the standard data,
    # unsorted, so that order must already be canonical
    for alphabet, top in ((AB, 5), (ABC, 4)):
        for n in range(1, top + 1):
            for variant in (IMMACULATE, ROW_STRICT):
                assert dg.build(n, alphabet, variant).vertices == all_sentences(alphabet, n)


def test_vertex_cap():
    with pytest.raises(ValueError):
        dg.build(5, ABC, cap=100)


def test_inverse_examples():
    g = dg.build(5, ABC)
    root = ("ab", "cbb")
    row = dg.inverse_row(g, root)
    assert row == {
        ("ab", "cbb"): 1,
        ("a", "cbb", "b"): -1,
        ("a", "c", "bbb"): 1,
        ("a", "cbbb"): -1,
    }
    # the unique 2-step path (abb,c) -> (ab,cb) -> (a,cb,b) gives +1 (size 4)
    g4 = dg.build(4, ABC)
    assert g4.out_edges(("abb", "c")) == {("ab", "cb"): 1, ("a", "cbb"): 1}
    assert dg.inverse_coeff(g4, ("abb", "c"), ("a", "cb", "b")) == 1
    for v in [("ab", "cbb"), ("a", "cbbb")]:
        assert dg.inverse_coeff(g, v, v) == 1
    # unreachable pairs vanish
    assert dg.inverse_coeff(g, ("a", "cbbb"), ("ab", "cbb")) == 0


def test_path_enumeration_matches_recurrence():
    # literal path sums are the oracle for the whole-table sweep and for the
    # back-substitutions: rows and columns
    for alphabet in (AB, ABC):
        g = dg.build(4, alphabet)
        rows = dg.inverse_rows(g)
        cols = {}
        for i in g.vertices:
            row = {}
            for k in dg.reachable(g, i):
                c = dg.path_inverse_coeff(g, i, k)
                assert c == dg.inverse_coeff(g, i, k), (i, k)
                if c:
                    row[k] = c
                    cols.setdefault(k, {})[i] = c
            assert dg.inverse_row(g, i) == row == rows[i], i
        for k in g.vertices:
            assert dg.inverse_column(g, k) == cols[k], k


def test_matrix_inverse_identity():
    # [Linv][L] = I is the substantive direction; [L][Linv] = I mirrors the
    # defining recurrence
    for n in range(1, 5):
        g = dg.cached_graph(AB, n)
        table = ell_table(AB, n)
        for i in g.vertices:
            acc = {}
            for k, c in dg.inverse_row(g, i).items():
                for target, w in table[k].items():
                    acc[target] = acc.get(target, 0) + c * w
            acc = {k: v for k, v in acc.items() if v}
            assert acc == {i: 1}, i
        for i in g.vertices:
            acc = {k: c for k, c in dg.inverse_row(g, i).items()}
            total = {}
            for j, w in table[i].items():
                for k, c in dg.inverse_row(g, j).items():
                    total[k] = total.get(k, 0) + w * c
            total = {k: v for k, v in total.items() if v}
            assert total == {i: 1}, i


def test_inverse_column_matches_rows():
    g = dg.cached_graph(AB, 4)
    for k in g.vertices:
        col = dg.inverse_column(g, k)
        for i in g.vertices:
            assert col.get(i, 0) == dg.inverse_coeff(g, i, k)


def _by_key_cases():
    for alphabet, top in ((A, 7), (AB, 5), (ABC, 4)):
        for n in range(1, top + 1):
            yield dg.cached_graph(alphabet, n)


def test_sweeps_by_key_match_the_graph():
    # the triangular solves by key give, on one basis element, the graph's
    # inverse row and column of that vertex
    for g in _by_key_cases():
        for v in g.vertices:
            assert solve_rows({v: 1}) == dg.inverse_row(g, v), v
            assert solve_columns({v: 1}) == dg.inverse_column(g, v), v
    # degree 0: the empty sentence alone, whose L row is its diagonal entry
    assert solve_rows({(): 1}) == {(): 1}
    assert solve_columns({(): 1}) == {(): 1}
    with pytest.raises(ValueError):
        dg.build(0, AB)


def test_whole_table_sweep_matches_back_substitution():
    # two independent inversions of L check each other on every vertex: the
    # sweep over all rows at once, and the back-substitution of one row over
    # the graph's out-edges and over L rows by key
    for g in _by_key_cases():
        rows = dg.inverse_rows(g)
        for i in g.vertices:
            assert rows[i] == dg.inverse_row(g, i) == solve_rows({i: 1}), i


def test_ell_columns_are_the_graph_in_edges():
    # the column walk by key gives the in-edges of the descent graph, the
    # diagonal entry aside
    for alphabet, top in ((AB, 6), (ABC, 5)):
        for n in range(1, top + 1):
            g = dg.cached_graph(alphabet, n)
            for j in g.vertices:
                column = dict(ell_column(j))
                assert column.pop(j) == 1
                assert column == g.in_edges(j), j
                assert sorted(column) == sorted(g.in_neighbors(j))


def test_cached_graph_ignores_how_the_variant_is_passed():
    # one immaculate graph per degree: no route reads a row-strict graph
    g = dg.cached_graph(AB, 3)
    assert dg.cached_graph(AB, 3) is g
    assert g.variant == IMMACULATE
    with pytest.raises(TypeError):
        dg.cached_graph(AB, 3, IMMACULATE)


def test_inverse_row_result_does_not_alias_the_cache():
    g = dg.build(4, ABC)
    root = ("abb", "c")
    want = dg.inverse_row(g, root)
    got = dg.inverse_row(g, root)
    got[root] = 7
    got.pop(("a", "cb", "b"))
    got[("aaaa",)] = 1
    assert dg.inverse_row(g, root) == want
    assert dg.inverse_coeff(g, root, ("a", "cb", "b")) == 1


def test_row_strict_graph_is_cyclic_and_bridged():
    g = dg.build(2, A, ROW_STRICT)
    assert not g.is_acyclic
    assert g.out_edges(("aa",)) == {("a", "a"): 1}
    assert g.out_edges(("a", "a")) == {("aa",): 1}
    for inverse in (dg.inverse_row, dg.inverse_column, lambda g, v: dg.inverse_rows(g)):
        with pytest.raises(ValueError):
            inverse(g, ("aa",))
    with pytest.raises(ValueError):
        dg.inverse_coeff(g, ("aa",), ("a", "a"))
    # out-neighbors in the row-strict graph are the complements of the
    # immaculate descent compositions (including the shape's own complement)
    for n in range(2, 5):
        rs = dg.build(n, AB, ROW_STRICT)
        for shape in rs.vertices:
            comps = {
                t.descent_composition() for t in enumerate_standard(shape, IMMACULATE)
            }
            want = {complement(c) for c in comps} - {shape}
            assert set(rs.out_edges(shape)) == want, shape


def test_row_strict_weights_from_tableaux():
    # rebuild the row-strict edge weights independently from descent data
    rs = dg.build(3, AB, ROW_STRICT)
    for shape in rs.vertices:
        counts = {}
        for t in enumerate_standard(shape, ROW_STRICT):
            c = t.descent_composition()
            counts[c] = counts.get(c, 0) + 1
        counts.pop(shape, None)
        assert rs.out_edges(shape) == counts, shape


def _brute_uncolored_ell(n):
    """L over compositions from scratch: filter permutations, read descents."""
    comps = []
    for r in range(n):
        for cuts in itertools.combinations(range(1, n), r):
            cuts = (0,) + cuts + (n,)
            comps.append(tuple(b - a for a, b in zip(cuts, cuts[1:])))
    table = {}
    for alpha in comps:
        boxes = [(i, j) for i, p in enumerate(alpha) for j in range(p)]
        row = {}
        for perm in itertools.permutations(range(1, n + 1)):
            grid = dict(zip(boxes, perm))
            ok = True
            for i, p in enumerate(alpha):
                for j in range(1, p):
                    if grid[(i, j)] < grid[(i, j - 1)]:
                        ok = False
            firsts = [grid[(i, 0)] for i in range(len(alpha))]
            if any(b <= a for a, b in zip(firsts, firsts[1:])):
                ok = False
            if not ok:
                continue
            pos = {v: box for box, v in grid.items()}
            des = [t for t in range(1, n) if pos[t + 1][0] > pos[t][0]]
            cuts = [0] + des + [n]
            beta = tuple(b - a for a, b in zip(cuts, cuts[1:]))
            row[beta] = row.get(beta, 0) + 1
        table[alpha] = row
    return table


def _invert_unitriangular(comps, table):
    """Dense Fraction Gaussian elimination, independent of the graph."""
    idx = {c: k for k, c in enumerate(comps)}
    m = len(comps)
    mat = [[Fraction(table.get(comps[r], {}).get(comps[c], 0)) for c in range(m)] for r in range(m)]
    inv = [[Fraction(1 if r == c else 0) for c in range(m)] for r in range(m)]
    for col in range(m):
        pivot = mat[col][col]
        assert pivot == 1
        for r in range(m):
            if r != col and mat[r][col]:
                f = mat[r][col]
                for c in range(m):
                    mat[r][c] -= f * mat[col][c]
                    inv[r][c] -= f * inv[col][c]
    return {
        comps[r]: {comps[c]: inv[r][c] for c in range(m) if inv[r][c]} for r in range(m)
    }


def test_uncolored_coeffs_against_brute_force():
    for n in range(1, 6):
        got = dg.uncolored_coeffs(n)
        brute = _brute_uncolored_ell(n)
        comps = sorted(brute, key=lambda c: tuple(-p for p in c))
        want = _invert_unitriangular(comps, brute)
        for alpha in comps:
            row = {b: int(c) for b, c in want[alpha].items() if c}
            assert got.get(alpha, {}) == row, alpha


def test_uncolored_ribbon_values():
    # L entries quoted for the (2,2) row
    table = ell_table(A, 4)
    row = {word_lengths(k): v for k, v in table[("aa", "aa")].items()}
    assert row == {(2, 2): 1, (1, 2, 1): 1, (1, 3): 1}


def test_export_dot_and_csv():
    g = dg.build(5, ABC)
    dot = dg.export_dot(g, root=("ab", "cbb"))
    assert dot.count(" -> ") == 8
    assert '"ab,cbb" -> "a,cbb,b" [label="1"];' in dot
    assert dot.splitlines()[0] == "digraph descent_graph {"
    g1 = dg.build(1, AB)
    dot1 = dg.export_dot(g1)
    assert "->" not in dot1 and '"a";' in dot1
    csv_text = dg.export_csv(g, root=("ab", "cbb"))
    lines = csv_text.strip().splitlines()
    assert lines[0] == "from,to,weight"
    assert len(lines) == 9
    assert '"ab,cbb","a,cbbb",1' in lines


def test_row_strict_dot_root_neighbors():
    # the row-strict out-neighbors of (ab,cbb) are the complements of its
    # immaculate out-neighbors together with its own complement
    imm = dg.build(5, ABC)
    rs = dg.build(5, ABC, ROW_STRICT)
    root = ("ab", "cbb")
    want = {complement(j) for j in imm.out_edges(root)} | {complement(root)}
    assert set(rs.out_edges(root)) == want
