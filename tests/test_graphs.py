"""Core graph types: construction invariants, the bipartite bridge, degrees."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hampack.errors import DimensionError, InvalidInputError
from hampack.graphs import (
    BipartiteGraph,
    Cycle,
    Digraph,
    OneFactor,
    Permutation,
    bipartite_to_digraph,
    degree_profile,
    is_heavy,
    matching_to_one_factor,
    min_degree_vertices,
)


class TestDigraph:
    def test_rejects_loops(self):
        with pytest.raises(InvalidInputError):
            Digraph(3, [(1, 1)])

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidInputError):
            Digraph(3, [(1, 2), (1, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            Digraph(3, [(1, 4)])

    def test_adjacency_sorted_and_transposed(self):
        g = Digraph(4, [(2, 1), (2, 4), (2, 3), (1, 3), (4, 3)])
        assert g.out_adj[2] == [1, 3, 4]
        assert g.in_adj[3] == [1, 2, 4]
        assert g.edge_count == 5
        assert g.has_edge(2, 4) and not g.has_edge(4, 2)

    @given(st.integers(2, 8), st.data())
    def test_transpose_consistency(self, n, data):
        universe = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
        edges = data.draw(st.lists(st.sampled_from(universe), unique=True, max_size=len(universe)))
        g = Digraph(n, edges)
        recovered = [(u, v) for v in range(1, n + 1) for u in g.in_adj[v]]
        assert sorted(recovered) == sorted(edges)
        assert sum(g.out_degree(v) for v in range(1, n + 1)) == g.edge_count

    def test_text_round_trip(self):
        g = Digraph(3, [(1, 2), (2, 3), (3, 1)])
        assert Digraph.from_text(g.to_text()) == g
        assert g.to_text() == "3 3\n1 2\n2 3\n3 1\n"

    def test_text_rejects_bad_header(self):
        with pytest.raises(InvalidInputError):
            Digraph.from_text("3\n1 2\n")
        with pytest.raises(InvalidInputError):
            Digraph.from_text("3 2\n1 2\n")


def reference_build(n, edges, digraph):
    """Edge-by-edge build: the rows, or the message for the first bad pair."""
    rows = [[] for _ in range(n + 1)]
    cols = [[] for _ in range(n + 1)]
    seen = set()
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            return (f"edge ({u},{v}) outside vertex range 1..{n}" if digraph
                    else f"edge (x{u},y{v}) outside index range 1..{n}")
        if digraph and u == v:
            return f"loop at vertex {u} not allowed"
        if (u, v) in seen:
            return f"duplicate edge ({u},{v})" if digraph else f"duplicate edge (x{u},y{v})"
        seen.add((u, v))
        rows[u].append(v)
        cols[v].append(u)
    return [sorted(r) for r in rows], [sorted(c) for c in cols]


class TestBuildMatchesReference:
    """Pairs and index arrays give the graph an edge-by-edge build gives,
    or the same error, for the first bad pair in input order."""

    @given(st.integers(0, 6), st.data())
    def test_digraph_and_bipartite(self, n, data):
        index = st.integers(-1, n + 2) | st.integers(1, max(n, 1))
        pairs = data.draw(st.lists(st.tuples(index, index), max_size=24))
        arrays = (np.array([u for u, _ in pairs], dtype=np.int64),
                  np.array([v for _, v in pairs], dtype=np.int64))
        for cls, is_digraph in ((Digraph, True), (BipartiteGraph, False)):
            expected = reference_build(n, pairs, is_digraph)
            for edges in (pairs, iter(pairs), arrays):
                if isinstance(expected, str):
                    with pytest.raises(InvalidInputError) as err:
                        cls(n, edges)
                    assert str(err.value) == expected
                    continue
                g = cls(n, edges)
                rows, cols = expected
                assert g.edge_count == len(pairs)
                assert list(g.edges()) == sorted(pairs)
                adjacency = (g.out_adj, g.in_adj) if is_digraph else (g.x_adj, g.y_adj)
                assert adjacency == (rows, cols)
                assert all(g.has_edge(u, v) == (v in rows[u])
                           for u in range(1, n + 1) for v in range(1, n + 1))
                assert g == cls(n, sorted(pairs))

    def test_error_names_first_bad_pair_in_input_order(self):
        with pytest.raises(InvalidInputError, match=r"^duplicate edge \(1,2\)$"):
            Digraph(3, [(1, 2), (2, 3), (1, 2), (3, 3), (0, 1)])
        with pytest.raises(InvalidInputError, match=r"^loop at vertex 3 not allowed$"):
            Digraph(3, [(3, 3), (0, 1), (1, 2), (1, 2)])
        with pytest.raises(InvalidInputError, match=r"outside vertex range"):
            Digraph(3, [(1, 2), (2, 10 ** 30), (1, 2)])
        with pytest.raises(InvalidInputError, match=r"^duplicate edge \(x2,y2\)$"):
            BipartiteGraph(3, [(2, 2), (1, 1), (2, 2), (4, 1)])

    def test_large_vertex_count(self):
        n = 70_000
        g = Digraph(n, [(n, 3), (1, 2), (5, n), (4, 2)])
        assert g.in_adj[2] == [1, 4] and g.in_adj[n] == [5] and g.out_adj[n] == [3]

    def test_edge_arrays_are_read_only(self):
        g = Digraph(3, [(2, 1), (1, 3)])
        assert g.tails.tolist() == [1, 2] and g.heads.tolist() == [3, 1]
        with pytest.raises(ValueError):
            g.tails[0] = 3


class TestBipartiteGraph:
    def test_degrees(self):
        b = BipartiteGraph(3, [(1, 1), (1, 2), (2, 1)])
        assert b.deg_x(1) == 2 and b.deg_x(2) == 1 and b.deg_x(3) == 0
        assert b.deg_y(1) == 2 and b.deg_y(2) == 1 and b.deg_y(3) == 0

    def test_rejects_duplicate(self):
        with pytest.raises(InvalidInputError):
            BipartiteGraph(2, [(1, 2), (1, 2)])

    def test_text_round_trip(self):
        b = BipartiteGraph(3, [(1, 2), (2, 3), (3, 1)])
        assert BipartiteGraph.from_text(b.to_text()) == b


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(InvalidInputError):
            Permutation([1, 1, 3])

    def test_cycles_of_identity(self):
        assert Permutation.identity(3).cycles() == [(1,), (2,), (3,)]

    def test_cycles_start_at_minimum(self):
        p = Permutation([2, 3, 1, 5, 4])
        assert p.cycles() == [(1, 2, 3), (4, 5)]
        assert p.cycle_count() == 2

    @given(st.permutations(list(range(1, 8))))
    def test_inverse_round_trip(self, image):
        p = Permutation(image)
        inv = p.inverse()
        assert all(inv.of(p.of(i)) == i for i in range(1, 8))

    @given(st.permutations(list(range(1, 8))))
    def test_cycles_partition(self, image):
        p = Permutation(image)
        flat = [v for c in p.cycles() for v in c]
        assert sorted(flat) == list(range(1, 8))


class TestCycle:
    def test_canonical_rotation(self):
        assert Cycle([3, 1, 2]).vertices == (1, 2, 3)
        assert Cycle([2, 3, 1]).vertices == (1, 2, 3)

    def test_direction_preserved(self):
        assert Cycle([3, 2, 1]).vertices == (1, 3, 2)

    def test_singleton_has_no_edges(self):
        c = Cycle([7])
        assert c.edges() == []
        assert len(c) == 1

    def test_edges_wrap(self):
        assert Cycle([1, 2, 3]).edges() == [(1, 2), (2, 3), (3, 1)]
        assert Cycle([1, 2]).edges() == [(1, 2), (2, 1)]

    def test_paths(self):
        c = Cycle([1, 4, 2, 5])
        assert c.path_from(2) == (2, 5, 1, 4)
        assert c.path_ending_at(2) == (5, 1, 4, 2)

    def test_rejects_repeat(self):
        with pytest.raises(InvalidInputError):
            Cycle([1, 2, 1])


class TestOneFactor:
    def test_orders_longest_first(self):
        f = OneFactor(6, [Cycle([6]), Cycle([1, 2]), Cycle([3, 4, 5])])
        assert [len(c) for c in f.cycles] == [3, 2, 1]
        assert f.vertex_to_cycle[4] == 0
        assert f.singleton_count() == 1

    def test_tie_break_by_minimum_vertex(self):
        f = OneFactor(4, [Cycle([3, 4]), Cycle([1, 2])])
        assert f.cycles[0].vertices == (1, 2)

    def test_rejects_overlap(self):
        with pytest.raises(InvalidInputError):
            OneFactor(3, [Cycle([1, 2]), Cycle([2, 3])])

    def test_rejects_gap(self):
        with pytest.raises(InvalidInputError):
            OneFactor(4, [Cycle([1, 2, 3])])

    def test_edges(self):
        f = OneFactor(3, [Cycle([1, 2]), Cycle([3])])
        assert sorted(f.edges()) == [(1, 2), (2, 1)]


class TestBipartiteBridge:
    def test_shift_example(self):
        b = BipartiteGraph(3, [(1, 2), (2, 3), (3, 1)])
        d = bipartite_to_digraph(b, Permutation.identity(3))
        assert sorted(d.edges()) == [(1, 2), (2, 3), (3, 1)]

    def test_loops_erased(self):
        b = BipartiteGraph(3, [(1, 1), (1, 2), (2, 2)])
        d = bipartite_to_digraph(b, Permutation.identity(3))
        assert sorted(d.edges()) == [(1, 2)]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            bipartite_to_digraph(BipartiteGraph(3, []), Permutation.identity(4))

    @given(st.integers(2, 7), st.data())
    def test_edge_count_drops_only_by_loops(self, n, data):
        universe = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
        edges = data.draw(st.lists(st.sampled_from(universe), unique=True, max_size=len(universe)))
        image = data.draw(st.permutations(list(range(1, n + 1))))
        pi = Permutation(image)
        b = BipartiteGraph(n, edges)
        d = bipartite_to_digraph(b, pi)
        loops = sum(1 for x, y in edges if pi.of(y) == x)
        assert d.edge_count == len(edges) - loops

    @given(st.permutations(list(range(1, 7))), st.permutations(list(range(1, 7))))
    def test_matching_image_is_one_factor(self, matching, image):
        pi = Permutation(image)
        f = matching_to_one_factor(6, matching, pi)
        composed = [pi.of(matching[x - 1]) for x in range(1, 7)]
        for c in f.cycles:
            for u, v in c.edges():
                assert composed[u - 1] == v


class TestMatchingToOneFactor:
    def test_transposition_with_fixed_point(self):
        f = matching_to_one_factor(3, (2, 1, 3), Permutation.identity(3))
        assert {c.vertices for c in f.cycles} == {(1, 2), (3,)}
        assert f.singleton_count() == 1

    def test_single_cycle(self):
        f = matching_to_one_factor(3, (2, 3, 1), Permutation.identity(3))
        assert [c.vertices for c in f.cycles] == [(1, 2, 3)]


class TestHeavyAndDegrees:
    def test_boundary_counts_as_heavy(self):
        block = list(range(1, 10))
        g = Digraph(9, [(1, 2)])
        assert is_heavy(1, block, 1 / 9, g)
        assert not is_heavy(3, block, 1 / 9, g)
        assert is_heavy(2, block, 1 / 9, g)

    def test_requires_membership(self):
        with pytest.raises(InvalidInputError):
            is_heavy(5, [1, 2, 3], 0.5, Digraph(5, []))

    def test_in_neighbors_count(self):
        g = Digraph(4, [(2, 1), (3, 1), (4, 1)])
        assert is_heavy(1, [1, 2, 3, 4], 0.7, g)

    def test_min_degree_vertices_lowest_index(self):
        b = BipartiteGraph(3, [(1, 1), (1, 2), (2, 1)])
        assert min_degree_vertices(b) == (3, 3)
        full = BipartiteGraph(2, [(1, 1), (1, 2), (2, 1), (2, 2)])
        assert min_degree_vertices(full) == (1, 1)

    def test_degree_profile_bidirected_triangle(self):
        g = Digraph(3, [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)])
        prof = degree_profile(g)
        assert prof["delta_out"] == prof["delta_in"] == prof["delta_pm"] == 2
        assert prof["per_vertex"] == [2, 2, 2]

    def test_degree_profile_asymmetric(self):
        g = Digraph(3, [(1, 2), (1, 3), (2, 3)])
        prof = degree_profile(g)
        assert prof["delta_out"] == 0 and prof["delta_in"] == 0
        assert prof["delta_pm"] == 0
        assert prof["per_vertex"] == [0, 1, 0]
