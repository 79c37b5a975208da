"""Tests for the CSR graph substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.errors import GraphConstructionError, ValidationError
from repro.graph.csr import Graph, _build_csr


def toy_graph(directed=False):
    # 0-1, 0-2, 1-2, 2-3
    return Graph.from_edges(
        4,
        np.array([0, 0, 1, 2]),
        np.array([1, 2, 2, 3]),
        directed=directed,
    )


class TestConstruction:
    def test_counts_undirected(self):
        g = toy_graph()
        assert g.n_vertices == 4
        assert g.n_edges == 4
        assert g.n_arcs == 8
        assert not g.directed

    def test_counts_directed(self):
        g = toy_graph(directed=True)
        assert g.n_edges == 4
        assert g.n_arcs == 4

    def test_dedup_collapses_duplicates(self):
        g = Graph.from_edges(3, np.array([0, 1, 0]), np.array([1, 0, 1]))
        assert g.n_edges == 1  # (0,1), (1,0), (0,1) are one undirected edge

    def test_directed_keeps_antiparallel(self):
        g = Graph.from_edges(3, np.array([0, 1]), np.array([1, 0]),
                             directed=True)
        assert g.n_edges == 2

    def test_drops_self_loops(self):
        g = Graph.from_edges(3, np.array([0, 1]), np.array([0, 2]))
        assert g.n_edges == 1

    def test_keeps_self_loops_when_asked(self):
        g = Graph.from_edges(3, np.array([0]), np.array([0]),
                             drop_self_loops=False, directed=True)
        assert g.n_edges == 1

    def test_weights_follow_dedup(self):
        g = Graph.from_edges(
            3, np.array([0, 0]), np.array([1, 1]),
            weight=np.array([5.0, 9.0]),
        )
        assert g.n_edges == 1
        assert g.edge_weight[0] == 5.0  # first occurrence wins

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphConstructionError):
            Graph.from_edges(2, np.array([0]), np.array([5]))

    def test_rejects_zero_vertices(self):
        with pytest.raises(GraphConstructionError):
            Graph.from_edges(0, np.array([], dtype=int),
                             np.array([], dtype=int))

    def test_rejects_mismatched_weight(self):
        with pytest.raises(ValidationError):
            Graph.from_edges(3, np.array([0]), np.array([1]),
                             weight=np.array([1.0, 2.0]))

    def test_arrays_are_readonly(self):
        g = toy_graph()
        with pytest.raises(ValueError):
            g.out_dst[0] = 99


class TestAdjacency:
    def test_degrees_undirected(self):
        g = toy_graph()
        assert g.degree.tolist() == [2, 2, 3, 1]
        assert g.out_degree.tolist() == g.in_degree.tolist()

    def test_degrees_directed(self):
        g = toy_graph(directed=True)
        assert g.out_degree.tolist() == [2, 1, 1, 0]
        assert g.in_degree.tolist() == [0, 1, 2, 1]
        assert g.degree.tolist() == [2, 2, 3, 1]

    def test_degrees_are_cached_and_read_only(self):
        g = toy_graph()
        assert g.out_degree is g.out_degree
        assert g.in_degree is g.in_degree
        assert g.degree is g.degree
        for arr in (g.out_degree, g.in_degree, g.degree):
            assert not arr.flags.writeable
        d = toy_graph(directed=True)
        assert d.degree is d.degree
        assert not d.degree.flags.writeable

    def test_neighbors_sorted(self):
        g = toy_graph()
        assert g.neighbors(2).tolist() == [0, 1, 3]

    def test_neighbors_rejects_directed(self):
        g = toy_graph(directed=True)
        with pytest.raises(ValidationError):
            g.neighbors(0)

    def test_out_in_neighbors_directed(self):
        g = toy_graph(directed=True)
        assert g.out_neighbors(0).tolist() == [1, 2]
        assert g.in_neighbors(2).tolist() == [0, 1]

    def test_has_edge(self):
        g = toy_graph()
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)  # symmetric
        assert not g.has_edge(0, 3)

    def test_has_edge_directed(self):
        g = toy_graph(directed=True)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_edge_ids_shared_between_directions(self):
        g = toy_graph()
        # Arc 0->1 and arc 1->0 must carry the same edge id.
        eid_fwd = g.out_eid[g.out_ptr[0]:g.out_ptr[1]][
            g.out_dst[g.out_ptr[0]:g.out_ptr[1]].tolist().index(1)]
        eid_bwd = g.out_eid[g.out_ptr[1]:g.out_ptr[2]][
            g.out_dst[g.out_ptr[1]:g.out_ptr[2]].tolist().index(0)]
        assert eid_fwd == eid_bwd

    def test_edge_endpoints_roundtrip(self):
        g = toy_graph()
        src, dst = g.edge_endpoints()
        got = {tuple(sorted(p)) for p in zip(src.tolist(), dst.tolist())}
        assert got == {(0, 1), (0, 2), (1, 2), (2, 3)}

    def test_edge_endpoints_directed(self):
        g = toy_graph(directed=True)
        src, dst = g.edge_endpoints()
        assert set(zip(src.tolist(), dst.tolist())) == {
            (0, 1), (0, 2), (1, 2), (2, 3)}

    def test_memory_bytes_positive(self):
        assert toy_graph().memory_bytes() > 0


class TestAgainstNetworkx:
    def test_random_graph_matches_networkx(self, rng):
        nx = pytest.importorskip("networkx")
        n = 40
        src = rng.integers(0, n, 200)
        dst = rng.integers(0, n, 200)
        g = Graph.from_edges(n, src, dst)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from((int(a), int(b)) for a, b in zip(src, dst)
                         if a != b)
        assert g.n_edges == G.number_of_edges()
        for v in range(n):
            assert sorted(g.neighbors(v).tolist()) == sorted(G.neighbors(v))


@given(st.integers(2, 30), st.integers(0, 120), st.booleans(),
       st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_csr_invariants(n, m, directed, seed):
    """Property: CSR structure is internally consistent for any input."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    g = Graph.from_edges(n, src, dst, directed=directed)
    # ptr arrays are monotone and span the arc count.
    assert g.out_ptr[0] == 0 and g.out_ptr[-1] == g.n_arcs
    assert g.in_ptr[0] == 0 and g.in_ptr[-1] == g.n_arcs
    assert np.all(np.diff(g.out_ptr) >= 0)
    assert np.all(np.diff(g.in_ptr) >= 0)
    # Every arc's eid is a valid logical edge.
    if g.n_arcs:
        assert g.out_eid.max() < g.n_edges
        assert g.in_eid.max() < g.n_edges
    # Undirected graphs store exactly two arcs per edge.
    if not directed:
        assert g.n_arcs == 2 * g.n_edges
    # Total degree equals arc count.
    assert int(g.out_degree.sum()) == g.n_arcs
    assert int(g.in_degree.sum()) == g.n_arcs


@given(n=st.integers(1, 40), m=st.integers(0, 200),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_build_csr_matches_lexsort(n, m, seed):
    """The combined-key stable argsort permutes arcs exactly like
    ``np.lexsort((dst, src))``, duplicate arcs included."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    eid = rng.permutation(m)
    ptr, d, e = _build_csr(n, src, dst, eid)
    order = np.lexsort((dst, src))
    np.testing.assert_array_equal(d, dst[order])
    np.testing.assert_array_equal(e, eid[order])
    np.testing.assert_array_equal(
        ptr, np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n)))))


def test_build_csr_rejects_overflowing_key():
    empty = np.empty(0, dtype=np.int64)
    with pytest.raises(GraphConstructionError, match="overflow"):
        _build_csr(2**32, empty, empty, empty)
