"""Graphs, strong products and powers, and the exact independence solver."""

from __future__ import annotations

import copy
import itertools
import json
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from zecap import (
    Graph,
    build_code,
    complete_graph,
    confusability_graph,
    cycle_graph,
    edgeless_graph,
    embed_classical,
    independence_number,
    strong_power,
    strong_product,
)
from zecap import graphs
from zecap.errors import DimensionMismatchError, SizeLimitError
from zecap.formats import dumps_canonical, graph_to_json

from invariants import check_alpha_supermultiplicative
from oracles import (
    brute_alpha,
    orbit_of_zero,
    pruned_alpha,
    random_graph,
    random_regular_graph,
    strong_product_edges,
)

# Petersen graph: outer 5-cycle, inner pentagram, spokes.
PETERSEN_EDGES = (
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, 5 + i) for i in range(5)]
)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def test_graph_normalizes_and_validates_edges():
    g = Graph.from_edges(3, [(2, 0), (0, 2), (1, 2)])
    assert g.edges == frozenset({(0, 2), (1, 2)})
    with pytest.raises(DimensionMismatchError, match="self-loop at vertex 0"):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(DimensionMismatchError, match=r"edge \(0, 3\) invalid for 3 vertices"):
        Graph(vertex_count=3, edges=frozenset({(0, 3)}))
    with pytest.raises(DimensionMismatchError, match=r"edge \(-1, 2\) invalid"):
        Graph.from_edges(3, [(2, -1)])
    # One validating pass serves both: no endpoint is truncated to an integer.
    with pytest.raises(DimensionMismatchError, match="non-integer endpoint"):
        Graph.from_edges(3, [(0.5, 2)])
    assert Graph(3, frozenset({(2, 0), (0, 2)})).edges == frozenset({(0, 2)})
    with pytest.raises(DimensionMismatchError):
        Graph(vertex_count=0, edges=frozenset())


def test_graph_stores_integer_endpoints_as_python_ints():
    # rng.permutation hands out numpy integers; the solver's bit tricks need
    # Python ints, above 63 vertices too.
    a, b = sorted(np.random.default_rng(5).permutation(70)[:2])
    g = Graph(vertex_count=70, edges=frozenset({(a, b)}))
    assert all(type(x) is int for e in g.edges for x in e)
    assert independence_number(g, max_vertices=70)[0] == 69
    assert independence_number(Graph(4, frozenset({(np.int64(0), np.int64(3))}))) == (3, (0, 1, 2))
    with pytest.raises(DimensionMismatchError, match=r"\(0\.0, 3\.0\)"):
        Graph(4, frozenset({(0.0, 3.0)}))
    # The vertex count goes through the same operator.index as the endpoints.
    g = Graph(np.int64(3), [(0, 1)])
    assert type(g.vertex_count) is int and g.vertex_count == 3
    doc = json.loads(dumps_canonical(graph_to_json(g)))
    assert doc == {"vertex_count": 3, "adjacency": [[1], [0], []]}
    with pytest.raises(DimensionMismatchError, match="vertex count 2.5 is not an integer"):
        Graph(2.5, [(0, 1)])
    with pytest.raises(DimensionMismatchError, match="vertex count '3' is not an integer"):
        Graph("3", [(0, 1)])
    with pytest.raises(DimensionMismatchError, match=r"edge \(0, 1\) invalid for 1 vertices"):
        Graph(True, [(0, 1)])


def test_standard_families():
    assert len(complete_graph(4).edges) == 6
    assert edgeless_graph(5).edges == frozenset()
    c5 = cycle_graph(5)
    assert c5.adjacency.sum(axis=1).tolist() == [2] * 5
    assert c5.has_edge(4, 0)


def test_a_graph_is_its_read_only_adjacency_matrix():
    g = cycle_graph(5)
    assert g.adjacency.dtype == bool and g.adjacency.shape == (5, 5)
    with pytest.raises(ValueError, match="read-only"):
        g.adjacency[0, 1] = False
    # Equality and hash go by the vertex count and the matrix.
    assert g != edgeless_graph(5) and edgeless_graph(4) != edgeless_graph(5)
    assert complete_graph(1) == edgeless_graph(1) and hash(complete_graph(1)) == hash(edgeless_graph(1))
    # A bare matrix index would wrap -1 round to vertex 4, a neighbour of 0.
    assert not any(g.has_edge(a, b) for a, b in [(0, -1), (-1, 0), (0, 5), (5, 4), (-1, -2)])
    # A copy or an unpickled graph is as read-only as the original, so its hash holds.
    for back in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert back == g and hash(back) == hash(g) and back.edges == g.edges
        with pytest.raises(ValueError, match="read-only"):
            back.adjacency[0, 1] = False


# ---------------------------------------------------------------------------
# Strong products and powers
# ---------------------------------------------------------------------------


def test_strong_product_matches_definition_on_fixed_pairs():
    cases = [
        (cycle_graph(5), cycle_graph(5)),
        (complete_graph(2), complete_graph(3)),
        (edgeless_graph(3), cycle_graph(4)),
        (Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), complete_graph(2)),
    ]
    for g, h in cases:
        got = strong_product(g, h)
        count, want = strong_product_edges(g.vertex_count, g.edges, h.vertex_count, h.edges)
        assert got.vertex_count == count
        assert got.edges == want


def test_strong_product_matches_definition_on_random_pairs():
    rng = np.random.default_rng(12)
    for _ in range(25):
        vg, vh = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        g = Graph.from_edges(vg, random_graph(vg, rng.uniform(0, 1), rng))
        h = Graph.from_edges(vh, random_graph(vh, rng.uniform(0, 1), rng))
        got = strong_product(g, h)
        _, want = strong_product_edges(vg, g.edges, vh, h.edges)
        assert got.edges == want
        # The power is a chain of products, the definition's chain too.
        _, square = strong_product_edges(vg, g.edges, vg, g.edges)
        _, cube = strong_product_edges(vg * vg, square, vg, g.edges)
        assert strong_power(g, 3, vg**3).edges == cube


def test_single_vertex_is_the_product_identity():
    g = Graph.from_edges(4, [(0, 3), (1, 2)])
    assert strong_product(complete_graph(1), g).edges == g.edges
    assert strong_product(g, complete_graph(1)).edges == g.edges


def test_pentagon_squared_is_eight_regular():
    sq = strong_product(cycle_graph(5), cycle_graph(5))
    assert sq.vertex_count == 25
    assert sq.adjacency.sum(axis=1).tolist() == [8] * 25


def test_strong_power_basics():
    c5 = cycle_graph(5)
    assert strong_power(c5, 1).edges == c5.edges
    cube = strong_power(complete_graph(2), 3)
    assert cube.vertex_count == 8 and len(cube.edges) == 28
    assert strong_power(edgeless_graph(2), 3).edges == frozenset()


def test_the_fifth_power_of_the_pentagon_is_built_as_a_matrix():
    # The 3,125 x 3,125 matrix takes 9.5 MiB: no room for a second copy or for edge tuples.
    tracemalloc.start()
    try:
        g = strong_power(cycle_graph(5), 5, 3125)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert g.vertex_count == 3125
    assert (g.adjacency.sum(axis=1) == 242).all()  # 3^5 - 1: each digit equal or adjacent


@pytest.mark.parametrize("m, n, count", [(5, 1, 5), (4, 3, 1), (6, 3, 150), (5, 5, 1500)])
def test_strong_power_pairs_are_the_induced_edges_in_order(m, n, count):
    # Words in random order, as many as span several row blocks at 1,500:
    # the edges among them are the pairs equal or adjacent at every position.
    rng = np.random.default_rng(m * n + count)
    g = Graph.from_edges(m, random_graph(m, 0.5, rng))
    meet = g.adjacency | np.eye(m, dtype=bool)
    every = np.array(list(itertools.product(range(m), repeat=n)))
    words = every[rng.choice(len(every), size=count, replace=False)]
    want = np.ones((count, count), dtype=bool)
    for t in range(n):
        want &= meet[np.ix_(words[:, t], words[:, t])]
    got = graphs._strong_power_pairs(g, words)
    assert got.shape == (int(np.triu(want, 1).sum()), 2)
    assert got.tolist() == np.argwhere(np.triu(want, 1)).tolist()


def test_strong_power_respects_size_cap():
    with pytest.raises(SizeLimitError) as exc:
        strong_power(cycle_graph(5), 3)
    assert exc.value.size == 125
    with pytest.raises(DimensionMismatchError):
        strong_power(cycle_graph(5), 0)


def test_strong_power_refuses_a_non_integer_exponent():
    c5 = cycle_graph(5)
    for n in (2.0, 1.5, "2", None):
        with pytest.raises(DimensionMismatchError, match="needs an integer n"):
            strong_power(c5, n)
    assert strong_power(c5, np.int64(2)).edges == strong_product(c5, c5).edges


def test_size_limit_message_formats_past_the_decimal_conversion_limit():
    # 5^7000 has 4,893 decimal digits, past the 4,300 that Python converts
    # by default; such a size is shown by the power of 2 below it.
    assert str(SizeLimitError(125, 64)) == "125 vertices exceeds the limit of 64"
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    shown = "at least 2^16253" if 0 < limit < 4893 else str(5**7000)
    want = f"{shown} vertices exceeds the limit of 64"
    assert str(SizeLimitError(5**7000, 64)) == want
    with pytest.raises(SizeLimitError) as exc:
        strong_power(cycle_graph(5), 7000)
    assert exc.value.size == 5**7000 and str(exc.value) == want


# ---------------------------------------------------------------------------
# independence_number
# ---------------------------------------------------------------------------


def test_alpha_of_standard_families():
    assert independence_number(complete_graph(6)) == (1, (0,))
    assert independence_number(edgeless_graph(5)) == (5, (0, 1, 2, 3, 4))
    assert independence_number(cycle_graph(5)) == (2, (0, 2))
    assert independence_number(cycle_graph(7)) == (3, (0, 2, 4))


def test_alpha_of_petersen_graph():
    g = Graph.from_edges(10, PETERSEN_EDGES)
    alpha, witness = independence_number(g)
    assert (alpha, witness) == brute_alpha(10, PETERSEN_EDGES)
    assert alpha == 4


def test_pentagon_power_alpha_is_five():
    sq = strong_power(cycle_graph(5), 2)
    alpha, witness = independence_number(sq)
    assert alpha == 5
    assert witness == (0, 7, 14, 16, 23)
    want_alpha, want_witness = pruned_alpha(25, sq.edges)
    assert (alpha, witness) == (want_alpha, want_witness)


def test_witness_is_independent_and_canonical_on_random_graphs():
    rng = np.random.default_rng(77)
    for _ in range(200):
        v = int(rng.integers(1, 9))
        edges = random_graph(v, rng.uniform(0.1, 0.9), rng)
        g = Graph.from_edges(v, edges)
        alpha, witness = independence_number(g)
        assert (alpha, witness) == brute_alpha(v, edges)
        assert len(witness) == alpha
        assert not any(g.has_edge(a, b) for i, a in enumerate(witness) for b in witness[i + 1:])


def test_alpha_invariant_under_relabeling():
    rng = np.random.default_rng(31)
    for _ in range(20):
        v = int(rng.integers(2, 9))
        edges = random_graph(v, 0.5, rng)
        g = Graph.from_edges(v, edges)
        perm = rng.permutation(v)
        h = Graph.from_edges(v, [(perm[a], perm[b]) for a, b in edges])
        ag, wg = independence_number(g)
        ah, wh = independence_number(h)
        assert ag == ah
        assert wg == brute_alpha(v, g.edges)[1]
        assert wh == brute_alpha(v, h.edges)[1]
        assert not any(h.has_edge(a, b) for i, a in enumerate(wh) for b in wh[i + 1:])


def test_witness_is_canonical_on_random_graphs_beyond_brute_force():
    # The search runs on relabelled vertices; the witness must still be the
    # lexicographically smallest maximum set in the caller's labels.
    rng = np.random.default_rng(2024)
    for v in range(18, 27):
        for p in (0.2, 0.5, 0.8):
            edges = random_graph(v, p, rng)
            assert independence_number(Graph.from_edges(v, edges)) == pruned_alpha(v, edges)


def test_relabelled_c7_times_c9_has_hales_alpha():
    g = strong_product(cycle_graph(7), cycle_graph(9), max_vertices=63)
    perm = np.random.default_rng(79).permutation(63)
    h = Graph.from_edges(63, [(perm[a], perm[b]) for a, b in g.edges])
    alpha, witness = independence_number(h)
    assert alpha == 13  # floor(9 * floor(7 / 2) / 2), Hales 1973
    assert len(set(witness)) == 13
    assert not any(h.has_edge(a, b) for i, a in enumerate(witness) for b in witness[i + 1:])


@pytest.mark.parametrize("m, n", [(5, 5), (5, 7), (7, 7)])
def test_witness_is_canonical_on_relabelled_cycle_products(m, n):
    # Vertex-transitive graphs hold many maximum sets, and the search's vertex
    # order follows the labels; the witness must not.
    g = strong_product(cycle_graph(m), cycle_graph(n))
    for seed in range(4):
        perm = np.random.default_rng(seed).permutation(m * n)
        edges = [(perm[a], perm[b]) for a, b in g.edges]
        assert independence_number(Graph.from_edges(m * n, edges)) == pruned_alpha(m * n, edges)


def _count_calls(monkeypatch, name):
    calls = []
    inner = getattr(graphs, name)

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(graphs, name, counted)
    return calls


def _sizes_of_calls(monkeypatch, name) -> list[int]:
    """The vertex count of the adjacency each call of graphs.<name> takes."""
    sizes = []
    inner = getattr(graphs, name)
    monkeypatch.setattr(graphs, name, lambda adj, *rest: sizes.append(len(adj)) or inner(adj, *rest))
    return sizes


def test_witness_rebuild_queries_only_what_its_known_completion_leaves_open(monkeypatch):
    # The maximum set the alpha search found answers every vertex inside it.
    calls = _count_calls(monkeypatch, "_clique")
    assert independence_number(edgeless_graph(40)) == (40, tuple(range(40)))
    assert len(calls) == 1
    calls.clear()
    assert independence_number(complete_graph(6)) == (1, (0,))
    assert len(calls) == 1
    assert independence_number(strong_power(cycle_graph(5), 2)) == (5, (0, 7, 14, 16, 23))


def test_clique_search_node_count_is_pinned(monkeypatch):
    # One _color_order call per search node, alpha search and witness
    # rebuild together; deterministic, so any change to the order, the
    # bound or the rebuild shows here as a count.
    nodes = _count_calls(monkeypatch, "_color_order")
    corpus = []
    for m, n in [(7, 9), (9, 9)]:
        g = strong_product(cycle_graph(m), cycle_graph(n), max_vertices=81)
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(m * n)
            corpus.append(Graph.from_edges(m * n, [(perm[a], perm[b]) for a, b in g.edges]))
    for seed in range(2):
        corpus.append(Graph.from_edges(60, random_graph(60, 0.15, np.random.default_rng(seed))))
    alphas = [independence_number(g, max_vertices=81)[0] for g in corpus]
    assert alphas[:6] == [13] * 3 + [18] * 3  # Hales 1973
    assert len(nodes) == 12_036


def test_a_greedy_set_of_maximum_size_settles_the_search_at_one_coloring(monkeypatch):
    # The label-order greedy set (every vertex but 1) is the search's floor,
    # so the one coloring finds no larger set, and as the lexicographically
    # smallest maximum set it is the witness with no rebuild query.
    nodes = _count_calls(monkeypatch, "_color_order")
    alpha, witness = independence_number(Graph(1500, [(0, 1)]), 1500)
    assert alpha == 1499 and witness == (0, *range(2, 1500))
    assert len(nodes) == 1


def _clique_masks(n: int, edges):
    """The masks _clique takes: adjacency, and non-adjacency without v itself."""
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    full = (1 << n) - 1
    return tuple(adj), tuple(full ^ a ^ (1 << v) for v, a in enumerate(adj))


def _check_clique_engine(n: int, edges, cand: int, omega: int):
    """Both modes of _clique at every floor, given the clique number ``omega`` of ``cand``."""
    adj, nadj = _clique_masks(n, edges)
    for floor in range(omega + 1):
        for first in (False, True):
            got = graphs._clique(adj, nadj, cand, floor, first)
            if floor == omega:
                assert got == []
                continue
            assert len(got) == (floor + 1 if first else omega)
            assert all(cand >> v & 1 for v in got)
            assert all(adj[a] >> b & 1 for a, b in itertools.combinations(got, 2))


def test_clique_engine_matches_the_oracle_on_random_graphs_and_candidate_sets():
    rng = np.random.default_rng(27)
    for _ in range(60):
        n = int(rng.integers(1, 21))
        edges = random_graph(n, rng.uniform(0.1, 0.9), rng)
        edge_set = set(edges)
        for _ in range(3):
            members = [v for v in range(n) if rng.random() < 0.7]
            cand = sum(1 << v for v in members)
            # A clique inside cand is an independent set of the complement on cand.
            pos = {v: i for i, v in enumerate(members)}
            gaps = [
                (pos[a], pos[b])
                for a, b in itertools.combinations(members, 2)
                if (a, b) not in edge_set
            ]
            omega = pruned_alpha(len(members), gaps)[0]
            _check_clique_engine(n, edges, cand, omega)


def _greedy_by_highest_label(cand: int, adj, kmin: int):
    """Reference coloring on vertex sets: each class takes the highest remaining
    vertex, drops its neighbours, and repeats; (vertex, color) for color >= kmin."""
    left = {v for v in range(cand.bit_length()) if cand >> v & 1}
    out = []
    color = 0
    while left:
        color += 1
        avail = set(left)
        while avail:
            v = max(avail)
            left.remove(v)
            avail = {u for u in avail if u != v and not adj[v] >> u & 1}
            if color >= kmin:
                out.append((v, color))
    return out


def test_color_order_matches_a_highest_label_greedy_on_random_masks():
    rng = np.random.default_rng(32)
    for _ in range(40):
        n = int(rng.integers(1, 131))
        adj, nadj = _clique_masks(n, random_graph(n, rng.uniform(0.05, 0.95), rng))
        bit = tuple(1 << v for v in range(n))
        cand = sum(1 << v for v in range(n) if rng.random() < 0.8)
        whole = list(zip(*graphs._color_order(cand, nadj, bit, 1)))
        assert sorted(v for v, _ in whole) == [v for v in range(n) if cand >> v & 1]
        top = whole[-1][1] if whole else 0
        for kmin in sorted({1, 2, 3, 5, top, top + 1}):
            vertices, colors = graphs._color_order(cand, nadj, bit, kmin)
            listed = list(zip(vertices, colors))
            assert listed == _greedy_by_highest_label(cand, adj, kmin)
            # The unlisted vertices are those of the classes below kmin.
            assert listed == [(v, c) for v, c in whole if c >= kmin]
            assert colors == sorted(colors) and all(c >= kmin for c in colors)
            for c in set(colors):
                members = [v for v, k in listed if k == c]
                assert not any(adj[a] >> b & 1 for a, b in itertools.combinations(members, 2))


def test_alpha_is_not_bounded_by_the_recursion_limit():
    # One search frame per clique vertex, on an explicit stack: an alpha far
    # past the interpreter's recursion limit (1,000 by default) is reached.
    n = 1500
    assert independence_number(Graph(n, [(0, 1)]), n) == (n - 1, (0,) + tuple(range(2, n)))
    assert independence_number(edgeless_graph(1200), 1200) == (1200, tuple(range(1200)))


@pytest.mark.parametrize("n", [1, 2, 30, 31, 60, 61, 64, 128])
def test_clique_engine_at_the_word_boundaries(n):
    # Edgeless, complete, and one edge at the highest vertex: the top bit of
    # every mask is set, cleared or alone, up to alpha_exact's cap of 128.
    full = (1 << n) - 1
    complete = list(itertools.combinations(range(n), 2))
    _check_clique_engine(n, [], full, 1)
    _check_clique_engine(n, complete, full, n)
    _check_clique_engine(n, complete, 1 << (n - 1), 1)
    assert independence_number(edgeless_graph(n), n) == (n, tuple(range(n)))
    assert independence_number(complete_graph(n), n) == (1, (0,))
    if n > 1:
        for edge in [(0, n - 1), (n - 2, n - 1)]:
            _check_clique_engine(n, [edge], full, 2)
            _check_clique_engine(n, [edge], 1 << (n - 1), 1)
            _check_clique_engine(n, [edge], full ^ (1 << edge[0]), 1)
            g = Graph(n, [edge])
            assert independence_number(g, n) == (n - 1, tuple(range(n - 1)))


# ---------------------------------------------------------------------------
# Vertex-transitive route
# ---------------------------------------------------------------------------


def _relabelled(g: Graph, seed: int) -> Graph:
    perm = np.random.default_rng(seed).permutation(g.vertex_count)
    return Graph.from_edges(g.vertex_count, [(perm[a], perm[b]) for a, b in g.edges])


def _transitive(g: Graph) -> bool:
    return graphs._vertex_transitive(g.adjacency)


def _kneser(n: int, k: int) -> Graph:
    sets = [frozenset(c) for c in itertools.combinations(range(n), k)]
    pairs = itertools.combinations(range(len(sets)), 2)
    return Graph.from_edges(len(sets), [(i, j) for i, j in pairs if not sets[i] & sets[j]])


def _paley(q: int) -> Graph:
    squares = {x * x % q for x in range(1, q)}
    pairs = itertools.combinations(range(q), 2)
    return Graph.from_edges(q, [(a, b) for a, b in pairs if (b - a) % q in squares])


def _cubic_corpus():
    rng = np.random.default_rng(16)
    return [random_regular_graph(16, 3, rng) for _ in range(200)]


def _alpha_through_zero(n: int, edges) -> int:
    """1 + alpha(G - N[0]): the reduction's answer, proof or not."""
    g = Graph.from_edges(n, edges)
    keep = [v for v in range(1, n) if not g.has_edge(0, v)]
    pairs = itertools.combinations(range(len(keep)), 2)
    rest = [(i, j) for i, j in pairs if g.has_edge(keep[i], keep[j])]
    return 1 + brute_alpha(len(keep), rest)[0]


def _whole_search(g: Graph) -> tuple[int, tuple[int, ...]]:
    """The clique search on all of ``g``, with no symmetry used."""
    return graphs._maximum_independent_set(g.adjacency)


def _accepted_stabilisers(monkeypatch) -> list[list[np.ndarray]]:
    """Each list of automorphisms fixing 0 that a direct proof hands the search."""
    found = []
    inner = graphs._stabiliser

    def recorded(*args):
        gens = inner(*args)
        found.append(gens)
        return gens

    monkeypatch.setattr(graphs, "_stabiliser", recorded)
    return found


@pytest.mark.parametrize("m, n", [(5, 5), (5, 7), (7, 7), (7, 9), (9, 9)])
def test_transitive_route_keeps_the_canonical_witness(monkeypatch, m, n):
    # The route branches once per orbit of the automorphisms fixing 0 that
    # the proof accepts, each checked here.  C7xC9 and C9xC9 are too large
    # for the oracle; the whole search, with no symmetry, is checked there.
    monkeypatch.setattr(graphs, "_TRANSITIVE_FLOOR", 0)
    found = _accepted_stabilisers(monkeypatch)
    branched = _count_calls(monkeypatch, "_orbital")
    g = strong_product(cycle_graph(m), cycle_graph(n), max_vertices=81)
    for seed in range(12):
        h = _relabelled(g, seed)
        assert _transitive(h)
        want = pruned_alpha(m * n, h.edges) if m * n <= 49 else _whole_search(h)
        assert independence_number(h, 81) == want
        for sigma in found[-1]:
            assert sigma[0] == 0 and graphs._is_automorphism(h.adjacency, sigma)
    assert len(branched) == len(found) == 12 and all(found)


def test_transitive_route_is_exact_on_random_cubic_graphs(monkeypatch):
    # Vertex 0 lies outside every maximum set of many of these graphs, so
    # the reduction applied without a proof of symmetry would get them wrong.
    monkeypatch.setattr(graphs, "_TRANSITIVE_FLOOR", 0)
    wrong_unproven = 0
    for edges in _cubic_corpus():
        want = brute_alpha(16, edges)
        assert independence_number(Graph.from_edges(16, edges)) == want
        wrong_unproven += _alpha_through_zero(16, edges) != want[0]
    assert wrong_unproven >= 20


def test_transitive_route_on_complete_and_edgeless_graphs(monkeypatch):
    monkeypatch.setattr(graphs, "_TRANSITIVE_FLOOR", 0)
    for k in range(1, 6):
        assert independence_number(complete_graph(k)) == (1, (0,))
        assert independence_number(edgeless_graph(k)) == (k, tuple(range(k)))


def test_transitive_route_searches_only_the_remainder(monkeypatch):
    sizes = _sizes_of_calls(monkeypatch, "_maximum_independent_set")
    g = _relabelled(strong_product(cycle_graph(7), cycle_graph(9), max_vertices=63), 79)
    assert independence_number(g, max_vertices=63)[0] == 13
    assert sizes == [63 - 9]  # G - N[0]: vertex 0 and its 8 neighbours go
    sizes.clear()
    g = _relabelled(strong_product(cycle_graph(5), cycle_graph(7)), 79)
    assert independence_number(g)[0] == 7
    assert sizes == [35]  # below the floor, the whole graph is searched


def test_a_proof_out_of_nodes_falls_back_to_the_whole_search(monkeypatch):
    g = _relabelled(strong_product(cycle_graph(7), cycle_graph(9), max_vertices=63), 3)
    want = independence_number(g, max_vertices=63)
    monkeypatch.setattr(graphs, "_PROOF_NODES", 0)
    assert not _transitive(g)
    assert independence_number(g, max_vertices=63) == want


def test_a_power_is_proven_transitive_on_its_factor(monkeypatch):
    # A relabelled C7 channel: one private outcome per input and one per edge.
    perm = np.random.default_rng(4).permutation(7)
    w = np.zeros((7, 14))
    for i in range(7):
        w[perm[i], [i, 7 + i, 7 + (i - 1) % 7]] = 1 / 3
    channel, states, povm = embed_classical(w)
    graph = confusability_graph(channel, states, povm)
    sizes = _sizes_of_calls(monkeypatch, "_vertex_transitive")
    code = build_code(graph, states, povm, n=2)
    assert sizes == [7] and code.message_count == 10
    # The same power built from its edges is its own only factor.
    power = strong_power(graph, 2)
    sizes.clear()
    assert independence_number(power) == independence_number(Graph(49, power.edges))
    assert sizes == [7, 49]


def _alpha_by_components(g: Graph, components) -> tuple[int, tuple[int, ...]]:
    """The oracle's answer on a disjoint union, one component at a time.

    Alpha is the sum over the components, and the lexicographically smallest
    maximum set is the union of each component's: whether a vertex is kept
    depends only on what its own component has kept so far.
    """
    alpha, witness = 0, []
    for members in components:
        members = sorted(members)
        pairs = itertools.combinations(range(len(members)), 2)
        edges = [(i, j) for i, j in pairs if g.has_edge(members[i], members[j])]
        a, w = pruned_alpha(len(members), edges)
        alpha += a
        witness += [members[i] for i in w]
    return alpha, tuple(sorted(witness))


def test_a_factor_not_proven_leaves_the_direct_proof(monkeypatch):
    # C3 plus C5: 2-regular, and no automorphism maps the triangle onto the pentagon.
    g = Graph.from_edges(8, [(0, 1), (1, 2), (0, 2)] + [(3 + i, 3 + (i + 1) % 5) for i in range(5)])
    square = strong_power(g, 2)
    sizes = _sizes_of_calls(monkeypatch, "_vertex_transitive")
    # The square is C3xC3, C3xC5, C5xC3 and C5xC5, apart; word (a, b) is 8a + b.
    parts = [range(3), range(3, 8)]
    components = [[8 * a + b for a in p for b in q] for p in parts for q in parts]
    assert independence_number(square) == _alpha_by_components(square, components)
    assert sizes == [8, 64]
    # Nested products are flattened into one factor tuple.
    c3 = cycle_graph(3)
    assert strong_product(strong_product(g, c3), g, 192)._factors == (g, c3, g)


def test_a_power_whose_factor_proof_runs_out_falls_back_to_the_whole_search(monkeypatch):
    power = strong_power(cycle_graph(7), 2)
    want = independence_number(power)
    monkeypatch.setattr(graphs, "_PROOF_NODES", 0)
    searched = _sizes_of_calls(monkeypatch, "_maximum_independent_set")
    assert independence_number(power) == want
    assert searched == [49]


def test_orbital_branching_is_exact_on_relabelled_circulants(monkeypatch):
    # On many of these the first orbit holds no vertex of any maximum set of
    # G - N[0], so a search that stopped after its first branch would be wrong.
    monkeypatch.setattr(graphs, "_TRANSITIVE_FLOOR", 0)
    branched = _count_calls(monkeypatch, "_orbital")
    rng = np.random.default_rng(1)
    for _ in range(120):
        n = int(rng.integers(8, 25))
        steps = [d for d in range(1, n // 2 + 1) if rng.random() < 0.35] or [1]
        g = _relabelled(Graph.from_edges(n, _circulant(n, steps)), int(rng.integers(1 << 30)))
        assert independence_number(g) == pruned_alpha(n, g.edges)
    assert len(branched) >= 100


def test_every_accepted_stabiliser_generator_fixes_zero(monkeypatch):
    found = _accepted_stabilisers(monkeypatch)
    corpus = [_kneser(8, 3), _paley(61), _kneser(9, 3), _paley(97)]
    corpus.append(strong_product(cycle_graph(9), cycle_graph(11), max_vertices=99))
    for g in corpus:
        for seed in range(3):
            h = _relabelled(g, seed)
            assert graphs._proven_transitive(h) is not None
            for sigma in found[-1]:
                assert sigma[0] == 0 and graphs._is_automorphism(h.adjacency, sigma)
    assert all(found)


def test_a_stabiliser_candidate_that_is_no_automorphism_is_refused(monkeypatch):
    # The search one level down first offers a transposition that fixes 0
    # and is no automorphism, then the map that moves 0 to its neighbour
    # (an automorphism that does not fix 0), then its own candidates.
    g = _relabelled(strong_product(cycle_graph(7), cycle_graph(9), max_vertices=63), 5)
    adj = g.adjacency
    want = _whole_search(g)
    rest = np.flatnonzero(~adj[0])[1:]
    swap = np.arange(63)
    swap[[rest[0], rest[-1]]] = swap[[rest[-1], rest[0]]]
    assert not graphs._is_automorphism(adj, swap)
    # (a, b) -> (a + 1, b), word 9a + b, in the relabelled graph's labels.
    perm = np.random.default_rng(5).permutation(63)
    shift = np.empty(63, dtype=np.intp)
    shift[perm] = perm[(np.arange(63) + 9) % 63]
    assert shift[0] != 0 and graphs._is_automorphism(adj, shift)
    inner = graphs._leaves
    only_bad = []

    def leaves(nbrs, weights, path, leaf, depth, *args):
        if depth == 1:
            yield swap
            yield shift
            if only_bad:
                return
        yield from inner(nbrs, weights, path, leaf, depth, *args)

    monkeypatch.setattr(graphs, "_leaves", leaves)
    found = _accepted_stabilisers(monkeypatch)
    assert independence_number(g, 63) == want
    assert found[-1] and all(sigma[0] == 0 for sigma in found[-1])
    assert not any(np.array_equal(sigma, swap) for sigma in found[-1])
    # With nothing but the bad candidates, no generator is accepted and the
    # remainder is searched with no symmetry.
    only_bad.append(True)
    branched = _count_calls(monkeypatch, "_orbital")
    assert independence_number(g, 63) == want
    assert found[-1] == [] and branched == []



def test_recorded_factors_are_invisible_to_equality_and_copies():
    power = strong_power(cycle_graph(7), 2)
    plain = Graph(49, power.edges)
    assert power == plain and hash(power) == hash(plain)
    want = independence_number(power)
    for back in (copy.copy(power), copy.deepcopy(power), pickle.loads(pickle.dumps(power))):
        assert back == power == plain and hash(back) == hash(power)
        assert back._factors == () and independence_number(back) == want


@pytest.mark.parametrize(
    "g",
    [
        strong_product(cycle_graph(7), cycle_graph(9), max_vertices=63),
        strong_product(cycle_graph(9), cycle_graph(9), max_vertices=81),
        _kneser(8, 3),
        _paley(61),
        strong_product(cycle_graph(5), cycle_graph(5)),
        strong_product(cycle_graph(5), cycle_graph(7)),
        strong_product(cycle_graph(7), cycle_graph(7)),
        strong_product(cycle_graph(5), cycle_graph(9)),
        _kneser(9, 3),
        _paley(97),
    ],
    ids=["C7xC9", "C9xC9", "Kneser(8,3)", "Paley(61)"]
    + ["C5xC5", "C5xC7", "C7xC7", "C5xC9", "Kneser(9,3)", "Paley(97)"],
)
def test_symmetry_is_proven_on_relabelled_vertex_transitive_graphs(g):
    for seed in range(12):
        assert _transitive(_relabelled(g, seed))


def test_symmetry_is_refused_where_no_automorphism_moves_zero_everywhere():
    for edges in _cubic_corpus():
        assert len(orbit_of_zero(16, edges)) < 16
        assert not _transitive(Graph.from_edges(16, edges))
    assert not _transitive(Graph.from_edges(10, PETERSEN_EDGES + [(0, 2)]))
    # C6 plus two triangles: 2-regular, so colour refinement alone splits
    # nothing, yet 0 (on the hexagon) maps to no triangle vertex.
    hexagon = [(i, (i + 1) % 6) for i in range(6)]
    triangles = [(6, 7), (7, 8), (6, 8), (9, 10), (10, 11), (9, 11)]
    assert orbit_of_zero(12, hexagon + triangles) == tuple(range(6))
    assert not _transitive(Graph.from_edges(12, hexagon + triangles))
    # Relabelled, so vertex 0 sits on a triangle.
    assert not _transitive(_relabelled(Graph.from_edges(12, hexagon + triangles), 2))


def test_symmetry_proof_agrees_with_backtracking_on_small_regular_graphs():
    # Circulants are vertex-transitive; two cycles of different lengths are
    # 2-regular and are not.  Relabelled, so neither shows in the labels.
    rng = np.random.default_rng(9)
    for _ in range(40):
        n = int(rng.integers(6, 13))
        steps = [d for d in range(1, n // 2 + 1) if rng.random() < 0.4] or [1]
        a = int(rng.integers(3, n - 2))
        for edges in (
            [(v, (v + d) % n) for v in range(n) for d in steps],
            [(v, (v + 1) % a) for v in range(a)]
            + [(a + v, a + (v + 1) % (n - a)) for v in range(n - a)],
        ):
            g = _relabelled(Graph.from_edges(n, edges), int(rng.integers(1 << 30)))
            assert _transitive(g) == (orbit_of_zero(n, g.edges) == tuple(range(n)))


def _circulant(n: int, steps, shift: int = 0) -> list[tuple[int, int]]:
    return [(shift + v, shift + (v + d) % n) for v in range(n) for d in steps]


def test_symmetry_proof_agrees_with_backtracking_at_the_sizes_it_serves():
    # Circulants on 40-64 vertices are vertex-transitive.  Circulants on two
    # different numbers of vertices, with as many steps each, all below half
    # the size, have one degree: their disjoint union is regular, and no
    # automorphism maps one component onto the other.  Relabelled.
    rng = np.random.default_rng(21)
    for _ in range(6):
        n = int(rng.integers(40, 65))
        steps = rng.choice(np.arange(1, n // 2 + 1), size=int(rng.integers(1, 3)), replace=False)
        a, b = rng.choice(np.arange(20, 33), size=2, replace=False).tolist()
        k = int(rng.integers(1, 3))
        union = _circulant(a, rng.choice(np.arange(1, (a + 1) // 2), size=k, replace=False))
        union += _circulant(b, rng.choice(np.arange(1, (b + 1) // 2), size=k, replace=False), a)
        for v, edges in ((n, _circulant(n, steps)), (a + b, union)):
            g = _relabelled(Graph.from_edges(v, edges), int(rng.integers(1 << 30)))
            assert _transitive(g) == (orbit_of_zero(v, g.edges) == tuple(range(v)))


def test_a_weak_refinement_never_proves_a_false_symmetry(monkeypatch):
    # With two weights, keys of one colour collide wholesale, so the
    # refinement splits little and hands the edge check permutations that
    # are no automorphisms.  The check alone must keep the proof sound.
    monkeypatch.setattr(graphs, "_weights", lambda size: np.arange(size) % 2)
    rejected = []
    check = graphs._is_automorphism
    monkeypatch.setattr(
        graphs, "_is_automorphism", lambda adj, sigma: check(adj, sigma) or rejected.append(sigma)
    )
    hexagon = [(i, (i + 1) % 6) for i in range(6)]
    triangles = [(6, 7), (7, 8), (6, 8), (9, 10), (10, 11), (9, 11)]
    corpus = [Graph.from_edges(16, edges) for edges in _cubic_corpus()]
    corpus.append(Graph.from_edges(10, PETERSEN_EDGES + [(0, 2)]))
    corpus.append(Graph.from_edges(12, hexagon + triangles))
    corpus.append(_relabelled(corpus[-1], 2))
    for g in corpus:
        if _transitive(g):
            assert orbit_of_zero(g.vertex_count, g.edges) == tuple(range(g.vertex_count))
    assert rejected


def test_the_symmetry_proof_never_imports_numpy_random():
    code = (
        "import sys, numpy\n"
        "if 'numpy.random' in sys.modules:\n"
        "    print('preloaded')\n"
        "    raise SystemExit\n"
        "from zecap import Graph, cycle_graph, graphs, independence_number, strong_product\n"
        "g = strong_product(cycle_graph(7), cycle_graph(9), max_vertices=63)\n"
        "g = Graph.from_edges(63, [((5 * a + 3) % 63, (5 * b + 3) % 63) for a, b in g.edges])\n"
        "alpha = independence_number(g, max_vertices=63)[0]\n"
        "print(graphs._vertex_transitive(g.adjacency), alpha, 'numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.split() == ["preloaded"]:
        pytest.skip("import numpy alone loads numpy.random")
    assert proc.stdout.split() == ["True", "13", "False"]


def test_independence_number_respects_size_cap():
    with pytest.raises(SizeLimitError):
        independence_number(edgeless_graph(65))


# ---------------------------------------------------------------------------
# Property suite
# ---------------------------------------------------------------------------


def test_alpha_supermultiplicative_on_strong_products():
    check_alpha_supermultiplicative(200)


def test_pentagon_beats_the_product_bound_strictly():
    # alpha(C5)^2 = 4 < 5 = alpha(C5 x C5): the strict gap block codes exploit.
    c5 = cycle_graph(5)
    alpha, _ = independence_number(strong_product(c5, c5))
    assert alpha == 5 > independence_number(c5)[0] ** 2
