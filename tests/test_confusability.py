"""Support sets, adjacency, and the confusability graph builder."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from zecap import (
    ConfusabilityGraph,
    Graph,
    StateSet,
    basis_state,
    capacity_bounds,
    confusability_graph,
    depolarizing_channel,
    embed_classical,
    has_positive_zero_error_capacity,
    identity_channel,
    non_adjacent_pair_count,
    pentagon_matrix,
    support_set,
    validate_povm,
)
from zecap.errors import DimensionMismatchError, EmptySupportError

from invariants import check_support_monotonicity

PENTAGON_EDGES = frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})


def computational_povm(dim: int):
    eye = np.eye(dim, dtype=np.complex128)
    return validate_povm([np.outer(eye[:, j], eye[:, j]) for j in range(dim)])


def basis_states(dim: int, count: int) -> StateSet:
    return StateSet(dim=dim, states=tuple(basis_state(dim, k) for k in range(count)))


# ---------------------------------------------------------------------------
# support_set
# ---------------------------------------------------------------------------


def test_support_set_picks_entries_above_eps():
    assert support_set(np.array([0.5, 0.5, 0.0, 0.0])) == frozenset({0, 1})
    assert support_set(np.array([1e-12, 1.0 - 1e-12])) == frozenset({1})


def test_support_set_is_a_frozenset_of_python_ints():
    idx = support_set(np.array([0.25, 0.0, 0.5, 0.25]))
    assert type(idx) is frozenset and idx == {0, 2, 3}
    assert all(type(j) is int for j in idx)


def test_support_set_cutoff_is_strict():
    eps = 1e-9
    assert support_set(np.array([eps, 1.0 - eps]), eps) == frozenset({1})
    assert support_set(np.array([eps * 1.01, 1.0]), eps) == frozenset({0, 1})


def test_support_set_returns_flat_indices_as_flatnonzero_would():
    # 1-D, strided and 2-D inputs (C-ordered, transposed and sliced), with
    # entries exactly at eps, NaN (never above eps) and -0.0: the support is
    # the flat indices of the C-order ravel, as np.flatnonzero gives them.
    eps = 1e-9
    above = np.nextafter(eps, 1.0)
    p = np.array([0.5, eps, np.nan, -0.0, 0.0, 0.25, above, 0.25, np.nan, 1e-12, eps, -0.0])
    assert support_set(p, eps) == frozenset({0, 5, 6, 7})
    inputs = [
        p, p[::2], p[1::3], p[::-1], p.tolist(),
        p.reshape(3, 4), p.reshape(4, 3).T, p.reshape(3, 4)[:, 1::2], p.reshape(2, 3, 2),
        np.array([eps, eps, 1.0]), np.array([[eps, above], [-0.0, np.nan]]),
    ]
    for probs in inputs:
        got = support_set(probs, eps)
        assert got == frozenset(np.flatnonzero(np.asarray(probs, np.float64) > eps).tolist())
        assert type(got) is frozenset and all(type(j) is int for j in got)
    assert support_set(p.reshape(4, 3).T, eps) == frozenset({0, 2, 6, 9})


def test_support_set_rejects_empty_and_bad_eps():
    with pytest.raises(EmptySupportError):
        support_set(np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        support_set(np.array([1.0]), eps=0.0)
    with pytest.raises(ValueError):
        support_set(np.array([1.0]), eps=-1e-3)


def test_a_nan_eps_is_refused_before_any_eigendecomposition(monkeypatch):
    # NaN fails every comparison, so a plain `eps <= 0` check lets it through
    # to an empty support.  Build the ensemble first: validation uses eigvalsh.
    channel, states, povm = embed_classical(pentagon_matrix())

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigendecomposition after a NaN eps")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigh)
    with pytest.raises(ValueError, match="eps must be positive"):
        support_set(np.array([0.5, 0.5]), eps=float("nan"))
    with pytest.raises(ValueError, match="eps must be positive"):
        confusability_graph(channel, states, povm, eps=float("nan"))


# ---------------------------------------------------------------------------
# StateSet
# ---------------------------------------------------------------------------


def test_state_set_rejects_overcomplete_without_flag():
    states = tuple(basis_state(2, k % 2) for k in range(3))
    with pytest.raises(DimensionMismatchError):
        StateSet(dim=2, states=states)
    assert len(StateSet(dim=2, states=states, allow_overcomplete=True)) == 3


def test_state_set_rejects_mixed_dims_and_empty():
    with pytest.raises(DimensionMismatchError):
        StateSet(dim=2, states=(basis_state(3, 0),))
    with pytest.raises(DimensionMismatchError):
        StateSet(dim=2, states=())


# ---------------------------------------------------------------------------
# confusability_graph
# ---------------------------------------------------------------------------


def test_identity_channel_distinguishes_basis_states():
    g = confusability_graph(identity_channel(2), basis_states(2, 2), computational_povm(2))
    assert g.edges == frozenset()
    assert g.supports == (frozenset({0}), frozenset({1}))
    assert g.fragile_count == 0
    assert has_positive_zero_error_capacity(g)


def test_full_depolarizing_confuses_everything():
    g = confusability_graph(depolarizing_channel(1.0), basis_states(2, 2), computational_povm(2))
    assert g.edges == frozenset({(0, 1)})
    assert g.supports == (frozenset({0, 1}), frozenset({0, 1}))
    assert not has_positive_zero_error_capacity(g)
    assert non_adjacent_pair_count(g) == 0


def test_pentagon_embedding_gives_the_five_cycle():
    channel, states, povm = embed_classical(pentagon_matrix())
    g = confusability_graph(channel, states, povm)
    assert g.vertex_count == 5
    assert g.edges == PENTAGON_EDGES
    assert g.supports == tuple(frozenset({i, (i + 1) % 5}) for i in range(5))
    assert non_adjacent_pair_count(g) == 5
    assert has_positive_zero_error_capacity(g)
    # The confusability graph is a Graph: the bounds take it as is.
    assert isinstance(g, Graph)
    assert capacity_bounds(g, 2) == capacity_bounds(Graph(g.vertex_count, g.edges), 2)
    # It equals a rebuild of itself, and never the plain Graph of its edges.
    again = confusability_graph(channel, states, povm)
    assert g == again and hash(g) == hash(again)
    assert g != Graph(g.vertex_count, g.edges) and Graph(g.vertex_count, g.edges) != g
    assert g != confusability_graph(channel, states, povm, eps=1e-8)
    # Copies keep the subclass, its fields and the read-only matrix.
    back = pickle.loads(pickle.dumps(g))
    assert type(back) is ConfusabilityGraph and back == g and back.supports == g.supports
    assert not copy.deepcopy(g).adjacency.flags.writeable


def test_a_confusability_graph_checks_the_matrix_it_is_given():
    path = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
    fields = {"supports": (frozenset({0}), frozenset({0, 1}), frozenset({1})), "eps": 1e-9}
    g = ConfusabilityGraph(vertex_count=3, adjacency=path, **fields)
    assert g.edges == frozenset({(0, 1), (1, 2)})
    # The graph keeps its own read-only copy; the caller's array stays theirs.
    path[0, 2] = path[2, 0] = True
    assert not g.has_edge(0, 2) and not g.adjacency.flags.writeable
    one_way = np.triu(path)
    looped = path | np.eye(3, dtype=bool)
    for bad, n in [(one_way, 3), (looped, 3), (path.astype(int), 3), (path, 4), (path[:2], 3), (path[:0, :0], 0)]:
        with pytest.raises(DimensionMismatchError, match="not a symmetric loopless boolean"):
            ConfusabilityGraph(vertex_count=n, adjacency=bad, **fields)


def test_edge_membership_follows_eps():
    # One transition sits at 5e-9: visible below the cutoff, gone above it.
    w = np.array([[1.0 - 5e-9, 5e-9], [0.0, 1.0]])
    channel, states, povm = embed_classical(w)
    near = confusability_graph(channel, states, povm, eps=1e-9)
    assert near.edges == frozenset({(0, 1)})
    assert near.fragile_count >= 1
    far = confusability_graph(channel, states, povm, eps=1e-7)
    assert far.edges == frozenset()


def test_graph_edges_are_canonical_pairs():
    channel, states, povm = embed_classical(pentagon_matrix())
    g = confusability_graph(channel, states, povm)
    assert all(a < b for a, b in g.edges)
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)


def test_confusability_graph_rejects_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        confusability_graph(identity_channel(3), basis_states(2, 2), computational_povm(2))
    with pytest.raises(DimensionMismatchError):
        confusability_graph(identity_channel(2), basis_states(2, 2), computational_povm(3))


def test_non_adjacent_pair_count_complement_of_edges():
    channel, states, povm = embed_classical(np.eye(4))
    g = confusability_graph(channel, states, povm)
    assert g.edges == frozenset()
    assert non_adjacent_pair_count(g) == 6


# ---------------------------------------------------------------------------
# Property suite
# ---------------------------------------------------------------------------


def test_supports_shrink_as_eps_grows():
    check_support_monotonicity(200)
