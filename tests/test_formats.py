"""JSON documents: channel specs, graphs, DOT export, canonical writing."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from zecap import (
    Graph,
    basis_state,
    build_code,
    build_decoder,
    builtin_spec,
    confusability_graph,
    cycle_graph,
    identity_channel,
    verify_zero_error,
)
from zecap.confusability import StateSet
from zecap.errors import SizeLimitError, ValidationError
from zecap.formats import (
    channel_spec_document,
    code_document,
    complex_matrix_from_json,
    complex_matrix_to_json,
    dumps_canonical,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    parse_channel_spec,
    write_text_atomic,
)
from zecap.quantum import validate_povm

from oracles import random_graph


# ---------------------------------------------------------------------------
# Complex matrices
# ---------------------------------------------------------------------------


def test_complex_matrices_round_trip_bit_exactly():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        encoded = json.loads(json.dumps(complex_matrix_to_json(m)))
        back = complex_matrix_from_json(encoded)
        assert np.array_equal(back, m)


def test_complex_matrix_from_json_rejects_ragged_input():
    with pytest.raises(ValidationError):
        complex_matrix_from_json([[[0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]])
    with pytest.raises(ValidationError):
        complex_matrix_from_json([[[0.0]]])
    with pytest.raises(ValidationError):
        complex_matrix_from_json("nope")


# ---------------------------------------------------------------------------
# Channel specs
# ---------------------------------------------------------------------------


def test_kraus_spec_with_explicit_ensemble_parses():
    channel = identity_channel(2)
    states = StateSet(dim=2, states=(basis_state(2, 0), basis_state(2, 1)))
    eye = np.eye(2, dtype=np.complex128)
    povm = validate_povm([np.outer(eye[:, j], eye[:, j]) for j in range(2)])
    doc = channel_spec_document("noiseless", channel=channel)
    doc["states"] = [complex_matrix_to_json(s.matrix) for s in states.states]
    doc["povm"] = complex_matrix_to_json(povm.elements)
    spec = parse_channel_spec(doc)
    assert spec.source == "kraus"
    assert spec.states is not None and len(spec.states) == 2
    assert spec.povm is not None and len(spec.povm) == 2
    assert spec.classical_matrix is None


def test_spec_document_requires_exactly_one_source():
    with pytest.raises(ValidationError):
        channel_spec_document("x")
    with pytest.raises(ValidationError):
        channel_spec_document("x", channel=identity_channel(2), classical_matrix=np.eye(2))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("name"),
        lambda d: d.update(name=""),
        lambda d: d.update(classical_matrix=[[1.0, 0.0], [0.0, 1.0]]),
        lambda d: d.pop("kraus"),
        lambda d: d.update(kraus=[]),
        lambda d: d.update(dim=3),
        lambda d: d.update(states=[complex_matrix_to_json(np.eye(2) / 2)]),
    ],
)
def test_malformed_kraus_specs_are_rejected(mutate):
    doc = builtin_spec("identity-d2")
    mutate(doc)
    with pytest.raises(ValidationError):
        parse_channel_spec(doc)


def test_classical_specs_may_not_override_the_embedding():
    doc = builtin_spec("pentagon")
    doc["states"] = [complex_matrix_to_json(np.eye(5) / 5)]
    doc["povm"] = [complex_matrix_to_json(np.eye(5))]
    with pytest.raises(ValidationError):
        parse_channel_spec(doc)


def test_spec_must_be_an_object():
    with pytest.raises(ValidationError):
        parse_channel_spec([1, 2, 3])


# ---------------------------------------------------------------------------
# Graph documents and DOT
# ---------------------------------------------------------------------------


def test_graph_round_trip_on_fixed_and_random_graphs():
    rng = np.random.default_rng(8)
    graphs = [cycle_graph(5)] + [
        Graph.from_edges(int(v), random_graph(int(v), 0.5, rng))
        for v in rng.integers(1, 9, size=20)
    ]
    for g in graphs:
        back = graph_from_json(graph_to_json(g))
        assert back.vertex_count == g.vertex_count
        assert back.edges == g.edges


def test_graph_json_validation():
    with pytest.raises(ValidationError):
        graph_from_json({"vertex_count": 2, "adjacency": [[1], []]})
    with pytest.raises(ValidationError):
        graph_from_json({"vertex_count": 2, "adjacency": [[5], [0]]})
    with pytest.raises(ValidationError):
        graph_from_json({"vertex_count": 2, "adjacency": [[1]]})
    with pytest.raises(ValidationError):
        graph_from_json({"vertex_count": 0, "adjacency": []})
    with pytest.raises(ValidationError):
        graph_from_json("not a graph")
    # The one parser of graph files refuses what theta cannot take before it
    # builds a V x V matrix, whatever the lists hold.
    with pytest.raises(SizeLimitError, match="20000 vertices exceeds the limit of 100"):
        graph_from_json({"vertex_count": 20_000, "adjacency": None})


def test_dot_export_lists_every_edge_once():
    dot = graph_to_dot(cycle_graph(5))
    assert dot.startswith("graph")
    assert dot.count(" -- ") == 5
    assert "0 -- 1;" in dot and "0 -- 4;" in dot


# ---------------------------------------------------------------------------
# Canonical writing
# ---------------------------------------------------------------------------


def test_dumps_canonical_is_key_order_independent():
    a = dumps_canonical({"b": 1, "a": [2.5, None]})
    b = dumps_canonical({"a": [2.5, None], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')


def test_dumps_canonical_rejects_nan():
    with pytest.raises(ValueError):
        dumps_canonical({"x": float("nan")})


def test_atomic_writers_leave_no_temp_files(tmp_path):
    target = tmp_path / "out.json"
    write_text_atomic(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    write_text_atomic(str(target), dumps_canonical({"k": 1}))
    assert json.loads(target.read_text()) == {"k": 1}
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".zecap-")]
    assert leftovers == []


# ---------------------------------------------------------------------------
# Code documents
# ---------------------------------------------------------------------------


def test_code_document_for_a_tiny_code():
    channel = identity_channel(2)
    states = StateSet(dim=2, states=(basis_state(2, 0), basis_state(2, 1)))
    eye = np.eye(2, dtype=np.complex128)
    povm = validate_povm([np.outer(eye[:, j], eye[:, j]) for j in range(2)])
    graph = confusability_graph(channel, states, povm)
    code = build_code(graph, states, povm, n=1)
    decoder = build_decoder(code, channel, eps=1e-9)
    certificate = verify_zero_error(code, channel, eps=1e-9)
    doc = code_document(code, decoder, certificate)
    assert doc["n"] == 1 and doc["message_count"] == 2 and doc["rate"] == 1.0
    assert doc["decoder"]["mapped_words"] == 2
    assert doc["decoder"]["unreachable_words"] == 0
    assert doc["decoder"]["table"] == [
        {"word": [0], "message": 0},
        {"word": [1], "message": 1},
    ]
    assert doc["certificate"]["passed"] is True
    json.dumps(doc)
