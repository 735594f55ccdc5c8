"""Rate lower bounds per block length against the theta upper bound."""

from __future__ import annotations

import math

import numpy as np
import pytest

from zecap import (
    Graph,
    capacity_bounds,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    strong_power,
)
from zecap.errors import DimensionMismatchError, SizeLimitError

from oracles import random_graph


def test_pentagon_bounds_across_two_block_lengths():
    b = capacity_bounds(cycle_graph(5), n_max=2)
    assert [e.alpha for e in b.per_n] == [2, 5]
    assert b.per_n[0].rate == pytest.approx(1.0, abs=0)
    assert b.per_n[1].rate == pytest.approx(math.log2(5.0) / 2.0, abs=1e-12)
    assert b.best_lower == b.per_n[1].rate
    assert b.theta is not None and b.theta.converged
    assert b.theta.value == pytest.approx(math.sqrt(5.0), abs=1e-5)
    assert b.theta_upper == pytest.approx(math.log2(5.0) / 2.0, abs=1e-4)
    assert b.theta_upper == math.log2(b.theta.upper)
    assert b.theta_upper >= math.log2(math.sqrt(5))
    assert b.best_lower <= b.theta_upper + 1e-6


def test_complete_graph_has_no_zero_error_rate():
    b = capacity_bounds(complete_graph(3), n_max=2)
    assert [e.alpha for e in b.per_n] == [1, 1]
    assert b.best_lower == 0.0
    assert b.theta_upper == pytest.approx(0.0, abs=1e-6)


def test_edgeless_graph_capacity_is_log_dim():
    b = capacity_bounds(edgeless_graph(2), n_max=2)
    assert [e.alpha for e in b.per_n] == [2, 4]
    assert [e.rate for e in b.per_n] == [1.0, 1.0]
    assert b.best_lower == 1.0
    assert b.theta_upper == pytest.approx(1.0, abs=1e-6)


def test_oversized_block_lengths_are_skipped_not_fatal():
    b = capacity_bounds(cycle_graph(5), n_max=3)
    assert [e.skipped for e in b.per_n] == [False, False, True]
    assert b.per_n[2].alpha is None and b.per_n[2].rate is None
    assert "125" in b.per_n[2].reason
    assert b.per_n[1].alpha == 5
    assert b.theta is not None


def test_block_lengths_stop_at_the_first_refusal():
    # Every power past the first one refused is larger still; a one-vertex
    # graph is never refused.
    b = capacity_bounds(cycle_graph(5), n_max=7000)
    assert b.per_n == capacity_bounds(cycle_graph(5), n_max=3).per_n
    assert [e.skipped for e in b.per_n] == [False, False, True]
    b = capacity_bounds(edgeless_graph(1), n_max=40)
    assert [e.alpha for e in b.per_n] == [1] * 40


@pytest.mark.parametrize("g", [cycle_graph(5), edgeless_graph(1)], ids=["C5", "one-vertex"])
def test_a_skipped_block_length_carries_the_graph_modules_refusal(g):
    # The vertex cap is decided in graphs alone: an entry is skipped exactly
    # when strong_power refuses, with that refusal's message.
    b = capacity_bounds(g, n_max=6)
    for n, e in enumerate(b.per_n, start=1):
        try:
            strong_power(g, n)
        except SizeLimitError as exc:
            assert e.skipped and e.alpha is None and e.rate is None
            assert e.reason == str(exc)
        else:
            assert not e.skipped and e.reason is None


def test_n_max_must_be_positive():
    with pytest.raises(ValueError):
        capacity_bounds(cycle_graph(5), n_max=0)


def test_witnesses_are_recorded_per_block_length():
    b = capacity_bounds(cycle_graph(5), n_max=2)
    assert b.per_n[0].witness == (0, 2)
    assert b.per_n[1].witness == (0, 7, 14, 16, 23)


def test_lower_bounds_never_exceed_theta_on_random_graphs():
    rng = np.random.default_rng(88)
    for _ in range(30):
        v = int(rng.integers(2, 7))
        g = Graph.from_edges(v, random_graph(v, rng.uniform(0.2, 0.8), rng))
        b = capacity_bounds(g, n_max=2)
        assert b.theta_upper is not None
        for e in b.per_n:
            if not e.skipped:
                assert e.rate <= b.theta_upper + 1e-6
        assert b.best_lower <= b.theta_upper + 1e-6
