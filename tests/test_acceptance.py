"""Acceptance gate: the headline behaviors, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; each
criterion also stands alone as a normal test.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

from zecap import (
    SearchConfig,
    StateSet,
    basis_state,
    build_code,
    build_decoder,
    capacity_bounds,
    confusability_graph,
    cycle_graph,
    depolarizing_channel,
    embed_classical,
    has_positive_zero_error_capacity,
    identity_channel,
    independence_number,
    non_adjacent_pair_count,
    optimize_pair,
    pentagon_matrix,
    strong_power,
    validate_povm,
    verify_zero_error,
)

from cliutil import run_cli, write_spec
from ensembles import random_projective_povm, random_pure_state_set
from invariants import (
    check_alpha_supermultiplicative,
    check_alpha_theta_sandwich,
    check_decoder_iff_independent,
    check_probability_normalization,
    check_support_monotonicity,
    check_trace_preservation,
)
from oracles import brute_alpha, pruned_alpha


def _verdict(number: int, text: str, passed: bool):
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {text}", flush=True)


def _computational_povm(dim: int):
    eye = np.eye(dim, dtype=np.complex128)
    return validate_povm([np.outer(eye[:, j], eye[:, j]) for j in range(dim)])


def test_criterion_1_noiseless_channels_have_log_dim_capacity():
    started = time.monotonic()
    ok = False
    try:
        for dim in (2, 3, 5):
            channel = identity_channel(dim)
            states = StateSet(dim=dim, states=tuple(basis_state(dim, k) for k in range(dim)))
            graph = confusability_graph(channel, states, _computational_povm(dim))
            assert graph.edges == frozenset()
            assert has_positive_zero_error_capacity(graph)
            bounds = capacity_bounds(graph, n_max=1)
            assert bounds.per_n[0].rate == pytest.approx(math.log2(dim), abs=0)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
        ok = True
    finally:
        _verdict(1, "identity channels d=2,3,5 give edgeless graphs and rate log2(d)", ok)


def test_criterion_2_fully_depolarizing_qubit_never_signals():
    started = time.monotonic()
    ok = False
    try:
        channel = depolarizing_channel(1.0)
        for seed in range(1000):
            states = random_pure_state_set(2, 2, seed=seed)
            povm = random_projective_povm(2, seed=seed)
            graph = confusability_graph(channel, states, povm)
            assert non_adjacent_pair_count(graph) == 0
        result = optimize_pair(channel, SearchConfig(num_states=2))
        assert result.pair_count == 0
        assert not has_positive_zero_error_capacity(result.graph)
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"
        ok = True
    finally:
        _verdict(2, "fully depolarizing qubit: 1000 random ensembles and the search all yield zero pairs", ok)


def test_criterion_3_pentagon_rates_meet_the_theta_bound():
    started = time.monotonic()
    ok = False
    try:
        channel, states, povm = embed_classical(pentagon_matrix())
        graph = confusability_graph(channel, states, povm)
        assert graph.edges == cycle_graph(5).edges

        alpha1, _ = independence_number(graph)
        assert alpha1 == 2 == brute_alpha(5, graph.edges)[0]
        power = strong_power(graph, 2)
        alpha2, witness = independence_number(power)
        assert alpha2 == 5 == pruned_alpha(25, power.edges)[0]
        assert witness == (0, 7, 14, 16, 23)

        bounds = capacity_bounds(graph, n_max=2)
        rate2 = bounds.per_n[1].rate
        assert rate2 == pytest.approx(math.log2(5.0) / 2.0, abs=1e-12)
        assert bounds.theta.value == pytest.approx(math.sqrt(5.0), abs=1e-5)
        assert bounds.theta_upper == pytest.approx(rate2, abs=1e-4)
        assert rate2 <= bounds.theta_upper + 1e-6
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        ok = True
    finally:
        _verdict(3, "pentagon: alpha 2 then 5, rate log2(5)/2 meeting the sqrt(5) upper bound", ok)


def test_criterion_4_pentagon_block_code_certifies_zero_error():
    ok = False
    try:
        channel, states, povm = embed_classical(pentagon_matrix())
        graph = confusability_graph(channel, states, povm)
        code = build_code(graph, states, povm, n=2)
        assert code.codewords == ((0, 0), (1, 2), (2, 4), (3, 1), (4, 3))

        report = verify_zero_error(code, channel, eps=1e-9)
        assert report.passed and report.pairwise_disjoint
        # Each input reaches 2 outcomes, so each codeword owns 2*2 = 4 words
        # and the 5 codewords cover 20 of the 25 possible words.
        assert report.support_sizes == (4, 4, 4, 4, 4)
        assert report.total_reachable == 20
        assert report.word_space_size == 25
        assert report.tensor_path_checked and report.paths_agree

        decoder = build_decoder(code, channel, eps=1e-9)
        assert len(decoder.mapping) == 20
        outputs = [decoder.decode(w) for w in itertools.product(range(5), repeat=2)]
        assert sum(1 for o in outputs if o is None) == 5
        assert sorted(set(o for o in outputs if o is not None)) == [0, 1, 2, 3, 4]
        ok = True
    finally:
        _verdict(4, "pentagon two-use code: 5 disjoint 4-word supports, both support paths agree, decoder total", ok)


def test_criterion_5_invariant_suites_hold_at_200_cases():
    ok = False
    try:
        check_trace_preservation(200)
        check_probability_normalization(200)
        check_support_monotonicity(200)
        check_alpha_supermultiplicative(200)
        check_alpha_theta_sandwich(200)
        check_decoder_iff_independent(200)
        ok = True
    finally:
        _verdict(5, "six invariant suites, 200 seeded cases each", ok)


def test_criterion_6_reports_are_byte_identical_across_reruns(tmp_path):
    ok = False
    try:
        for name in ("pentagon", "depolarizing-p1.0"):
            spec = write_spec(tmp_path / f"{name}.json", name)
            first = tmp_path / f"{name}-a.json"
            second = tmp_path / f"{name}-b.json"
            assert run_cli(["analyze", spec, "--out", str(first)]).returncode == 0
            assert run_cli(["analyze", spec, "--out", str(second)]).returncode == 0
            assert first.read_bytes() == second.read_bytes(), name
        ok = True
    finally:
        _verdict(6, "analyze reports byte-identical across reruns (embedded and searched ensembles)", ok)
