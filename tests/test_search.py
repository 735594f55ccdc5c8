"""The hill-climbing (states, POVM) search."""

from __future__ import annotations

import math
import subprocess
import sys

import numpy as np
import pytest

from zecap import (
    DEFAULT_EPS,
    SearchConfig,
    bitflip_channel,
    confusability_graph,
    dephasing_channel,
    depolarizing_channel,
    embed_classical,
    identity_channel,
    non_adjacent_pair_count,
    optimize_pair,
    pentagon_matrix,
)
from zecap import search
from zecap.errors import DimensionMismatchError, EmptySupportError
from zecap.search import (
    _ensemble,
    _objective_bound,
    _operator_space,
    _pair_count,
    _prob_table,
    _starts,
)

from ensembles import (
    random_channel,
    random_general_povm,
    random_projective_povm,
    random_pure_state_set,
)

SMALL = dict(restarts=3, iterations=80)


def purity(m: np.ndarray) -> float:
    return float(np.trace(m @ m).real)


# ---------------------------------------------------------------------------
# Random ensemble constructors
# ---------------------------------------------------------------------------


def test_random_pure_state_set_shapes_and_determinism():
    s = random_pure_state_set(3, 3, seed=4)
    assert s.dim == 3 and len(s) == 3
    assert all(purity(st.matrix) == pytest.approx(1.0, abs=1e-12) for st in s.states)
    t = random_pure_state_set(3, 3, seed=4)
    assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(s.states, t.states))
    assert len(random_pure_state_set(2, 5, seed=1)) == 5


def test_random_projective_povm_is_rank_one_and_complete():
    povm = random_projective_povm(3, seed=6)
    assert len(povm) == 3
    total = sum(e for e in povm.elements)
    assert np.allclose(total, np.eye(3), atol=1e-12)
    for e in povm.elements:
        vals = np.linalg.eigvalsh(e)
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)
        assert abs(vals[:-1]).max() <= 1e-9


def test_random_general_povm_counts_and_completeness():
    povm = random_general_povm(2, 4, seed=9)
    assert len(povm) == 4
    assert np.allclose(sum(povm.elements), np.eye(2), atol=1e-12)


# ---------------------------------------------------------------------------
# optimize_pair on channels with known answers
# ---------------------------------------------------------------------------


def test_identity_qubit_reaches_the_single_pair():
    res = optimize_pair(identity_channel(2), SearchConfig(num_states=2, **SMALL))
    assert res.pair_count == 1
    assert res.alpha_1 == 2
    assert res.graph.edges == frozenset()


def test_identity_qutrit_distinguishes_all_pairs():
    res = optimize_pair(identity_channel(3), SearchConfig(num_states=3, **SMALL))
    assert res.pair_count == 3
    assert res.alpha_1 == 3


def test_fully_depolarizing_admits_nothing():
    res = optimize_pair(depolarizing_channel(1.0), SearchConfig(num_states=2, **SMALL))
    assert res.pair_count == 0
    assert res.alpha_1 == 1
    assert res.graph.edges == frozenset({(0, 1)})


def test_pentagon_channel_search_recovers_five_pairs():
    channel, _, _ = embed_classical(pentagon_matrix())
    res = optimize_pair(channel, SearchConfig(num_states=5, restarts=2, iterations=50))
    assert res.pair_count == 5
    assert res.alpha_1 == 2


def test_reported_graph_is_reproducible_from_the_result():
    res = optimize_pair(dephasing_channel(0.3), SearchConfig(num_states=2, **SMALL))
    rebuilt = confusability_graph(
        dephasing_channel(0.3), res.best_states, res.best_povm, eps=res.config.eps_support
    )
    assert rebuilt.edges == res.graph.edges
    assert rebuilt.supports == res.graph.supports
    assert non_adjacent_pair_count(rebuilt) == res.pair_count


def test_search_is_deterministic_for_a_seed():
    cfg = SearchConfig(num_states=2, restarts=2, iterations=60, seed=13)
    a = optimize_pair(dephasing_channel(0.4), cfg)
    b = optimize_pair(dephasing_channel(0.4), cfg)
    assert a.pair_count == b.pair_count
    assert a.best_restart == b.best_restart
    assert a.history == b.history
    assert a.graph.edges == b.graph.edges
    assert all(
        np.array_equal(x.matrix, y.matrix)
        for x, y in zip(a.best_states.states, b.best_states.states)
    )
    c = optimize_pair(dephasing_channel(0.4), SearchConfig(num_states=2, restarts=2, iterations=60, seed=14))
    assert c.pair_count == a.pair_count


def test_restart_r_is_a_one_restart_run_seeded_seed_plus_r():
    # Random two-Kraus qutrit channels with a coarse support cutoff: no start
    # reaches the objective bound and the climb improves at seed-dependent
    # iterations, so the traces differ per restart (three distinct traces on
    # the second channel).
    for kraus_seed, eps in ((42, 0.2), (320, 0.1)):
        channel = random_channel(3, 2, np.random.default_rng(kraus_seed))
        cfg = dict(num_states=3, iterations=40, eps_support=eps)
        multi = optimize_pair(channel, SearchConfig(restarts=4, seed=5, **cfg))
        assert len(set(multi.history)) > 1
        solos = [
            optimize_pair(channel, SearchConfig(restarts=1, seed=5 + r, **cfg)) for r in range(4)
        ]
        for r, solo in enumerate(solos):
            assert multi.history[r] == solo.history[0]
        best = solos[multi.best_restart]
        assert all(
            np.array_equal(x.matrix, y.matrix)
            for x, y in zip(multi.best_states.states, best.best_states.states)
        )


def test_hill_climb_finds_the_pair_a_random_qubit_channel_admits():
    # No start reaches the bound here; the climb does, in both restarts.
    channel = random_channel(2, 2, np.random.default_rng(2201))
    cfg = SearchConfig(num_states=2, restarts=2, iterations=100, seed=1, eps_support=0.1)
    res = optimize_pair(channel, cfg)
    assert res.pair_count == 1 == res.objective_bound
    assert res.proposals > 0


def test_bitflip_search_finds_the_x_basis_pair():
    # |+> and |-> are fixed by both Kraus operators; only the S-start, the
    # eigenbasis of an element of S = span{I, X}, lines up with them.
    res = optimize_pair(bitflip_channel(0.1), SearchConfig(num_states=2, **SMALL))
    assert res.pair_count == 1
    assert res.alpha_1 == 2
    plus = np.full(2, 1 / math.sqrt(2))
    overlaps = sorted(float((plus @ st.matrix @ plus).real) for st in res.best_states.states)
    assert overlaps == pytest.approx([0.0, 1.0], abs=1e-12)


# ---------------------------------------------------------------------------
# The operator space S and the objective bound
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "channel, dim_s",
    [
        (identity_channel(3), 1),
        (dephasing_channel(0.5), 2),
        (bitflip_channel(0.1), 2),
        (depolarizing_channel(0.3), 4),
    ],
)
def test_operator_space_has_the_known_dimension_and_spans_every_product(channel, dim_s):
    basis = _operator_space(channel.kraus)
    assert len(basis) == dim_s
    flat = basis.reshape(dim_s, -1)
    assert np.allclose(flat.conj() @ flat.T, np.eye(dim_s), atol=1e-12)
    for a in channel.kraus:
        for b in channel.kraus:
            v = (a.conj().T @ b).reshape(-1)
            assert np.allclose(flat.T @ (flat.conj() @ v), v, atol=1e-12)


def test_the_search_score_is_the_graph_pair_count_or_minus_one_when_the_graph_is_refused():
    # Every start of seeded random channels, scored by the search's own
    # kernel, against the public graph of the same (states, POVM) pair.
    refused = counted = 0
    for seed in range(6):
        dim, kraus_count = 2 + seed % 2, 1 + seed % 3
        channel = random_channel(dim, kraus_count, np.random.default_rng(seed))
        for general in (False, True):
            outcomes = dim * dim if general else dim
            rng = np.random.default_rng(100 + seed)
            for cand in _starts(channel.kraus, dim, general, outcomes, lambda: rng):
                p = _prob_table(channel.kraus, cand, general, outcomes)
                states, povm = _ensemble(cand, general, False)
                for eps in (1e-9, 0.1, 0.5, 0.9):
                    score = _pair_count(p, eps)
                    try:
                        graph = confusability_graph(channel, states, povm, eps=eps)
                    except EmptySupportError:
                        assert score == -1
                        refused += 1
                    else:
                        assert score == non_adjacent_pair_count(graph)
                        counted += 1
    assert refused > 10 and counted > 10


def test_depolarizing_admits_no_pair_in_any_ensemble_as_the_bound_says():
    # lambda_min(C) = p/2 = 0.15 for every outcome count up to d^2 = 4.
    channel = depolarizing_channel(0.3)
    for outcomes in (2, 4):
        assert _objective_bound(channel.kraus, 2, 2, outcomes, DEFAULT_EPS) == 0.0
    for s in range(1000):
        states = random_pure_state_set(2, 2, seed=s)
        povm = random_general_povm(2, 4, seed=s) if s % 2 else random_projective_povm(2, seed=s)
        assert non_adjacent_pair_count(confusability_graph(channel, states, povm)) == 0


def test_depolarizing_below_the_cutoff_keeps_its_thresholded_pair():
    # lambda_min(C) = 5e-13 <= eps: the noise is invisible at this cutoff, so
    # the bound stays M(M-1)/2 and the computational pair is found.
    channel = depolarizing_channel(1e-12)
    res = optimize_pair(channel, SearchConfig(num_states=2, **SMALL))
    assert res.objective_bound == 1.0
    assert res.pair_count == 1
    assert _objective_bound(depolarizing_channel(1e-6).kraus, 2, 2, 2, DEFAULT_EPS) == 0.0


def test_a_restart_at_the_bound_records_a_flat_full_length_trace():
    res = optimize_pair(identity_channel(3), SearchConfig(num_states=3, restarts=3, iterations=50))
    assert res.objective_bound == 3.0
    assert res.proposals == 0
    assert res.history == ((3.0,) * 50,) * 3
    # The S-start ties with the computational start, which comes first.
    for j, st in enumerate(res.best_states.states):
        assert st.matrix[j, j] == 1.0


@pytest.mark.parametrize(
    "channel, cfg, stops_midway",
    [
        (identity_channel(3), SearchConfig(num_states=3, restarts=2, iterations=30), False),
        # Restart 3 reaches the bound part-way through its climb.
        (
            random_channel(2, 2, np.random.default_rng(1)),
            SearchConfig(num_states=2, restarts=4, iterations=60, seed=5, eps_support=0.1),
            True,
        ),
    ],
)
def test_stopping_at_the_bound_changes_no_result(monkeypatch, channel, cfg, stops_midway):
    stopped = optimize_pair(channel, cfg)
    bound = stopped.objective_bound
    assert any(h[0] < bound == h[-1] for h in stopped.history) == stops_midway
    monkeypatch.setattr(search, "_objective_bound", lambda *args: math.inf)
    full = optimize_pair(channel, cfg)
    assert full.proposals == cfg.restarts * cfg.iterations
    assert stopped.proposals < full.proposals
    assert stopped.history == full.history
    assert stopped.best_restart == full.best_restart
    assert stopped.pair_count == full.pair_count
    assert stopped.graph.edges == full.graph.edges
    assert all(
        np.array_equal(x.matrix, y.matrix)
        for x, y in zip(stopped.best_states.states, full.best_states.states)
    )
    assert all(
        np.array_equal(x, y) for x, y in zip(stopped.best_povm.elements, full.best_povm.elements)
    )


def test_history_tracks_best_so_far_monotonically():
    res = optimize_pair(dephasing_channel(0.5), SearchConfig(num_states=2, restarts=3, iterations=100, seed=2))
    assert len(res.history) == 3
    for trace in res.history:
        assert all(b >= a for a, b in zip(trace, trace[1:]))


def test_general_povm_search_runs_and_validates():
    cfg = SearchConfig(num_states=2, restarts=2, iterations=40, general_povm=True)
    res = optimize_pair(identity_channel(2), cfg)
    assert len(res.best_povm) == 4
    assert res.pair_count == 1
    assert np.allclose(sum(res.best_povm.elements), np.eye(2), atol=1e-9)


def test_overcomplete_search_needs_the_flag():
    with pytest.raises(DimensionMismatchError):
        optimize_pair(identity_channel(2), SearchConfig(num_states=3, **SMALL))
    res = optimize_pair(
        identity_channel(2),
        SearchConfig(num_states=3, restarts=2, iterations=80, allow_overcomplete=True),
    )
    # Three states in two dimensions: the best split is supports {0},{1},{0},
    # which the tiled computational start hits exactly.
    assert res.pair_count == 2
    assert len(res.best_states) == 3


def test_config_rejects_nonsense():
    with pytest.raises(ValueError):
        SearchConfig(num_states=1)
    with pytest.raises(ValueError):
        SearchConfig(num_states=2, restarts=0)


def test_a_search_that_never_draws_never_imports_numpy_random():
    # identity-d3 stops every restart at its computational start, and the
    # generator is made on the first draw, so numpy.random stays unloaded.
    code = (
        "import sys, numpy\n"
        "if 'numpy.random' in sys.modules:\n"
        "    print('preloaded')\n"
        "    raise SystemExit\n"
        "from zecap import SearchConfig, identity_channel, optimize_pair\n"
        "res = optimize_pair(identity_channel(3), SearchConfig(num_states=3))\n"
        "print(res.pair_count, res.proposals, 'numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.split() == ["preloaded"]:
        pytest.skip("import numpy alone loads numpy.random")
    assert proc.stdout.split() == ["3", "0", "False"]
