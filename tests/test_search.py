"""The (states, POVM) search: two deterministic starts, the better kept."""

from __future__ import annotations

import dataclasses
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
from zecap.search import _ensemble, _objective_bound, _operator_space, _s_start

from ensembles import (
    random_channel,
    random_general_povm,
    random_projective_povm,
    random_pure_state_set,
)


def purity(m: np.ndarray) -> float:
    return float(np.trace(m @ m).real)


def same_ensemble(a, b) -> bool:
    """Bit-identical states and POVM."""
    return a.best_states == b.best_states and a.best_povm == b.best_povm


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
    res = optimize_pair(identity_channel(2), SearchConfig(num_states=2))
    assert res.pair_count == 1
    assert res.alpha_1 == 2
    assert res.graph.edges == frozenset()


def test_identity_qutrit_distinguishes_all_pairs():
    res = optimize_pair(identity_channel(3), SearchConfig(num_states=3))
    assert res.pair_count == 3
    assert res.alpha_1 == 3


def test_fully_depolarizing_admits_nothing():
    res = optimize_pair(depolarizing_channel(1.0), SearchConfig(num_states=2))
    assert res.pair_count == 0
    assert res.alpha_1 == 1
    assert res.graph.edges == frozenset({(0, 1)})


def test_pentagon_channel_search_recovers_five_pairs():
    channel, _, _ = embed_classical(pentagon_matrix())
    res = optimize_pair(channel, SearchConfig(num_states=5))
    assert res.pair_count == 5
    assert res.alpha_1 == 2


def test_reported_graph_is_reproducible_from_the_result():
    res = optimize_pair(dephasing_channel(0.3), SearchConfig(num_states=2))
    rebuilt = confusability_graph(
        dephasing_channel(0.3), res.best_states, res.best_povm, eps=res.config.eps_support
    )
    assert rebuilt.edges == res.graph.edges
    assert rebuilt.supports == res.graph.supports
    assert non_adjacent_pair_count(rebuilt) == res.pair_count


def test_search_is_deterministic_for_a_seed():
    # Each of these reaches its S-start, the one draw from the seed.
    channels = [bitflip_channel(0.1), random_channel(3, 2, np.random.default_rng(5))]
    for channel in channels:
        for general in (False, True):
            cfg = SearchConfig(num_states=2, seed=13, general_povm=general)
            a, b = optimize_pair(channel, cfg), optimize_pair(channel, cfg)
            assert same_ensemble(a, b)
            assert (a.pair_count, a.alpha_1, a.graph) == (b.pair_count, b.alpha_1, b.graph)
    c = optimize_pair(bitflip_channel(0.1), SearchConfig(num_states=2, seed=14))
    assert c.pair_count == 1


def test_the_s_start_is_drawn_from_the_generator_seeded_seed():
    # The bit-flip channel's S-start beats its computational start, so the
    # result is the S-start of default_rng(seed), bit for bit.
    channel = bitflip_channel(0.1)
    for seed in (3, 4, 7):
        for general in (False, True):
            cfg = SearchConfig(num_states=2, seed=seed, general_povm=general)
            res = optimize_pair(channel, cfg)
            outcomes = 4 if general else 2
            cand = _s_start(channel.kraus, 2, general, outcomes, np.random.default_rng(seed))
            assert (res.best_states, res.best_povm) == _ensemble(cand, general, False)


def test_bitflip_search_finds_the_x_basis_pair():
    # |+> and |-> are fixed by both Kraus operators; only the S-start, the
    # eigenbasis of an element of S = span{I, X}, lines up with them.
    res = optimize_pair(bitflip_channel(0.1), SearchConfig(num_states=2))
    assert res.pair_count == 1
    assert res.alpha_1 == 2
    plus = np.full(2, 1 / math.sqrt(2))
    overlaps = sorted(float((plus @ st.matrix @ plus).real) for st in res.best_states.states)
    assert overlaps == pytest.approx([0.0, 1.0], abs=1e-12)


# Seeded random channels from tests/ensembles.py at the default cutoff:
# (i, d, K) for random_channel(d, K, default_rng(1000 + i)) searched with
# seed i, then (pair_count, alpha_1) at M = 2 and at M = d, the same under
# projective and general POVMs.  The 8-restart, 400-iteration hill climb
# that the search replaced gave exactly these values (and the same states
# and POVM).  A unitary channel (K = 1) is read perfectly in its S-start;
# with K >= 2 neither start separates a pair, although dim S = 4 <= 2d - 2
# proves one exists for d >= 3.
RANDOM_CHANNEL_PINS = [
    (0, 2, 1, (1, 2), (1, 2)),
    (1, 3, 1, (1, 2), (3, 3)),
    (2, 4, 1, (1, 2), (6, 4)),
    (3, 5, 1, (1, 2), (10, 5)),
    (4, 2, 2, (0, 1), (0, 1)),
    (5, 3, 2, (0, 1), (0, 1)),
    (6, 4, 2, (0, 1), (0, 1)),
    (7, 5, 2, (0, 1), (0, 1)),
    (8, 2, 3, (0, 1), (0, 1)),
    (9, 3, 3, (0, 1), (0, 1)),
    (10, 4, 3, (0, 1), (0, 1)),
    (11, 5, 3, (0, 1), (0, 1)),
    (12, 2, 1, (1, 2), (1, 2)),
    (13, 3, 1, (1, 2), (3, 3)),
    (14, 4, 1, (1, 2), (6, 4)),
    (15, 5, 1, (1, 2), (10, 5)),
    (16, 2, 2, (0, 1), (0, 1)),
    (17, 3, 2, (0, 1), (0, 1)),
    (18, 4, 2, (0, 1), (0, 1)),
    (19, 5, 2, (0, 1), (0, 1)),
]


@pytest.mark.parametrize(
    "i, dim, kraus_count, at_two, at_dim",
    RANDOM_CHANNEL_PINS,
    ids=[f"{i}-d{d}-K{k}" for i, d, k, _, _ in RANDOM_CHANNEL_PINS],
)
def test_pinned_pair_counts_on_seeded_random_channels(i, dim, kraus_count, at_two, at_dim):
    channel = random_channel(dim, kraus_count, np.random.default_rng(1000 + i))
    for general in (False, True):
        for m, want in ((2, at_two), (dim, at_dim)):
            res = optimize_pair(channel, SearchConfig(num_states=m, seed=i, general_povm=general))
            assert (res.pair_count, res.alpha_1) == want, (general, m)


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


def test_a_refused_start_scores_below_every_valid_one():
    # At eps = 0.9 the computational start of bitflip-p0.3 leaves every
    # state's support empty (0.7 and 0.3), so the graph refuses it; the
    # S-start reads the X basis with probabilities 1 and 0.
    channel = bitflip_channel(0.3)
    eye = np.eye(2, dtype=np.complex128)
    states, povm = _ensemble((eye, eye), False, False)
    with pytest.raises(EmptySupportError):
        confusability_graph(channel, states, povm, eps=0.9)
    res = optimize_pair(channel, SearchConfig(num_states=2, eps_support=0.9))
    assert res.pair_count == 1 == res.objective_bound
    assert res.graph.supports == (frozenset({0}), frozenset({1}))


def test_a_search_whose_starts_are_both_refused_raises_the_first_refusal():
    # Every state through depolarizing-p0.3 puts 0.85 on its likeliest outcome.
    with pytest.raises(EmptySupportError, match="for state 0 "):
        optimize_pair(depolarizing_channel(0.3), SearchConfig(num_states=2, eps_support=0.9))


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
    res = optimize_pair(channel, SearchConfig(num_states=2))
    assert res.objective_bound == 1.0
    assert res.pair_count == 1
    assert _objective_bound(depolarizing_channel(1e-6).kraus, 2, 2, 2, DEFAULT_EPS) == 0.0


def test_a_computational_start_at_the_bound_is_kept_and_no_s_start_is_drawn(monkeypatch):
    def no_s_start(*args):
        raise AssertionError("the S-start was reached")

    monkeypatch.setattr(search, "_s_start", no_s_start)
    res = optimize_pair(identity_channel(3), SearchConfig(num_states=3))
    assert res.objective_bound == 3.0 == res.pair_count
    for j, st in enumerate(res.best_states.states):
        assert st.matrix[j, j] == 1.0


@pytest.mark.parametrize(
    "channel, cfg",
    [
        (identity_channel(3), SearchConfig(num_states=3)),
        (identity_channel(2), SearchConfig(num_states=2, general_povm=True)),
        (dephasing_channel(0.5), SearchConfig(num_states=2)),
        # The bound is 0 here, which the computational start's 0 pairs reach.
        (depolarizing_channel(1.0), SearchConfig(num_states=2)),
    ],
)
def test_stopping_at_the_bound_changes_no_result(monkeypatch, channel, cfg):
    # Without the bound the S-start is scored too, and ties with the
    # computational start, which comes first and is kept.
    stopped = optimize_pair(channel, cfg)
    assert stopped.pair_count == stopped.objective_bound
    monkeypatch.setattr(search, "_objective_bound", lambda *args: math.inf)
    full = optimize_pair(channel, cfg)
    assert same_ensemble(stopped, full)
    assert stopped.graph == full.graph
    assert (stopped.pair_count, stopped.alpha_1) == (full.pair_count, full.alpha_1)


def test_general_povm_search_runs_and_validates():
    cfg = SearchConfig(num_states=2, general_povm=True)
    res = optimize_pair(identity_channel(2), cfg)
    assert len(res.best_povm) == 4
    assert res.pair_count == 1
    assert np.allclose(sum(res.best_povm.elements), np.eye(2), atol=1e-9)


def test_overcomplete_search_needs_the_flag():
    with pytest.raises(DimensionMismatchError):
        optimize_pair(identity_channel(2), SearchConfig(num_states=3))
    res = optimize_pair(identity_channel(2), SearchConfig(num_states=3, allow_overcomplete=True))
    # Three states in two dimensions: the best split is supports {0},{1},{0},
    # which the tiled computational start hits exactly.
    assert res.pair_count == 2
    assert len(res.best_states) == 3


def test_config_rejects_nonsense():
    with pytest.raises(ValueError):
        SearchConfig(num_states=1)


def test_restarts_and_iterations_are_constants_not_fields():
    # The benchmark harness reads them; the search makes one run of no proposals.
    names = {f.name for f in dataclasses.fields(SearchConfig)}
    assert names == {"num_states", "seed", "eps_support", "general_povm", "allow_overcomplete"}
    cfg = SearchConfig(num_states=2)
    assert (cfg.restarts, cfg.iterations) == (1, 0)
    with pytest.raises(TypeError):
        SearchConfig(num_states=2, restarts=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.restarts = 3


@pytest.mark.parametrize("eps", [math.nan, 0.0, -1e-9])
def test_config_rejects_an_eps_support_that_is_not_positive(eps):
    # Under NaN every start would score -1 and the search would only fail
    # when the graph refused the cutoff.
    with pytest.raises(ValueError, match=f"^eps must be positive, got {eps!r}$"):
        SearchConfig(num_states=2, eps_support=eps)


def test_a_search_that_never_draws_never_imports_numpy_random():
    # identity-d3 stops at its computational start, and the generator is
    # made only for the S-start, so numpy.random stays unloaded.
    code = (
        "import sys, numpy\n"
        "if 'numpy.random' in sys.modules:\n"
        "    print('preloaded')\n"
        "    raise SystemExit\n"
        "from zecap import SearchConfig, identity_channel, optimize_pair\n"
        "res = optimize_pair(identity_channel(3), SearchConfig(num_states=3))\n"
        "print(res.pair_count, 'numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.split() == ["preloaded"]:
        pytest.skip("import numpy alone loads numpy.random")
    assert proc.stdout.split() == ["3", "False"]
