"""Builtin channel families and the exact classical embedding."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from zecap import (
    apply_channel,
    basis_state,
    bitflip_channel,
    builtin_spec,
    dephasing_channel,
    depolarizing_channel,
    embed_classical,
    identity_channel,
    outcome_probabilities,
    pentagon_matrix,
    pure_state,
    validate_povm,
)
from zecap import channels
from zecap.errors import NotStochasticError, SizeLimitError, ValidationError
from zecap.formats import parse_channel_spec

from ensembles import random_density_matrix

Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


# ---------------------------------------------------------------------------
# Qubit families
# ---------------------------------------------------------------------------


def test_identity_channel_single_kraus():
    ch = identity_channel(3)
    assert ch.dim == 3 and len(ch.kraus) == 1
    assert np.array_equal(ch.kraus[0], np.eye(3))


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_depolarizing_action_matches_closed_form(p):
    ch = depolarizing_channel(p)
    rho = random_density_matrix(2, np.random.default_rng(1))
    out = apply_channel(ch, rho)
    want = (1.0 - p) * rho.matrix + p * np.eye(2) / 2.0
    assert np.allclose(out.matrix, want, atol=1e-12)


def test_full_depolarizing_forgets_the_input():
    out = apply_channel(depolarizing_channel(1.0), basis_state(2, 0))
    assert np.allclose(out.matrix, np.eye(2) / 2.0, atol=1e-12)


def test_half_dephasing_kraus_are_scaled_i_and_z():
    ch = dephasing_channel(0.5)
    assert np.allclose(ch.kraus[0], np.sqrt(0.5) * np.eye(2), atol=1e-15)
    assert np.allclose(ch.kraus[1], np.sqrt(0.5) * Z, atol=1e-15)


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.9])
def test_dephasing_scales_coherences_by_one_minus_two_p(p):
    plus = pure_state(np.array([1.0, 1.0]))
    out = apply_channel(dephasing_channel(p), plus)
    assert out.matrix[0, 1] == pytest.approx(0.5 * (1.0 - 2.0 * p), abs=1e-12)
    assert out.matrix[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_bitflip_flips_with_probability_p():
    out = apply_channel(bitflip_channel(0.3), basis_state(2, 0))
    assert np.allclose(out.matrix, np.diag([0.7, 0.3]), atol=1e-12)


@pytest.mark.parametrize("ctor", [depolarizing_channel, dephasing_channel, bitflip_channel])
def test_noise_parameter_range_is_enforced(ctor):
    with pytest.raises(ValidationError):
        ctor(-0.1)
    with pytest.raises(ValidationError):
        ctor(1.1)


# ---------------------------------------------------------------------------
# Pentagon and classical embedding
# ---------------------------------------------------------------------------


def test_pentagon_matrix_shape():
    w = pentagon_matrix()
    assert w.shape == (5, 5)
    assert np.allclose(w.sum(axis=1), 1.0)
    for i in range(5):
        assert w[i, i] == 0.5 and w[i, (i + 1) % 5] == 0.5
        assert np.count_nonzero(w[i]) == 2


def test_embedding_reproduces_the_pentagon_rows_exactly():
    w = pentagon_matrix()
    channel, states, povm = embed_classical(w)
    assert channel.dim == 5 and len(states) == 5 and len(povm) == 5
    for i, s in enumerate(states.states):
        p = outcome_probabilities(channel, s, povm)
        assert np.abs(p - w[i]).max() <= 1e-12


def test_embedding_reproduces_w_to_one_rounding():
    # p(j|i) is sqrt(W[i, j])^2 in float64: the pentagon's 1/2 rounds up,
    # a third comes back exact.
    channel, states, povm = embed_classical(pentagon_matrix())
    p = outcome_probabilities(channel, states.states[0], povm)
    assert p[0] == np.sqrt(0.5) ** 2 == 0.5000000000000001
    w = np.zeros((3, 3))
    w[:, 0] = w[:, 1] = w[:, 2] = 1.0 / 3.0
    channel, states, povm = embed_classical(w)
    assert outcome_probabilities(channel, states.states[1], povm).tolist() == [1.0 / 3.0] * 3


def test_embedding_is_exact_on_random_stochastic_matrices():
    rng = np.random.default_rng(42)
    for _ in range(50):
        m_in = int(rng.integers(2, 6))
        n_out = int(rng.integers(2, 7))
        w = rng.random((m_in, n_out))
        w[rng.random((m_in, n_out)) < 0.3] = 0.0
        w[w.sum(axis=1) == 0.0, 0] = 1.0
        w /= w.sum(axis=1, keepdims=True)
        channel, states, povm = embed_classical(w)
        dim = max(m_in, n_out)
        assert channel.dim == dim
        for i, s in enumerate(states.states):
            p = outcome_probabilities(channel, s, povm)
            padded = np.zeros(dim)
            padded[:n_out] = w[i]
            assert np.abs(p - padded).max() <= 1e-12


def test_embedding_rejects_non_stochastic_rows():
    with pytest.raises(NotStochasticError) as exc:
        embed_classical(np.array([[0.5, 0.4], [0.5, 0.5]]))
    assert exc.value.row == 0
    with pytest.raises(NotStochasticError):
        embed_classical(np.array([[1.5, -0.5], [0.5, 0.5]]))
    with pytest.raises(ValidationError):
        embed_classical(np.zeros((0, 2)))
    # NaN fails every comparison, so "min < 0 or |sum - 1| > tol" let it pass.
    for w, row in (([[np.nan, 1.0], [0.0, 1.0]], 0), ([[0.0, 1.0], [1.0, np.nan]], 1)):
        with pytest.raises(NotStochasticError) as exc:
            embed_classical(np.array(w))
        assert exc.value.row == row


def _loop_kraus(w):
    # One dense matrix per operator, by input, then output, then padded
    # input, stacked afterwards.
    m_in, n_out = w.shape
    dim = max(m_in, n_out)
    ops = []
    for i in range(m_in):
        for j in range(n_out):
            if w[i, j] > 0.0:
                k = np.zeros((dim, dim), dtype=np.complex128)
                k[j, i] = np.sqrt(w[i, j])
                ops.append(k)
    for i in range(m_in, dim):
        k = np.zeros((dim, dim), dtype=np.complex128)
        k[i, i] = 1.0
        ops.append(k)
    return np.array(ops)


def test_embedding_stack_has_the_bytes_of_one_matrix_per_operator():
    rng = np.random.default_rng(4401)
    cases = [pentagon_matrix(), np.eye(3), np.array([[1.0]])]
    for _ in range(60):
        m_in, n_out = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        w = rng.random((m_in, n_out))
        w[rng.random((m_in, n_out)) < 0.4] = 0.0
        w[w.sum(axis=1) == 0.0, 0] = 1.0
        cases.append(w / w.sum(axis=1, keepdims=True))
    for case, w in enumerate(cases):
        channel, _, _ = embed_classical(w)
        assert channel.kraus.tobytes() == _loop_kraus(w).tobytes(), case
        assert not channel.kraus.flags.writeable, case


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_embedding_builds_its_stack_once():
    # A dense 32 x 32 W has 1,024 operators of 32 x 32: a 16 MiB stack.
    # One matrix per operator and a stacked copy of them would peak at twice that.
    (channel, _, _), peak = _traced_peak(embed_classical, np.full((32, 32), 1.0 / 32))
    assert channel.kraus.nbytes == 32**4 * 16
    assert peak < 1.25 * channel.kraus.nbytes


def test_embedding_refuses_a_stack_past_the_cap_before_building_it(monkeypatch):
    # A dense 65 x 65 W: 4,225 operators of 65 x 65, 285,610,000 bytes.
    message = f"^285610000 bytes of Kraus operators exceeds the limit of {channels.KRAUS_BYTES_CAP}$"
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match=message):
            embed_classical(np.full((65, 65), 1.0 / 65))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # The cap is inclusive: a dense 4 x 4 W's stack is 16 * 16 * 16 bytes.
    w = np.full((4, 4), 0.25)
    monkeypatch.setattr(channels, "KRAUS_BYTES_CAP", 4096)
    assert embed_classical(w)[0].kraus.nbytes == 4096
    monkeypatch.setattr(channels, "KRAUS_BYTES_CAP", 4095)
    with pytest.raises(SizeLimitError, match="^4096 bytes of Kraus operators exceeds the limit of 4095$"):
        embed_classical(w)


def test_channels_of_one_dimension_with_different_kraus_counts_are_unequal():
    pentagon, _, povm5 = embed_classical(pentagon_matrix())
    identity = identity_channel(5)
    assert pentagon.dim == identity.dim == 5
    assert (len(pentagon.kraus), len(identity.kraus)) == (10, 1)
    assert pentagon != identity and identity != pentagon
    assert pentagon == embed_classical(pentagon_matrix())[0]
    assert povm5 != validate_povm([np.eye(5) / 4] * 4)  # 5 and 4 outcomes in dimension 5


# ---------------------------------------------------------------------------
# Builtin specs
# ---------------------------------------------------------------------------


def test_builtin_specs_round_trip_through_the_parser():
    for name, dim, source in [
        ("identity-d3", 3, "kraus"),
        ("depolarizing-p0.25", 2, "kraus"),
        ("dephasing-p0.5", 2, "kraus"),
        ("bitflip-p0.1", 2, "kraus"),
        ("pentagon", 5, "classical_matrix"),
    ]:
        spec = parse_channel_spec(builtin_spec(name))
        assert spec.name == name
        assert spec.channel.dim == dim
        assert spec.source == source


def test_builtin_pentagon_carries_the_matrix():
    doc = builtin_spec("pentagon")
    assert np.allclose(doc["classical_matrix"], pentagon_matrix())
    assert "kraus" not in doc


def test_builtin_rejects_unknown_names_and_bad_params():
    for bad in ("unknown", "identity-dx", "identity-d0", "depolarizing-p2.0", "dephasing-pabc"):
        with pytest.raises(KeyError):
            builtin_spec(bad)
