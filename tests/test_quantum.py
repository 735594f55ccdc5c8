"""Validators, channel application, and measurement statistics."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from zecap import (
    DensityMatrix,
    StateSet,
    Povm,
    QuantumChannel,
    apply_channel,
    basis_state,
    bitflip_channel,
    dephasing_channel,
    depolarizing_channel,
    embed_classical,
    identity_channel,
    outcome_probabilities,
    pentagon_matrix,
    pure_state,
    validate_channel,
    validate_povm,
    validate_state,
)
from zecap.errors import (
    DimensionMismatchError,
    InvalidProbabilitiesError,
    NotHermitianError,
    NotPsdError,
    NotTracePreservingError,
    PovmIncompleteError,
    TraceNotOneError,
    ValidationError,
)
from zecap import quantum

from ensembles import haar_unitary, random_channel, random_density_matrix, random_general_povm
from invariants import check_probability_normalization, check_trace_preservation
from oracles import kraus_output, povm_traces

PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def computational_povm(dim: int):
    eye = np.eye(dim, dtype=np.complex128)
    return validate_povm([np.outer(eye[:, j], eye[:, j]) for j in range(dim)])


# ---------------------------------------------------------------------------
# validate_state
# ---------------------------------------------------------------------------


def test_validate_state_accepts_mixed_and_pure():
    assert validate_state(np.eye(2) / 2).dim == 2
    assert validate_state(np.array([[1.0, 0.0], [0.0, 0.0]])).dim == 2


def test_validate_state_rejects_negative_eigenvalue():
    with pytest.raises(NotPsdError) as exc:
        validate_state(np.diag([1.001, -0.001]))
    assert exc.value.min_eigenvalue < 0


def test_validate_state_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        validate_state(np.array([[0.6, 0.3], [0.2, 0.4]]))


def test_validate_state_rejects_bad_trace():
    with pytest.raises(TraceNotOneError) as exc:
        validate_state(np.diag([0.6, 0.6]))
    assert exc.value.actual == pytest.approx(1.2)


def test_validate_state_rejects_non_square_and_non_finite():
    with pytest.raises(ValidationError):
        validate_state(np.zeros((3, 2)))
    bad = np.eye(2, dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValidationError):
        validate_state(bad)


def test_validated_arrays_are_frozen():
    rho = validate_state(np.eye(2) / 2)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0
    # A channel's Kraus operators and a POVM's elements are each one
    # C-ordered complex128 (count, d, d) stack.
    channel = validate_channel([np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * Z])
    povm = validate_povm([np.eye(3) / 3] * 3)
    for stack, shape in ((channel.kraus, (2, 2, 2)), (povm.elements, (3, 3, 3))):
        assert stack.shape == shape and stack.dtype == np.complex128
        assert stack.flags.c_contiguous
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 9.0


def test_wrappers_copy_a_read_only_array_the_caller_owns():
    # The caller can make an array that owns its memory writeable again, so
    # a wrapper that kept it would change, and its caches go stale, with it.
    state = np.eye(2, dtype=np.complex128) / 2
    kraus = np.array([np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * Z], dtype=np.complex128)
    elements = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=np.complex128)
    for a in (state, kraus, elements):
        a.setflags(write=False)
        assert a.flags.owndata and a.flags.c_contiguous
    wrapped = [
        (validate_state(state).matrix, state),
        (DensityMatrix(dim=2, matrix=state).matrix, state),
        (validate_channel(kraus).kraus, kraus),
        (QuantumChannel(dim=2, kraus=kraus).kraus, kraus),
        (validate_povm(elements).elements, elements),
        (Povm(dim=2, elements=elements).elements, elements),
    ]
    for got, own in wrapped:
        assert not np.shares_memory(got, own)


@pytest.mark.parametrize(
    "build",
    [
        lambda: DensityMatrix(dim=3, matrix=np.eye(2) / 2),
        lambda: QuantumChannel(dim=3, kraus=np.eye(2)[None]),
        lambda: Povm(dim=3, elements=np.eye(2)[None]),
        lambda: DensityMatrix(dim=2, matrix=np.eye(2)[None]),
        lambda: QuantumChannel(dim=2, kraus=np.zeros((0, 2, 2))),
        lambda: DensityMatrix(dim=2.0, matrix=np.eye(2) / 2),
    ],
    ids=["state-dim", "channel-dim", "povm-dim", "state-3d", "empty-stack", "float-dim"],
)
def test_wrappers_refuse_a_dim_their_array_contradicts(build):
    # Construction does not validate the contents, but a shape that
    # contradicts dim would otherwise surface later as numpy's bare matmul
    # ValueError.
    with pytest.raises(DimensionMismatchError):
        build()


def test_wrappers_store_an_integer_dim_as_a_python_int():
    rho = DensityMatrix(dim=np.int64(2), matrix=np.eye(2) / 2)
    assert type(rho.dim) is int and rho.dim == 2


# ---------------------------------------------------------------------------
# validate_channel / validate_povm
# ---------------------------------------------------------------------------


def test_validate_channel_identity_and_depolarizing_kraus():
    assert validate_channel([np.eye(3, dtype=complex)]).dim == 3
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    ops = [0.5 * np.eye(2, dtype=complex), 0.5 * x, 0.5 * y, 0.5 * Z]
    assert len(validate_channel(ops).kraus) == 4


def test_validate_channel_rejects_non_tp():
    with pytest.raises(NotTracePreservingError) as exc:
        validate_channel([2.0 * np.eye(2, dtype=complex)])
    assert exc.value.deviation > 1.0


def test_validate_channel_rejects_mixed_dims_and_empty():
    with pytest.raises(DimensionMismatchError):
        validate_channel([np.eye(2, dtype=complex), np.eye(3, dtype=complex)])
    with pytest.raises(ValidationError):
        validate_channel([])


def test_validate_povm_accepts_plus_minus_basis():
    plus = np.outer(PLUS, PLUS)
    minus = np.eye(2) - plus
    povm = validate_povm([plus, minus])
    assert povm.dim == 2 and len(povm) == 2


def _offdiag(delta: float) -> np.ndarray:
    return np.array([[0.0, delta], [0.0, 0.0]])


# Each builder puts a deviation of exactly ``delta`` into one check, in that
# check's norm, and leaves every other check satisfied.
THRESHOLD_CASES = [
    pytest.param(
        NotHermitianError,
        lambda d: validate_state(np.eye(2) / 2 + _offdiag(d)),
        id="state-hermiticity",
    ),
    pytest.param(NotPsdError, lambda d: validate_state(np.diag([1.0 + d, -d])), id="state-psd"),
    pytest.param(
        TraceNotOneError, lambda d: validate_state(np.diag([0.5, 0.5 + d])), id="state-trace"
    ),
    pytest.param(
        NotTracePreservingError,
        lambda d: validate_channel([np.diag([np.sqrt(1.0 + d), 1.0])]),
        id="channel-trace-preservation",
    ),
    pytest.param(
        NotHermitianError,
        lambda d: validate_povm(
            [np.diag([1.0, 0.0]) + _offdiag(d), np.diag([0.0, 1.0]) - _offdiag(d)]
        ),
        id="povm-hermiticity",
    ),
    pytest.param(
        NotPsdError,
        lambda d: validate_povm([np.diag([1.0 + d, 1.0]), np.diag([-d, 0.0])]),
        id="povm-psd",
    ),
    pytest.param(
        PovmIncompleteError,
        lambda d: validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0 + d])]),
        id="povm-completeness",
    ),
]


@pytest.mark.parametrize("error, build", THRESHOLD_CASES)
def test_every_validation_check_uses_an_absolute_tolerance_of_1e_9(error, build):
    build(5e-10)
    with pytest.raises(error) as exc:
        build(2e-9)
    assert "1.0e-09" in str(exc.value)


def test_validate_povm_rejects_incomplete_and_negative():
    with pytest.raises(PovmIncompleteError):
        validate_povm([np.diag([1.0, 0.5])])
    with pytest.raises(NotPsdError):
        validate_povm([np.diag([1.0, -0.1]), np.diag([0.0, 1.1])])
    with pytest.raises(DimensionMismatchError):
        validate_povm([np.eye(2, dtype=complex), np.eye(3, dtype=complex)])


def test_validate_povm_checks_its_element_stack_in_one_call(monkeypatch):
    # One Hermitian-and-PSD check runs on the whole (N, d, d) stack, and a
    # bad element anywhere in it keeps its error type and its deviation.
    require = quantum._require_hermitian_psd
    shapes = []

    def recorded(m):
        shapes.append(m.shape)
        return require(m)

    monkeypatch.setattr(quantum, "_require_hermitian_psd", recorded)
    basis = [np.diag(row) for row in np.eye(3)]
    validate_povm(basis)
    assert shapes == [(3, 3, 3)]
    for k in range(3):
        skewed = basis[:k] + [basis[k] + 0.1 * np.eye(3, k=1)] + basis[k + 1 :]
        with pytest.raises(NotHermitianError) as exc:
            validate_povm(skewed)
        assert exc.value.deviation == pytest.approx(0.1)
        negative = basis[:k] + [basis[k] - 0.1 * np.eye(3)] + basis[k + 1 :]
        with pytest.raises(NotPsdError) as exc:
            validate_povm(negative)
        assert exc.value.min_eigenvalue == pytest.approx(-0.1)


# ---------------------------------------------------------------------------
# apply_channel / outcome_probabilities
# ---------------------------------------------------------------------------


def test_identity_channel_is_a_fixed_point():
    rng = np.random.default_rng(5)
    channel = validate_channel([np.eye(3, dtype=complex)])
    rho = random_density_matrix(3, rng)
    out = apply_channel(channel, rho)
    assert np.allclose(out.matrix, rho.matrix, atol=1e-12)


def test_full_depolarizing_sends_everything_to_mixed():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    ops = [0.5 * np.eye(2, dtype=complex), 0.5 * x, 0.5 * y, 0.5 * Z]
    channel = validate_channel(ops)
    out = apply_channel(channel, basis_state(2, 0))
    assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_half_dephasing_kills_plus_state_coherence():
    channel = validate_channel([np.sqrt(0.5) * np.eye(2, dtype=complex), np.sqrt(0.5) * Z])
    out = apply_channel(channel, pure_state(PLUS))
    assert np.allclose(out.matrix, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)


def test_outcome_probabilities_computational_cases():
    channel = validate_channel([np.eye(2, dtype=complex)])
    p = outcome_probabilities(channel, basis_state(2, 0), computational_povm(2))
    assert p.dtype == np.float64
    assert np.allclose(p, [1.0, 0.0], atol=1e-12)


def test_outcome_probabilities_dephased_plus_under_pm_basis():
    channel = validate_channel([np.sqrt(0.5) * np.eye(2, dtype=complex), np.sqrt(0.5) * Z])
    plus = np.outer(PLUS, PLUS)
    povm = validate_povm([plus, np.eye(2) - plus])
    p = outcome_probabilities(channel, pure_state(PLUS), povm)
    assert np.allclose(p, [0.5, 0.5], atol=1e-12)


def test_outcome_probabilities_rejects_dimension_mixups():
    channel = validate_channel([np.eye(2, dtype=complex)])
    with pytest.raises(DimensionMismatchError):
        outcome_probabilities(channel, basis_state(3, 0), computational_povm(2))
    with pytest.raises(DimensionMismatchError):
        outcome_probabilities(channel, basis_state(2, 0), computational_povm(3))


def test_stacked_kernels_match_the_loop_oracles(monkeypatch):
    # apply_channel and outcome_probabilities each run one stacked
    # contraction; the oracles sum every term by hand, in complex arithmetic.
    # N runs from 2 to d^2, so POVMs with more outcomes than dimensions are
    # covered.  Each case is also run on real data, which takes the float64
    # channel product.
    exact_real = quantum._exact_real
    took_real = []

    def recorded(a):
        out = exact_real(a)
        took_real.append(out is not None)
        return out

    monkeypatch.setattr(quantum, "_exact_real", recorded)
    rng = np.random.default_rng(4242)
    tol = 16 * np.finfo(float).eps
    overcomplete = 0
    for case in range(120):
        dim = int(rng.integers(2, 6))
        channel = random_channel(dim, int(rng.integers(1, 5)), rng)
        state = random_density_matrix(dim, rng)
        outcomes = int(rng.integers(2, dim * dim + 1))
        povm = random_general_povm(dim, outcomes, seed=4242 + case)
        overcomplete += outcomes > dim
        # The real parts of a state and of a POVM are again a state and a
        # POVM; a QR of the stacked Kraus operators' real part gives a real
        # isometry, so a real channel.
        q, _ = np.linalg.qr(np.concatenate([k.real for k in channel.kraus]))
        real = (
            validate_channel(np.split(q, len(channel.kraus))),
            validate_state(state.matrix.real),
            validate_povm([e.real for e in povm.elements]),
        )
        for is_real, (channel, state, povm) in [(False, (channel, state, povm)), (True, real)]:
            took_real.clear()
            sigma = kraus_output(channel.kraus, state.matrix)
            got = apply_channel(channel, state).matrix
            assert np.max(np.abs(got - sigma)) <= tol, case
            p = outcome_probabilities(channel, state, povm)
            want = povm_traces(sigma, povm.elements)
            assert np.max(np.abs(p - want.real)) <= tol, case
            assert took_real and set(took_real) == {is_real}, case
    assert overcomplete >= 40


def _reference_outcome_probabilities(channel, state, povm):
    # The distribution spelled out as a complex128 channel output (the
    # float64 product cast to complex when channel and state are exactly
    # real), one complex product with the element stack, every check, and
    # np.clip.
    ks, m = channel.kraus, state.matrix
    if not ks.imag.any() and not m.imag.any():
        real_ks = ks.real.copy()
        sigma = (real_ks @ m.real.copy() @ real_ks.transpose(0, 2, 1)).sum(axis=0)
        sigma = sigma.astype(np.complex128)
    else:
        sigma = (ks @ m @ ks.conj().transpose(0, 2, 1)).sum(axis=0)
    raw = povm.elements.reshape(len(povm), -1) @ sigma.T.ravel()
    if float(np.max(np.abs(raw.imag))) > 1e-9:
        raise InvalidProbabilitiesError("imaginary")
    p = raw.real.astype(np.float64)
    if float(p.min()) < -1e-9 or float(p.max()) > 1.0 + 1e-9 or abs(float(p.sum()) - 1.0) > 1e-9:
        raise InvalidProbabilitiesError("range or sum")
    return np.clip(p, 0.0, 1.0)


def _real_channel(channel):
    # A QR of the stacked Kraus operators' real part is a real isometry.
    q, _ = np.linalg.qr(np.concatenate([k.real for k in channel.kraus]))
    return validate_channel(np.split(q, len(channel.kraus)))


@pytest.mark.parametrize(
    "real_channel, real_state, real_povm",
    [(True, True, True), (False, False, False), (True, True, False), (True, False, True)],
    ids=["all-real", "all-complex", "real-kraus-complex-povm", "complex-state-real-channel"],
)
def test_outcome_probabilities_equal_the_reference_bit_for_bit(real_channel, real_state, real_povm):
    rng = np.random.default_rng(2901)
    for case in range(60):
        dim = int(rng.integers(1, 6))
        channel = random_channel(dim, int(rng.integers(1, 5)), rng)
        state = random_density_matrix(dim, rng)
        povm = random_general_povm(dim, int(rng.integers(1, dim * dim + 2)), seed=2901 + case)
        if real_channel:
            channel = _real_channel(channel)
        if real_state:
            state = validate_state(state.matrix.real)
        if real_povm:
            povm = validate_povm([e.real for e in povm.elements])
        if case % 3 == 0:
            # Diagonal states and POVMs, as in a classical embedding: most
            # products are exact zeros.
            state = validate_state(np.diag(np.diag(state.matrix).real))
            povm = validate_povm([np.diag(np.diag(e)).real for e in povm.elements])
        got = outcome_probabilities(channel, state, povm)
        want = _reference_outcome_probabilities(channel, state, povm)
        assert got.dtype == want.dtype and got.shape == want.shape, case
        assert got.tobytes() == want.tobytes(), case


def test_a_states_cached_realness_does_not_leak_between_channels(monkeypatch):
    # One state object measured under a real channel and then a complex one,
    # and a fresh one in the reverse order: each channel product runs in
    # float64 exactly when channel and state are real, and each distribution
    # and channel output equals the one recomputed from the bare matrices.
    took_float = []

    def recording(fn):
        def recorded(channel, arg):
            out = fn(channel, arg)
            took_float.append((fn.__name__, out.dtype == np.float64))
            return out

        return recorded

    # The state entry and the Kronecker path's bare-matrix entry each decide
    # the dtype for themselves.
    for name in ("_kraus_sum", "_apply_kraus"):
        monkeypatch.setattr(quantum, name, recording(getattr(quantum, name)))
    rng = np.random.default_rng(4107)
    for case in range(20):
        dim = int(rng.integers(1, 5))
        complex_channel = random_channel(dim, int(rng.integers(1, 4)), rng)
        real_channel = _real_channel(complex_channel)
        povm = random_general_povm(dim, int(rng.integers(1, dim * dim + 2)), seed=4107 + case)
        matrix = random_density_matrix(dim, rng).matrix
        if case % 2:
            matrix = matrix.real
        real_state = not np.imag(matrix).any()  # a 1 x 1 state is real either way
        for order in ((real_channel, complex_channel), (complex_channel, real_channel)):
            state = validate_state(matrix)
            for channel in order + order:
                took_float.clear()
                got = outcome_probabilities(channel, state, povm)
                want = _reference_outcome_probabilities(channel, state, povm)
                assert got.tobytes() == want.tobytes(), case
                out = validate_state(quantum._apply_kraus(channel, state.matrix)).matrix
                assert apply_channel(channel, state).matrix.tobytes() == out.tobytes(), case
                real = channel is real_channel and real_state
                assert took_float == [("_kraus_sum", real), ("_apply_kraus", real), ("_kraus_sum", real)], case


def test_a_nan_state_gives_the_reference_distribution():
    # A directly constructed (never validated) state with a NaN entry: no
    # check refuses a NaN, so the distribution is the reference's, NaNs and
    # all, on the float64 path and on the complex one.
    nan_state = DensityMatrix(dim=2, matrix=np.array([[0.5, np.nan], [np.nan, 0.5]]))
    y_plus = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    for channel in (validate_channel([np.eye(2)]), validate_channel([1j * np.eye(2)])):
        for povm in (computational_povm(2), validate_povm([y_plus, np.eye(2) - y_plus])):
            got = outcome_probabilities(channel, nan_state, povm)
            want = _reference_outcome_probabilities(channel, nan_state, povm)
            assert np.isnan(got).any()
            assert got.tobytes() == want.tobytes()


def test_a_negative_zero_probability_survives_the_checks():
    # No BLAS product yields -0.0 (its sums start at +0.0), so the traces are
    # given directly: -0.0 comes back as -0.0 whether the vector is returned
    # as it is or clipped, as np.clip would return it.
    for raw in ([-0.0, 0.25, 0.75], [-0.0, -1e-12, 1.0 + 1e-12]):
        raw = np.array(raw, dtype=np.complex128)
        for check_imag in (True, False):
            got = quantum._checked_distribution(raw, check_imag)
            assert np.signbit(got[0]) and got[0] == 0.0
            assert got.tobytes() == np.clip(raw.real, 0.0, 1.0).tobytes()


def test_the_imaginary_part_check_still_fires_on_a_complex_output():
    # Unvalidated, non-Hermitian: each diagonal entry, so each trace with a
    # computational POVM element, has imaginary part 0.1.  A real channel and
    # a real POVM do not skip the check while the state is complex.
    bad = DensityMatrix(dim=2, matrix=np.diag([0.5 + 0.1j, 0.5 - 0.1j]))
    povm = computational_povm(2)
    for channel in (validate_channel([np.eye(2)]), validate_channel([1j * np.eye(2)])):
        with pytest.raises(InvalidProbabilitiesError, match="imaginary part up to 1.000e-01"):
            outcome_probabilities(channel, bad, povm)
    # A real (but non-symmetric) state through a real channel, measured with
    # a complex POVM: the float64 output does not skip the check either.
    y_plus = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    complex_povm = validate_povm([y_plus, np.eye(2) - y_plus])
    skew = DensityMatrix(dim=2, matrix=np.array([[0.5, 0.3], [0.1, 0.5]]))
    with pytest.raises(InvalidProbabilitiesError, match="imaginary part"):
        outcome_probabilities(validate_channel([np.eye(2)]), skew, complex_povm)


# ---------------------------------------------------------------------------
# Matrix-unit Kraus stacks (classical embeddings)
# ---------------------------------------------------------------------------


def _batched(channel, state):
    return quantum._batched_kraus_sum(channel, state.matrix, state._real_matrix)


def _classical_channels(seed: int, count: int):
    # Seeded embeddings with padded inputs both ways (m_in < n_out pads
    # inputs, m_in > n_out pads outputs), zero entries, several inputs per
    # output, and every other stack with some coefficients negated.
    rng = np.random.default_rng(seed)
    shapes = [(3, 6), (6, 3), (4, 4), (7, 14), (1, 5), (5, 1)]
    for case in range(count):
        m_in, n_out = shapes[case % len(shapes)]
        w = rng.random((m_in, n_out))
        w[rng.random((m_in, n_out)) < 0.4] = 0.0
        w[w.sum(axis=1) == 0.0, 0] = 1.0
        w /= w.sum(axis=1, keepdims=True)
        channel, states, povm = embed_classical(w)
        if case % 2:
            signs = rng.choice([-1.0, 1.0], size=len(channel.kraus))
            channel = validate_channel(list(signs[:, None, None] * channel.kraus))
        yield rng, channel, states, povm


def test_the_matrix_unit_kernel_equals_the_batched_product_bit_for_bit():
    # Basis states and random real dense states, under the embedding's
    # diagonal POVM and a dense real one: the channel output is the batched
    # product's, and the distribution and apply_channel's state are the
    # reference's.
    negated = 0
    for case, (rng, channel, states, diagonal) in enumerate(_classical_channels(4201, 48)):
        dim = channel.dim
        assert channel._matrix_units is not None, case
        negated += bool((channel._matrix_units[2] < 0).any())
        outcomes = int(rng.integers(2, dim + 3))
        dense = validate_povm([e.real for e in random_general_povm(dim, outcomes, 4201 + case).elements])
        mixed = [validate_state(random_density_matrix(dim, rng).matrix.real) for _ in range(2)]
        for state in states.states + tuple(mixed):
            got, want = quantum._kraus_sum(channel, state), _batched(channel, state)
            assert got.dtype == want.dtype == np.float64, case
            assert got.tobytes() == want.tobytes(), case
            out = apply_channel(channel, state).matrix
            assert out.tobytes() == validate_state(want).matrix.tobytes(), case
            for povm in (diagonal, dense):
                p = outcome_probabilities(channel, state, povm)
                ref = _reference_outcome_probabilities(channel, state, povm)
                assert p.tobytes() == ref.tobytes(), case
    assert negated >= 12


def test_the_matrix_unit_kernel_adds_in_kraus_order():
    # Three inputs all reach output 0, so sigma[0, 0] sums three terms in
    # Kraus order.  2^-53 + 2^-53 + 1 rounds to 1 + 2^-52 only when the two
    # small terms are added first; 1 + 2^-53 + 2^-53 rounds back to 1.  A
    # scatter-add that reordered its terms would fail one of the two.
    channel, _, _ = embed_classical(np.array([[1.0, 0.0, 0.0]] * 3))
    assert channel._matrix_units is not None
    tiny = 2.0**-53
    for diagonal, want in (([tiny, tiny, 1.0], 1.0000000000000002), ([1.0, tiny, tiny], 1.0)):
        state = validate_state(np.diag(diagonal))
        got = quantum._kraus_sum(channel, state)
        assert got[0, 0] == want
        assert got.tobytes() == _batched(channel, state).tobytes()
        assert apply_channel(channel, state).matrix[0, 0] == want


def test_a_one_by_one_stack_keeps_the_batched_product():
    # The batched product's axis-0 sum over a (9, 1, 1) stack is one
    # contiguous reduction, added pairwise: 1 + 8 * 2^-27 squared comes out
    # 1 + 2^-51, where adding in Kraus order would round back to 1.
    channel = validate_channel([np.array([[1.0]])] + [np.array([[2.0**-27]])] * 8)
    assert channel._real_kraus is not None and channel._matrix_units is None
    state = basis_state(1, 0)
    got = quantum._kraus_sum(channel, state)
    assert got.tobytes() == _batched(channel, state).tobytes()
    assert got[0, 0] > 1.0


def test_each_channel_decides_its_matrix_units_once():
    channel, states, povm = embed_classical(pentagon_matrix())
    units = channel._matrix_units
    out, inp, coef = units
    # sqrt(1/2) |j><i| for j in {i, i+1 mod 5}, in embedding order: by i, then j.
    assert out.tolist() == [6 * j for i in range(5) for j in sorted((i, (i + 1) % 5))]
    assert inp.tolist() == [6 * i for i in range(5) for _ in range(2)]
    assert coef.tolist() == [np.sqrt(0.5)] * 10
    for s in states.states:
        outcome_probabilities(channel, s, povm)
        apply_channel(channel, s)
    assert channel._matrix_units is units


def test_other_stacks_and_non_finite_states_keep_the_batched_product(monkeypatch):
    batched = quantum._batched_kraus_sum
    calls = []

    def recorded(channel, m, real_m):
        calls.append(channel)
        return batched(channel, m, real_m)

    monkeypatch.setattr(quantum, "_batched_kraus_sum", recorded)
    # Identity, dephasing and bit-flip stacks are real but not matrix units;
    # the depolarizing stack is complex.
    others = (identity_channel(3), dephasing_channel(0.3), bitflip_channel(0.1), depolarizing_channel(0.3))
    for channel in others:
        assert channel._matrix_units is None
        dim = channel.dim
        povm = computational_povm(dim)
        for state in (basis_state(dim, 0), validate_state(np.full((dim, dim), 1.0 / dim))):
            calls.clear()
            p = outcome_probabilities(channel, state, povm)
            assert calls == [channel]
            assert p.tobytes() == _reference_outcome_probabilities(channel, state, povm).tobytes()
    # A NaN or an inf anywhere in a directly built state turns the whole
    # batched output into NaN; the kernel would only see the diagonal.
    channel, _, povm = embed_classical(pentagon_matrix())
    for bad in (np.nan, np.inf):
        matrix = np.eye(5) / 5
        matrix[1, 3] = bad
        state = DensityMatrix(dim=5, matrix=matrix)
        calls.clear()
        with np.errstate(invalid="ignore"):  # inf * 0
            p = outcome_probabilities(channel, state, povm)
            want = _reference_outcome_probabilities(channel, state, povm)
        assert calls == [channel] and np.isnan(p).all()
        assert p.tobytes() == want.tobytes()
    # A finite real state on matrix units takes the kernel; the Kronecker
    # path's bare-matrix entry never does, and agrees with it bit for bit.
    state = basis_state(5, 2)
    calls.clear()
    sigma = quantum._kraus_sum(channel, state)
    assert calls == []
    assert quantum._apply_kraus(channel, state.matrix).tobytes() == sigma.tobytes()
    assert calls == [channel]


# ---------------------------------------------------------------------------
# Diagonal-unit POVMs (classical embeddings)
# ---------------------------------------------------------------------------

_CHECKED_DISTRIBUTION = quantum._checked_distribution


def _product_outcome_probabilities(channel, state, povm):
    # The complex product with the element stack, checked as
    # outcome_probabilities checks it: the computation the kernel replaces.
    sigma = quantum._kraus_sum(channel, state)
    raw = povm.elements.reshape(len(povm), -1) @ sigma.T.ravel()
    return _CHECKED_DISTRIBUTION(raw, sigma.dtype != np.float64 or povm._real_elements is None)


def _bits_or_error(fn, channel, state, povm):
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            return fn(channel, state, povm).tobytes()
    except InvalidProbabilitiesError as exc:
        return str(exc)


def _record_products(monkeypatch):
    # Every call that keeps the complex product checks it with
    # _checked_distribution; the kernel does not.
    calls = []

    def recorded(raw, check_imag):
        calls.append(raw.dtype)
        return _CHECKED_DISTRIBUTION(raw, check_imag)

    monkeypatch.setattr(quantum, "_checked_distribution", recorded)
    return calls


def _assert_product_bits(channel, state, povm):
    # The distribution is the product's, or the error is the product's; a
    # finite distribution is the reference's too.
    got = _bits_or_error(outcome_probabilities, channel, state, povm)
    assert got == _bits_or_error(_product_outcome_probabilities, channel, state, povm)
    if isinstance(got, bytes) and np.isfinite(np.frombuffer(got)).all():
        assert got == _reference_outcome_probabilities(channel, state, povm).tobytes()


def _split_povm(dim, rng, zero=False):
    # Diagonal units in a random order; about half of the basis vectors
    # split their weight between two elements, and ``zero`` adds an all-zero
    # element.
    elements = []
    for a in range(dim):
        t = rng.random()
        for weight in [1.0] if t < 0.5 else [t, 1.0 - t]:
            e = np.zeros((dim, dim))
            e[a, a] = weight
            elements.append(e)
    if zero:
        elements.append(np.zeros((dim, dim)))
    return validate_povm([elements[k] for k in rng.permutation(len(elements))])


def _odd_states(dim, rng):
    # Directly built real states, never validated: a signed-zero or tiny
    # diagonal entry whose mass moved to another entry (so the distribution
    # still sums to 1); a NaN, an inf or an entry near overflow anywhere;
    # and a diagonal near overflow.
    diagonal = rng.dirichlet(np.ones(dim))
    matrices = []
    for tiny in (-0.0, 5e-324, -5e-324, -1e-310):
        m = np.diag(diagonal)
        i, j = rng.choice(dim, size=2) if dim > 1 else (0, 0)
        if i != j:
            m[j, j] += m[i, i]
            m[i, i] = tiny
        matrices.append(m)
    for bad in (np.nan, np.inf, -np.inf, 1e308, -1.7e308):
        m = np.diag(diagonal)
        m[tuple(rng.integers(0, dim, 2))] = bad
        matrices.append(m)
    matrices.append(np.diag(diagonal) * 1e308)
    return [DensityMatrix(dim=dim, matrix=m) for m in matrices]


def test_the_diagonal_unit_kernel_equals_the_product_bit_for_bit(monkeypatch):
    # Classical embeddings, padded both ways and at d = 1, under their
    # computational POVM, a split-weight one and one with a zero element;
    # basis states, random real states, and odd ones.
    products = _record_products(monkeypatch)
    cases = list(_classical_channels(4401, 48))
    rng = np.random.default_rng(4401)
    cases.append((rng, *embed_classical(np.array([[1.0]]))))
    kernel = total = 0
    for case, (rng, channel, states, computational) in enumerate(cases):
        dim = channel.dim
        povms = [computational, _split_povm(dim, rng), _split_povm(dim, rng, zero=True)]
        assert [povm._diagonal_units is not None for povm in povms] == [True, True, False], case
        mixed = validate_state(random_density_matrix(dim, rng).matrix.real)
        for state in states.states + (mixed, *_odd_states(dim, rng)):
            for povm in povms:
                products.clear()
                _assert_product_bits(channel, state, povm)
                kernel += products == [np.complex128]
                total += 1
    assert kernel > total // 3


def test_real_non_unit_channels_keep_the_product(monkeypatch):
    # A real channel that is not made of matrix units gives a batched
    # float64 output, which is measured by the product under a diagonal
    # POVM too.
    products = _record_products(monkeypatch)
    rng = np.random.default_rng(4402)
    channels = [identity_channel(3), dephasing_channel(0.3), bitflip_channel(0.1)]
    channels += [_real_channel(random_channel(int(d), 2, rng)) for d in rng.integers(2, 6, size=12)]
    for channel in channels:
        assert channel._real_kraus is not None and channel._matrix_units is None
        dim = channel.dim
        for povm in (computational_povm(dim), _split_povm(dim, rng)):
            assert povm._diagonal_units is not None
            for state in (validate_state(random_density_matrix(dim, rng).matrix.real), *_odd_states(dim, rng)):
                products.clear()
                _assert_product_bits(channel, state, povm)
                assert products == [np.complex128]


def test_an_output_that_would_overflow_keeps_the_product(monkeypatch):
    # Both inputs reach output 0, so a kernel on the diagonal 1e308, 1e308
    # would add them to inf there and read only the diagonal, while the
    # product spreads NaN over every trace.  A state with an entry beyond 1
    # is not applied on matrix units at all.
    products = _record_products(monkeypatch)
    channel, _, povm = embed_classical(np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert channel._matrix_units is not None and povm._diagonal_units is not None
    state = DensityMatrix(dim=2, matrix=np.diag([1e308, 1e308]))
    assert not quantum._on_units(channel, state)
    _assert_product_bits(channel, state, povm)
    assert products == [np.complex128]
    with np.errstate(invalid="ignore", over="ignore"):
        assert np.isnan(outcome_probabilities(channel, state, povm)).all()


def test_other_povms_and_complex_outputs_keep_the_complex_product(monkeypatch):
    products = _record_products(monkeypatch)
    rng = np.random.default_rng(4403)
    y_plus = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    off_diagonal = np.array([[0.0, 1.0], [0.0, 0.0]])
    others = [
        validate_povm([e.real for e in random_general_povm(3, 5, seed=4403).elements]),  # dense real
        validate_povm([y_plus, np.eye(2) - y_plus]),  # complex
        validate_povm([np.eye(3)]),  # one outcome
        validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros((2, 2))]),  # a zero element
        Povm(dim=2, elements=np.array([off_diagonal, off_diagonal.T])),  # one nonzero entry, off the diagonal
        Povm(dim=2, elements=np.array([np.diag([np.inf, 0.0]), np.diag([0.0, 1.0])])),  # a non-finite weight
    ]
    for povm in others:
        assert povm._diagonal_units is None
        dim = povm.dim
        for channel in (identity_channel(dim), embed_classical(np.eye(dim))[0]):
            for state in (basis_state(dim, 0), validate_state(random_density_matrix(dim, rng).matrix.real)):
                products.clear()
                _assert_product_bits(channel, state, povm)
                assert products == [np.complex128]
    # A complex channel output keeps the product under a diagonal POVM.
    for channel in (depolarizing_channel(0.3), validate_channel([1j * np.eye(2)])):
        povm = computational_povm(2)
        assert povm._diagonal_units is not None
        products.clear()
        _assert_product_bits(channel, validate_state(random_density_matrix(2, rng).matrix), povm)
        assert products == [np.complex128]


def test_each_povm_decides_its_diagonal_units_once():
    channel, states, povm = embed_classical(pentagon_matrix())
    units = povm._diagonal_units
    where, weights = units
    assert where.tolist() == [6 * a for a in range(5)] and weights.tolist() == [1.0] * 5
    for s in states.states:
        outcome_probabilities(channel, s, povm)
    assert povm._diagonal_units is units
    split = validate_povm([np.diag([0.25, 0.0]), np.diag([0.0, 1.0]), np.diag([0.75, 0.0])])
    assert split._diagonal_units[0].tolist() == [0, 3, 0]
    assert split._diagonal_units[1].tolist() == [0.25, 1.0, 0.75]


def test_a_one_ulp_change_to_the_kernel_shows_as_paths_disagreeing(monkeypatch):
    # Input 0 reaches outcome 1 with probability v = sqrt(0.3)^2, the
    # cutoff itself, so outcome 1 is not in its support.  One ulp more from
    # the kernel puts it there, while the Kronecker path of
    # verify_zero_error, a dense contraction of its own, still reads v.
    from zecap import blockcode, confusability_graph

    w = np.array([[0.7, 0.3, 0.0], [0.0, 0.0, 1.0]])
    channel, states, povm = embed_classical(w)
    eps = float(np.sqrt(0.3) ** 2)
    assert outcome_probabilities(channel, states.states[0], povm)[1] == eps
    graph = confusability_graph(channel, states, povm, eps=eps)
    code = blockcode.build_code(graph, states, povm, 1)
    assert code.message_count == 2
    assert blockcode.verify_zero_error(code, channel, eps).paths_agree is True
    products = _record_products(monkeypatch)
    checked = quantum._checked_probabilities

    def one_ulp_up(p):
        return checked(np.where(p == eps, np.nextafter(eps, 1.0), p))

    monkeypatch.setattr(quantum, "_checked_probabilities", one_ulp_up)
    report = blockcode.verify_zero_error(code, channel, eps)
    assert products == []
    assert report.tensor_path_checked and report.paths_agree is False and not report.passed


def test_cached_arrays_are_read_only():
    # A write through a cache would change every later result while the
    # wrapper's own frozen array stays as it was.
    channel, states, povm = embed_classical(pentagon_matrix())
    state = states.states[0]
    caches = [
        channel._real_kraus,
        povm._real_elements,
        state._real_matrix,
        *channel._matrix_units,
        *povm._diagonal_units,
    ]
    for a in caches:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
    p = outcome_probabilities(channel, state, povm)
    assert p.tolist() == [0.5000000000000001] * 2 + [0.0] * 3
    # A caller's float64 array is returned as it is, and stays writeable.
    outs = np.zeros((2, 3, 3))
    assert quantum._exact_real(outs) is outs and outs.flags.writeable


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def test_pure_state_normalizes_and_rejects_zero():
    rho = pure_state(np.array([3.0, 4.0]))
    assert np.trace(rho.matrix).real == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        pure_state(np.zeros(2))


@pytest.mark.parametrize(
    "copier",
    [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_unpickled_wrappers_keep_frozen_arrays_and_no_cache(copier):
    channel = validate_channel([np.eye(2)])  # exactly real, so the caches hold arrays
    units = embed_classical(pentagon_matrix())[0]  # matrix units too
    povm = validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    state = basis_state(2, 0)
    assert channel._real_kraus is not None and povm._real_elements is not None
    assert state._real_matrix is not None and state._bounded
    assert units._matrix_units is not None and povm._diagonal_units is not None
    for obj, field, caches in ((state, "matrix", ("_real_matrix", "_bounded")),
                               (channel, "kraus", ("_real_kraus",)),
                               (units, "kraus", ("_real_kraus", "_matrix_units")),
                               (povm, "elements", ("_real_elements", "_diagonal_units"))):
        twin = copier(obj)
        assert twin == obj
        arr = getattr(twin, field)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0.5
        for cache in caches:
            assert cache not in vars(twin)  # recomputed from the frozen array on use
        assert twin == obj
        for cache in ("_matrix_units", "_diagonal_units"):
            if cache in caches:
                again, first = getattr(twin, cache), getattr(obj, cache)
                assert again is not first
                assert all(a.tobytes() == b.tobytes() for a, b in zip(again, first))
    twin = copier(StateSet(dim=2, states=(state, basis_state(2, 1))))
    assert not any(s.matrix.flags.writeable for s in twin.states)


def test_an_unpickled_wrapper_is_validated_again():
    state = basis_state(2, 0)
    object.__setattr__(state, "dim", 3)  # a corrupted payload
    with pytest.raises(DimensionMismatchError):
        pickle.loads(pickle.dumps(state))


@pytest.mark.parametrize(
    "make",
    [
        lambda: basis_state(2, 0),
        lambda: bitflip_channel(0.1),
        lambda: validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]),
    ],
    ids=["DensityMatrix", "QuantumChannel", "Povm"],
)
def test_wrappers_compare_by_value_and_are_unhashable(make):
    # Their arrays are mutable types, so a wrapper is no dictionary key; the
    # dataclass must not put a field hash back in place of __hash__ = None.
    a, b = make(), make()
    assert a == b and not a != b
    assert a != basis_state(3, 0) and a.__eq__(object()) is NotImplemented
    with pytest.raises(TypeError, match=f"^unhashable type: '{type(a).__name__}'$"):
        hash(a)


def test_basis_state_bounds():
    with pytest.raises(ValidationError):
        basis_state(2, 2)


def test_haar_unitary_is_unitary_and_seeded():
    u = haar_unitary(4, np.random.default_rng(9))
    assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
    v = haar_unitary(4, np.random.default_rng(9))
    assert np.array_equal(u, v)


def test_random_channel_and_state_are_valid_and_seeded():
    a = random_channel(3, 2, np.random.default_rng(3))
    b = random_channel(3, 2, np.random.default_rng(3))
    assert all(np.array_equal(x, y) for x, y in zip(a.kraus, b.kraus))
    s = random_density_matrix(3, np.random.default_rng(4))
    assert isinstance(s, DensityMatrix)


# ---------------------------------------------------------------------------
# Property suites
# ---------------------------------------------------------------------------


def test_channels_preserve_trace_and_positivity():
    check_trace_preservation(200)


def test_outcome_distributions_normalize():
    check_probability_normalization(200)
