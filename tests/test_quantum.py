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
    outcome_probabilities,
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
    povm = validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    state = basis_state(2, 0)
    assert channel._real_kraus is not None and povm._real_elements is not None
    for obj, field, cache in ((state, "matrix", None), (channel, "kraus", "_real_kraus"),
                              (povm, "elements", "_real_elements")):
        twin = copier(obj)
        assert twin == obj
        arr = getattr(twin, field)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0.5
        assert cache not in vars(twin)  # recomputed from the frozen array on use
        assert twin == obj
    twin = copier(StateSet(dim=2, states=(state, basis_state(2, 1))))
    assert not any(s.matrix.flags.writeable for s in twin.states)


def test_an_unpickled_wrapper_is_validated_again():
    state = basis_state(2, 0)
    object.__setattr__(state, "dim", 3)  # a corrupted payload
    with pytest.raises(DimensionMismatchError):
        pickle.loads(pickle.dumps(state))


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
