"""Builtin channels and the classical-to-quantum embedding.

Classical discrete memoryless channels embed exactly: a row-stochastic W
becomes the channel with Kraus operators sqrt(W[i, j]) |j><i|, and sending
computational basis states read out by the computational POVM reproduces
p(j|i) = W[i, j] to floating-point accuracy.  The classical confusability
structure (Shannon's) is therefore a special case of the quantum one, and
the pentagon channel is the canonical witness that block codes can beat
single-use signalling (2 one-shot messages, 5 messages over two uses).

Qubit noise families use the standard Pauli parameterizations spelled out
in each constructor's docstring (and the README).
"""

from __future__ import annotations

import numpy as np

from .confusability import StateSet
from .errors import DimensionMismatchError, NotStochasticError, SizeLimitError
from .quantum import (
    Povm,
    QuantumChannel,
    _channel_of_stack,
    _projective_povm,
    basis_state,
    validate_channel,
)

__all__ = [
    "identity_channel",
    "depolarizing_channel",
    "dephasing_channel",
    "bitflip_channel",
    "pentagon_matrix",
    "embed_classical",
    "BUILTIN_STOCHASTIC_TOL",
]

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

BUILTIN_STOCHASTIC_TOL = 1e-12

# Bytes of the complex128 (K, d, d) Kraus stack of a classical embedding:
# 2^28 is a dense 64 x 64 W (4,096 operators of 64 x 64), which `zecap
# validate` takes in about 0.6 s and 310 MB peak RSS; a dense 128 x 128 W
# would need 4.3 GB.
KRAUS_BYTES_CAP = 2**28


def identity_channel(dim: int) -> QuantumChannel:
    """The noiseless channel: single Kraus operator I_dim."""
    return validate_channel([np.eye(dim, dtype=np.complex128)])


def depolarizing_channel(p: float) -> QuantumChannel:
    """Qubit depolarizing channel.

    Kraus operators {sqrt(1 - 3p/4) I, sqrt(p/4) X, sqrt(p/4) Y,
    sqrt(p/4) Z}, i.e. E(rho) = (1 - p) rho + p I/2.  p = 1 erases all
    input dependence (fully depolarizing).
    """
    _check_unit_interval(p)
    ops = [
        np.sqrt(1.0 - 0.75 * p) * np.eye(2, dtype=np.complex128),
        np.sqrt(p / 4.0) * _PAULI_X,
        np.sqrt(p / 4.0) * _PAULI_Y,
        np.sqrt(p / 4.0) * _PAULI_Z,
    ]
    return validate_channel(ops)


def dephasing_channel(p: float) -> QuantumChannel:
    """Qubit phase-noise channel.

    Kraus operators {sqrt(1 - p) I, sqrt(p) Z}: E(rho) = (1-p) rho +
    p Z rho Z.  Off-diagonal terms scale by (1 - 2p); p = 1/2 kills
    coherences entirely while every diagonal (classical) input passes
    untouched.
    """
    _check_unit_interval(p)
    ops = [
        np.sqrt(1.0 - p) * np.eye(2, dtype=np.complex128),
        np.sqrt(p) * _PAULI_Z,
    ]
    return validate_channel(ops)


def bitflip_channel(p: float) -> QuantumChannel:
    """Qubit bit-flip channel: {sqrt(1-p) I, sqrt(p) X}."""
    _check_unit_interval(p)
    ops = [
        np.sqrt(1.0 - p) * np.eye(2, dtype=np.complex128),
        np.sqrt(p) * _PAULI_X,
    ]
    return validate_channel(ops)


def _check_unit_interval(p: float):
    if not 0.0 <= p <= 1.0:
        raise DimensionMismatchError(f"noise parameter must lie in [0, 1], got {p!r}")


def pentagon_matrix() -> np.ndarray:
    """Shannon's pentagon: W[i, j] = 1/2 for j in {i, i+1 mod 5}.

    Each input is confusable exactly with its cyclic neighbors, so the
    confusability graph of the embedding is the 5-cycle.
    """
    w = np.zeros((5, 5))
    for i in range(5):
        w[i, i] = 0.5
        w[i, (i + 1) % 5] = 0.5
    return w


def embed_classical(w: np.ndarray) -> tuple[QuantumChannel, StateSet, Povm]:
    """Embed a classical channel W into the quantum formalism exactly.

    Parameters
    ----------
    w : array_like, shape (m_in, n_out)
        Row-stochastic transition matrix, W[i, j] = Pr(output j | input i).

    Returns
    -------
    (channel, states, povm)
        ``channel`` has dimension max(m_in, n_out) with Kraus operators
        sqrt(W[i, j]) |j><i| plus identity pieces |i><i| on any padded
        input directions (keeping it trace preserving).  ``states`` are
        the first m_in computational basis states and ``povm`` the full
        computational measurement, so outcome_probabilities reproduces W
        entry for entry, to one rounding: p(j|i) is sqrt(W[i, j])^2 in
        float64, so the pentagon's 1/2 reads 0.5000000000000001 while
        1/3 comes back exact.

    Raises
    ------
    NotStochasticError
        If some row has a negative or NaN entry or does not sum to 1
        within ``BUILTIN_STOCHASTIC_TOL``.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
        raise DimensionMismatchError(f"transition matrix must be 2-D, got shape {w.shape}")
    m_in, n_out = w.shape
    for i in range(m_in):
        row = w[i]
        # A NaN entry fails both comparisons, so it is refused.
        if not (row.min() >= 0.0 and abs(row.sum() - 1.0) <= BUILTIN_STOCHASTIC_TOL):
            raise NotStochasticError(row=i, row_sum=float(row.sum()))

    dim = max(m_in, n_out)
    # Kraus order: by input i, then output j, then the padded inputs.
    inputs, outputs = np.nonzero(w > 0.0)
    padded = np.arange(m_in, dim)
    count = len(inputs) + len(padded)
    size = count * dim * dim * np.dtype(np.complex128).itemsize
    if size > KRAUS_BYTES_CAP:
        raise SizeLimitError(size, KRAUS_BYTES_CAP, "bytes of Kraus operators")
    coef = np.sqrt(w[inputs, outputs])
    kraus = np.zeros((count, dim, dim), dtype=np.complex128)
    kraus[np.arange(len(inputs)), outputs, inputs] = coef
    # Unused input directions pass through so the channel stays TP.
    kraus[np.arange(len(inputs), count), padded, padded] = 1.0
    channel = _channel_of_stack(kraus)
    states = StateSet(dim=dim, states=tuple(basis_state(dim, i) for i in range(m_in)))
    povm = _projective_povm(np.eye(dim, dtype=np.complex128))
    return channel, states, povm
