"""Seeded random states, channels and measurements: fixtures of the test suite.

Only the tests draw whole random ensembles (the search draws its starts
internally), so these generators live here rather than in the package.  They
build on the package's private Haar helpers, and a seed fixes the instance
bit for bit.
"""

from __future__ import annotations

import numpy as np

from zecap import DensityMatrix, Povm, QuantumChannel, StateSet, haar_unitary, pure_state
from zecap.quantum import _projective_povm
from zecap.search import _povm_from_isometry, _random_isometry, _random_state_vectors


def random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random mixed state ``G G^dagger / tr`` for a Ginibre G."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(dim=dim, matrix=m / np.trace(m).real)


def random_channel(dim: int, kraus_count: int, rng: np.random.Generator) -> QuantumChannel:
    """Kraus operators sliced from a Haar-style (kraus_count*dim) x dim isometry,
    so sum K^dagger K = I holds to machine precision."""
    iso = _random_isometry(kraus_count * dim, dim, rng)
    return QuantumChannel(dim=dim, kraus=iso.reshape(kraus_count, dim, dim))


def random_pure_state_set(dim: int, count: int, seed: int) -> StateSet:
    """``count`` Haar-random pure states (Gaussian vectors, normalized)."""
    vecs = _random_state_vectors(dim, count, np.random.default_rng(seed))
    return StateSet(
        dim=dim,
        states=tuple(pure_state(v) for v in vecs),
        allow_overcomplete=count > dim,
    )


def random_projective_povm(dim: int, seed: int) -> Povm:
    """Rank-one projective POVM from the columns of a Haar unitary."""
    return _projective_povm(haar_unitary(dim, np.random.default_rng(seed)))


def random_general_povm(dim: int, outcomes: int, seed: int) -> Povm:
    """POVM E_j = V_j^dagger V_j over the dim x dim blocks V_j of a random
    (outcomes*dim) x dim isometry, so completeness is V^dagger V = I."""
    iso = _random_isometry(outcomes * dim, dim, np.random.default_rng(seed))
    return _povm_from_isometry(iso, dim, outcomes)
