"""Seeded random states, channels and measurements: fixtures of the test suite.

Only the tests draw random ensembles (the search draws its S-start
internally), so these generators and the Haar unitary they build on live
here rather than in the package.  A seed fixes the instance bit for bit.
"""

from __future__ import annotations

import numpy as np

from zecap import DensityMatrix, Povm, QuantumChannel, StateSet, pure_state, validate_povm
from zecap.quantum import _projective_povm


def _haar_q(z: np.ndarray) -> np.ndarray:
    """Haar-distributed Q of a complex Ginibre ``z``: QR with the R-diagonal phases divided out."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a Haar-distributed unitary.

    QR of a complex Ginibre matrix with the R-diagonal phases divided out,
    which corrects the QR gauge so the distribution is exactly Haar.
    """
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    return _haar_q(z)


def random_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-style (rows x cols) isometry, the Q of a complex Gaussian matrix."""
    return _haar_q(rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))


def random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random mixed state ``G G^dagger / tr`` for a Ginibre G."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(dim=dim, matrix=m / np.trace(m).real)


def random_channel(dim: int, kraus_count: int, rng: np.random.Generator) -> QuantumChannel:
    """Kraus operators sliced from a Haar-style (kraus_count*dim) x dim isometry,
    so sum K^dagger K = I holds to machine precision."""
    iso = random_isometry(kraus_count * dim, dim, rng)
    return QuantumChannel(dim=dim, kraus=iso.reshape(kraus_count, dim, dim))


def random_pure_state_set(dim: int, count: int, seed: int) -> StateSet:
    """``count`` Haar-random pure states (Gaussian vectors, normalized)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    vecs = v / np.linalg.norm(v, axis=1, keepdims=True)
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
    iso = random_isometry(outcomes * dim, dim, np.random.default_rng(seed))
    return validate_povm([b.conj().T @ b for b in iso.reshape(outcomes, dim, dim)])
