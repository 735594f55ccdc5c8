"""Search for state/POVM pairs with many distinguishable pairs.

The one-shot structure of a channel depends on which states are sent and
which POVM reads them out.  An *optimum* pair maximizes the number of
one-shot-distinguishable (non-adjacent) state pairs; only an optimum pair
realizes the channel's full zero-error capacity, so the search below is the
bridge from "a channel" to "its confusability graph".

The objective is integer-valued and flat almost everywhere: for an identity
or classical channel the good configurations are exact alignments of states
with measurement directions, a measure-zero target that random moves cannot
hit.  The search therefore scores two deterministic alignments and keeps the
better, with ties going to the first:

1. the computational-basis-aligned pair, which recovers classical structure
   exactly; and
2. the S-start, scored only when the first is below an upper bound on the
   objective: M(M-1)/2 pairs, or none when the channel puts a common outcome
   in every state's support (see ``_objective_bound``).

The S-start comes from the channel's operator space S = span{K_i^dagger K_j}
(Duan, Severini & Winter, arXiv:1002.2514): pure inputs a, b are zero-error
distinguishable by some measurement iff <a|B|b> = 0 for every B in S.  Its
states are the eigenbasis of a random Hermitian element of S, which is
exactly zero-error when S is commutative, and its measurement is built from
the output ranges span{K_i a}.  The element is drawn from the generator
seeded ``seed``, made only when the S-start is reached, so a run is
reproducible bit for bit and one that stops at the first start never imports
``numpy.random``.

Each start is scored by the public ``confusability_graph`` and
``non_adjacent_pair_count``, so the result's graph is the one its score came
from.  A start where some state's support is empty scores -1, below every
valid start, since ``confusability_graph`` refuses it; when both starts are
refused, the search raises the computational start's refusal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .confusability import (
    DEFAULT_EPS,
    ConfusabilityGraph,
    StateSet,
    _check_eps,
    confusability_graph,
    non_adjacent_pair_count,
)
from .errors import DimensionMismatchError, EmptySupportError
from .graphs import independence_number
from .quantum import (
    Povm,
    QuantumChannel,
    _projective_povm,
    pure_state,
    validate_povm,
)

__all__ = [
    "SearchConfig",
    "SearchResult",
    "optimize_pair",
]

# Absolute slack, above the round-off of eigvalsh on the d^2 x d^2 matrix C and
# of the outcome probabilities, before lambda_min(C) is trusted as a bound.
_ROUNDOFF = 1e-12
# Singular values below this count as zero in the ranks of S (relative to the
# largest) and of the output ranges (whose vectors have unit total norm).
_RANK_TOL = 1e-10


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for :func:`optimize_pair`.

    Attributes
    ----------
    num_states : int
        States to place (M).  Must satisfy 2 <= M <= dim unless
        ``allow_overcomplete``.
    seed : int
        Seeds the generator the S-start is drawn from.
    eps_support : float
        Support cutoff used when scoring candidate pairs.  Must be positive.
    general_povm : bool
        Search over arbitrary POVMs with dim^2 outcomes
        (isometry-parameterized) instead of projective rank-one
        measurements.
    allow_overcomplete : bool
        Permit M > dim state sets.
    """

    num_states: int
    seed: int = 7
    eps_support: float = DEFAULT_EPS
    general_povm: bool = False
    allow_overcomplete: bool = False
    # Constants, not fields: the benchmark harness's search counter reads
    # them (perfbench/tracing.py), so they stay until that counter reads the
    # result instead.  One run and no climbing steps is what the search does.
    restarts: ClassVar[int] = 1
    iterations: ClassVar[int] = 0

    def __post_init__(self):
        if self.num_states < 2:
            raise ValueError("num_states must be >= 2: pairs need two states")
        _check_eps(self.eps_support)


@dataclass(frozen=True)
class SearchResult:
    """Best pair found and its graph.

    ``objective_bound`` is the upper bound on the objective at which the
    search stops after its first start.
    """

    best_states: StateSet
    best_povm: Povm
    graph: ConfusabilityGraph
    pair_count: int
    alpha_1: int
    config: SearchConfig
    objective_bound: float


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------


def _povm_from_isometry(iso: np.ndarray, dim: int, outcomes: int) -> Povm:
    """E_j = V_j^dagger V_j for the j-th dim x dim block V_j of the stacked isometry."""
    blocks = iso.reshape(outcomes, dim, dim)
    return validate_povm([b.conj().T @ b for b in blocks])


def _operator_space(kraus: np.ndarray) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) basis of S = span{K_i^dagger K_j}, shape (dim S, d, d)."""
    d = kraus.shape[1]
    prods = (kraus.conj().transpose(0, 2, 1)[:, None] @ kraus).reshape(-1, d * d)
    _, sv, vh = np.linalg.svd(prods, full_matrices=False)
    rank = int(np.count_nonzero(sv > _RANK_TOL * sv[0]))
    return vh[:rank].reshape(rank, d, d)


def _objective_bound(
    kraus: np.ndarray, dim: int, m: int, outcomes: int, eps: float
) -> float:
    """Upper bound on the pair count over every (states, measurement) pair.

    With C = sum_i vec(K_i) vec(K_i)^dagger, tr(E_j E(psi)) >= lambda_min(C)
    tr(E_j) for every state psi, and some E_j has tr(E_j) >= dim/N.  When
    lambda_min(C) dim/N exceeds eps, that outcome is in every support and no
    pair is distinguishable; otherwise all M(M-1)/2 pairs may be.
    """
    vec = kraus.reshape(len(kraus), -1).T  # (d^2, K)
    lam_min = np.linalg.eigvalsh(vec @ vec.conj().T)[0]
    return 0.0 if (lam_min - _ROUNDOFF) * dim / outcomes > eps else float(m * (m - 1) // 2)


def _s_start(
    kraus: np.ndarray, m: int, general: bool, outcomes: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """States from the eigenbasis of a random Hermitian element of S, measured on their output ranges."""
    basis = _operator_space(kraus)
    dim = basis.shape[1]
    c = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    a = np.tensordot(c, basis, axes=1)
    _, eigvecs = np.linalg.eigh(a + a.conj().T)  # in S: S is closed under adjoints
    vecs = eigvecs.T[np.arange(m) % dim]
    # Orthonormal bases of the output ranges span{K_i v}, each orthogonalized
    # against those before it, completed to a unitary.
    cols = np.zeros((dim, 0), dtype=np.complex128)
    for v in vecs:
        out = (kraus @ v).T
        out -= cols @ (cols.conj().T @ out)
        u, sv, _ = np.linalg.svd(out, full_matrices=False)
        cols = np.hstack([cols, u[:, sv > _RANK_TOL]])
    unitary, _ = np.linalg.qr(np.hstack([cols, np.eye(dim)]))
    return vecs, _aligned_meas(unitary, dim, general, outcomes)


def _aligned_meas(u: np.ndarray, dim: int, general: bool, outcomes: int) -> np.ndarray:
    if not general:
        return u
    # Isometry whose j-th block is |u_j><u_j|, mirroring the projective
    # alignment; blocks past the dim-th are zero.
    iso = np.zeros((outcomes, dim, dim), dtype=np.complex128)
    iso[:dim] = u.T[:, :, None] * u.T.conj()[:, None, :]
    return iso.reshape(outcomes * dim, dim)


def _ensemble(
    cand: tuple[np.ndarray, np.ndarray], general: bool, allow_overcomplete: bool
) -> tuple[StateSet, Povm]:
    """The validated (states, POVM) pair a search point stands for."""
    vecs, meas = cand
    dim = vecs.shape[1]
    states = StateSet(dim, tuple(pure_state(v) for v in vecs), allow_overcomplete)
    if general:
        return states, _povm_from_isometry(meas, dim, dim * dim)
    return states, _projective_povm(meas)


def _scored(
    channel: QuantumChannel, cfg: SearchConfig, cand: tuple[np.ndarray, np.ndarray]
) -> tuple[int, StateSet, Povm, ConfusabilityGraph | EmptySupportError]:
    """(pair count, states, POVM, graph) of a start.

    A start the graph refuses scores -1 and carries the refusal in place of
    its graph.
    """
    states, povm = _ensemble(cand, cfg.general_povm, cfg.allow_overcomplete)
    try:
        graph = confusability_graph(channel, states, povm, eps=cfg.eps_support)
    except EmptySupportError as exc:
        return -1, states, povm, exc
    return non_adjacent_pair_count(graph), states, povm, graph


def optimize_pair(channel: QuantumChannel, cfg: SearchConfig) -> SearchResult:
    """Search for a (states, POVM) pair maximizing non-adjacent pairs.

    Parameters
    ----------
    channel : QuantumChannel
    cfg : SearchConfig

    Returns
    -------
    SearchResult
        The better of the computational start and the S-start; the graph and
        ``pair_count`` are those the public graph constructor gives the
        returned (states, POVM), so they are exactly reproducible from the
        result's own fields.

    Raises
    ------
    DimensionMismatchError
        If ``cfg.num_states`` exceeds the channel dimension without
        ``allow_overcomplete``.
    EmptySupportError
        If both starts leave some state with no outcome above the cutoff;
        it is the computational start's refusal.
    """
    dim = channel.dim
    m = cfg.num_states
    if m > dim and not cfg.allow_overcomplete:
        raise DimensionMismatchError(
            f"{m} states exceed dimension {dim}; set allow_overcomplete to permit"
        )
    general = cfg.general_povm
    outcomes = dim * dim if general else dim
    kraus = channel.kraus
    bound = _objective_bound(kraus, dim, m, outcomes, cfg.eps_support)
    # Basis indices tile cyclically when m > dim; exact repeats are the best
    # an overcomplete aligned start can do.
    eye = np.eye(dim, dtype=np.complex128)
    computational = (eye[np.arange(m) % dim], _aligned_meas(eye, dim, general, outcomes))
    best = _scored(channel, cfg, computational)
    if best[0] < bound:
        rng = np.random.default_rng(cfg.seed)
        s_start = _scored(channel, cfg, _s_start(kraus, m, general, outcomes, rng))
        if s_start[0] > best[0]:
            best = s_start
    pair_count, states, povm, graph = best
    if pair_count < 0:
        raise graph
    alpha_1, _ = independence_number(graph)
    return SearchResult(
        best_states=states,
        best_povm=povm,
        graph=graph,
        pair_count=pair_count,
        alpha_1=alpha_1,
        config=cfg,
        objective_bound=bound,
    )
