"""Hill-climbing search for state/POVM pairs with many distinguishable pairs.

The one-shot structure of a channel depends on which states are sent and
which POVM reads them out.  An *optimum* pair maximizes the number of
one-shot-distinguishable (non-adjacent) state pairs; only an optimum pair
realizes the channel's full zero-error capacity, so the search below is the
bridge from "a channel" to "its confusability graph".

The objective is integer-valued and flat almost everywhere: for an identity
or classical channel the good configurations are exact alignments of states
with measurement directions, a measure-zero target blind local moves cannot
hit.  Each restart therefore climbs from the best of four starts, scored in
this order - the computational-basis-aligned pair, the S-start, a
Haar-aligned pair (random basis used for both states and POVM), and a fully
random pair - and the result can only improve on them.  Ties go to the
earlier start.  A point where some state's support is empty scores -1, below
every valid point, since ``confusability_graph`` refuses it.

The S-start comes from the channel's operator space S = span{K_i^dagger K_j}
(Duan, Severini & Winter, arXiv:1002.2514): pure inputs a, b are zero-error
distinguishable by some measurement iff <a|B|b> = 0 for every B in S.  Its
states are the eigenbasis of a random Hermitian element of S, which is
exactly zero-error when S is commutative, and its measurement is built from
the output ranges span{K_i a}.

From its start a restart takes small random rotations of one state or of the
measurement, keeping each that scores at least as well as the current point
(so it can cross plateaus) and recording the best point only on a strict
improvement.  It climbs only while its best score is below an upper bound on
the objective: M(M-1)/2 pairs, or none when the channel puts a common outcome
in every state's support (see ``_objective_bound``).  A restart at the bound
stops scoring starts and proposals and records its best for the remaining
iterations, which is the trace and the point the full run would give, since
nothing can beat the bound.  Restart r draws everything, its S-start first,
from the generator seeded ``seed + r``, made when the first draw needs it,
so it is exactly the one-restart run at that seed; the best restart is
chosen deterministically, so runs are reproducible bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .confusability import (
    DEFAULT_EPS,
    ConfusabilityGraph,
    StateSet,
    _check_eps,
    _supports_meet,
    confusability_graph,
    non_adjacent_pair_count,
)
from .errors import DimensionMismatchError
from .graphs import independence_number
from .quantum import (
    Povm,
    QuantumChannel,
    _haar_q,
    _projective_povm,
    haar_unitary,
    pure_state,
    validate_povm,
)

__all__ = [
    "SearchConfig",
    "SearchResult",
    "optimize_pair",
]

_STEP = 0.15  # magnitude of the random unitary proposal rotations (radians-ish)
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
    restarts, iterations : int
        Independent hill-climbing restarts and proposals per restart.
    seed : int
        Restart r uses the generator seeded with ``seed + r``.
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
    restarts: int = 32
    iterations: int = 2000
    seed: int = 7
    eps_support: float = DEFAULT_EPS
    general_povm: bool = False
    allow_overcomplete: bool = False

    def __post_init__(self):
        if self.num_states < 2:
            raise ValueError("num_states must be >= 2: pairs need two states")
        if self.restarts < 1 or self.iterations < 0:
            raise ValueError("restarts must be >= 1 and iterations >= 0")
        _check_eps(self.eps_support)


@dataclass(frozen=True)
class SearchResult:
    """Best pair found, its graph, and per-restart objective traces.

    ``objective_bound`` is the upper bound on the objective at which a
    restart stops; ``proposals`` counts the hill-climbing proposals scored
    over all restarts, starts excluded.
    """

    best_states: StateSet
    best_povm: Povm
    graph: ConfusabilityGraph
    pair_count: int
    alpha_1: int
    best_restart: int
    history: tuple[tuple[float, ...], ...]
    config: SearchConfig
    objective_bound: float
    proposals: int


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------


def _random_state_vectors(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _random_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return _haar_q(rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))


def _povm_from_isometry(iso: np.ndarray, dim: int, outcomes: int) -> Povm:
    """E_j = V_j^dagger V_j for the j-th dim x dim block V_j of the stacked isometry."""
    blocks = iso.reshape(outcomes, dim, dim)
    return validate_povm([b.conj().T @ b for b in blocks])


def _small_rotation(dim: int, step: float, rng: np.random.Generator) -> np.ndarray:
    # exp(i*step*H) with H Gaussian Hermitian scaled to unit typical eigenvalue.
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / 2.0
    h /= np.linalg.norm(h) / math.sqrt(dim)
    lam, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * step * lam)) @ vecs.conj().T


def _prob_table(
    kraus: np.ndarray,
    cand: tuple[np.ndarray, np.ndarray],
    general: bool,
    outcomes: int,
) -> np.ndarray:
    """p[k, j] = tr(E(|v_k><v_k|) E_j) at the search point ``cand`` = (vecs, meas).

    vecs: (M, dim) unit rows; meas: a unitary (projective) or stacked isometry (general).
    """
    vecs, meas = cand
    v = vecs.T  # (dim, M)
    # The axis-0 sums add the K Kraus terms in order, as a loop would.
    if general:
        w = (meas @ (kraus @ v)).reshape(len(kraus), outcomes, v.shape[0], -1)  # (K, N, dim, M)
        return (np.abs(w) ** 2).sum(axis=2).sum(axis=0).T
    amp = meas.conj().T @ (kraus @ v)  # (K, N, M)
    return (np.abs(amp) ** 2).sum(axis=0).T


def _pair_count(p: np.ndarray, eps: float) -> int:
    """Pairs of rows of ``p`` with disjoint supports, or -1 if some support is empty."""
    shared = _supports_meet(p, eps)  # pairwise: do the supports meet
    if not shared.diagonal().all():  # confusability_graph refuses this table
        return -1
    m = p.shape[0]
    iu = np.triu_indices(m, 1)
    return int(np.count_nonzero(shared[iu] == 0))


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
    vecs = eigvecs.T[np.arange(m) % dim].copy()
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
        return u.copy()
    # Isometry whose j-th block is |u_j><u_j|, mirroring the projective
    # alignment; blocks past the dim-th are zero.
    iso = np.zeros((outcomes, dim, dim), dtype=np.complex128)
    iso[:dim] = u.T[:, :, None] * u.T.conj()[:, None, :]
    return iso.reshape(outcomes * dim, dim)


def _starts(
    kraus: np.ndarray,
    m: int,
    general: bool,
    outcomes: int,
    draw: Callable[[], np.random.Generator],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The four starts in scoring order, each drawn from ``draw()`` only when reached."""
    dim = kraus[0].shape[1]
    # Basis indices tile cyclically when m > dim; exact repeats are the best
    # an overcomplete aligned start can do.
    tile = np.arange(m) % dim
    # Computational alignment: recovers classical structure exactly.
    eye = np.eye(dim, dtype=np.complex128)
    yield eye[tile].copy(), _aligned_meas(eye, dim, general, outcomes)
    rng = draw()
    yield _s_start(kraus, m, general, outcomes, rng)
    # Haar alignment: same basis for states and measurement.
    u = haar_unitary(dim, rng)
    yield u.T[tile].copy(), _aligned_meas(u, dim, general, outcomes)
    # Fully random pair.
    vecs = _random_state_vectors(dim, m, rng)
    if general:
        meas = _random_isometry(outcomes * dim, dim, rng)
    else:
        meas = haar_unitary(dim, rng)
    yield vecs, meas


def _propose(
    cand: tuple[np.ndarray, np.ndarray], rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Rotate one state or the measurement; the array left unchanged is shared."""
    vecs, meas = cand
    m, dim = vecs.shape
    target = int(rng.integers(0, m + 1))
    if target < m:
        vecs = vecs.copy()
        vecs[target] = _small_rotation(dim, _STEP, rng) @ vecs[target]
    else:
        meas = _small_rotation(meas.shape[0], _STEP, rng) @ meas
    return vecs, meas


def _run_restart(
    kraus: np.ndarray,
    cfg: SearchConfig,
    restart_index: int,
    outcomes: int,
    bound: float,
) -> tuple[float, tuple[np.ndarray, np.ndarray], list[float], int]:
    rng = None
    general = cfg.general_povm

    def draw() -> np.random.Generator:
        # Made on first use: a restart that stops at the computational start
        # draws nothing, and then never imports numpy.random.
        nonlocal rng
        if rng is None:
            rng = np.random.default_rng(cfg.seed + restart_index)
        return rng

    def score(cand: tuple[np.ndarray, np.ndarray]) -> float:
        return float(_pair_count(_prob_table(kraus, cand, general, outcomes), cfg.eps_support))

    best, best_score = None, -math.inf
    for cand in _starts(kraus, cfg.num_states, general, outcomes, draw):
        sc = score(cand)
        if sc > best_score:
            best, best_score = cand, sc
        if best_score >= bound:
            break

    # Hill climb: move to every proposal that scores no worse (crossing
    # plateaus), and move the best only on a strict improvement.
    current = best
    history: list[float] = []
    while len(history) < cfg.iterations and best_score < bound:
        proposal = _propose(current, draw())
        sc = score(proposal)
        if sc >= best_score:
            current = proposal
            if sc > best_score:
                best, best_score = proposal, sc
        history.append(best_score)
    proposals = len(history)
    history += [best_score] * (cfg.iterations - proposals)
    return best_score, best, history, proposals


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


def optimize_pair(channel: QuantumChannel, cfg: SearchConfig) -> SearchResult:
    """Search for a (states, POVM) pair maximizing non-adjacent pairs.

    Parameters
    ----------
    channel : QuantumChannel
    cfg : SearchConfig

    Returns
    -------
    SearchResult
        ``pair_count`` is recomputed from the returned (states, POVM) with
        the public graph constructor, so the reported graph and count are
        exactly reproducible from the result's own fields.

    Raises
    ------
    DimensionMismatchError
        If ``cfg.num_states`` exceeds the channel dimension without
        ``allow_overcomplete``.
    """
    dim = channel.dim
    m = cfg.num_states
    if m > dim and not cfg.allow_overcomplete:
        raise DimensionMismatchError(
            f"{m} states exceed dimension {dim}; set allow_overcomplete to permit"
        )
    outcomes = dim * dim if cfg.general_povm else dim
    kraus = channel.kraus
    bound = _objective_bound(kraus, dim, m, outcomes, cfg.eps_support)
    runs = [_run_restart(kraus, cfg, r, outcomes, bound) for r in range(cfg.restarts)]

    best_restart = 0
    for r in range(1, cfg.restarts):
        if runs[r][0] > runs[best_restart][0]:
            best_restart = r
    states, povm = _ensemble(runs[best_restart][1], cfg.general_povm, cfg.allow_overcomplete)
    graph = confusability_graph(channel, states, povm, eps=cfg.eps_support)
    alpha_1, _ = independence_number(graph)
    return SearchResult(
        best_states=states,
        best_povm=povm,
        graph=graph,
        pair_count=non_adjacent_pair_count(graph),
        alpha_1=alpha_1,
        best_restart=best_restart,
        history=tuple(tuple(run[2]) for run in runs),
        config=cfg,
        objective_bound=bound,
        proposals=sum(run[3] for run in runs),
    )
