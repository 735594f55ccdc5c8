"""Support sets and the confusability graph of a (channel, states, POVM) triple.

Two input states are *confusable* when some measurement outcome occurs with
positive probability for both; they are *non-adjacent* (perfectly
distinguishable in one shot) when their outcome support sets are disjoint.
A channel has positive zero-error capacity under a given (states, POVM) pair
exactly when at least one non-adjacent pair exists, i.e. the confusability
graph is not complete.

Convention used throughout the package: graph vertices are state indices and
an EDGE means CONFUSABLE.  Zero-error codes therefore live on independent
sets, never on cliques.  The confusability graph is a :class:`Graph` carrying
its supports, so strong powers, independence numbers and theta take it as is.

"Positive probability" is numerical: ``p > eps`` with ``eps`` recorded on
every object derived from it.  Probabilities within a decade of ``eps``
(``eps/10 <= p <= 10*eps``) are counted as *fragile*; a nonzero count means
the graph could change under a small change of ``eps`` and should be treated
with suspicion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, EmptySupportError
from .graphs import Graph
from .quantum import DensityMatrix, Povm, QuantumChannel, outcome_probabilities

__all__ = [
    "DEFAULT_EPS",
    "StateSet",
    "ConfusabilityGraph",
    "support_set",
    "confusability_graph",
    "has_positive_zero_error_capacity",
    "non_adjacent_pair_count",
]

DEFAULT_EPS = 1e-9


@dataclass(frozen=True)
class StateSet:
    """An ordered collection of candidate input states on one space.

    At most ``dim`` states unless ``allow_overcomplete`` is set: more states
    than dimensions cannot all be pairwise distinguishable, so overcomplete
    sets are opt-in only.
    """

    dim: int
    states: tuple[DensityMatrix, ...]
    allow_overcomplete: bool = field(default=False, compare=False)

    def __post_init__(self):
        if len(self.states) < 1:
            raise DimensionMismatchError("a state set needs at least one state")
        for s in self.states:
            if s.dim != self.dim:
                raise DimensionMismatchError(
                    f"state of dim {s.dim} in a set of dim {self.dim}"
                )
        if len(self.states) > self.dim and not self.allow_overcomplete:
            raise DimensionMismatchError(
                f"{len(self.states)} states exceed dimension {self.dim}; "
                "pass allow_overcomplete=True to permit this"
            )

    def __len__(self) -> int:
        return len(self.states)


def _check_eps(eps: float) -> None:
    if not eps > 0:  # also refuses NaN
        raise ValueError(f"eps must be positive, got {eps!r}")


def support_set(probs: np.ndarray, eps: float = DEFAULT_EPS) -> frozenset[int]:
    """Outcome indices with probability strictly above ``eps``.

    Parameters
    ----------
    probs : numpy.ndarray
        Outcome distribution, as produced by ``outcome_probabilities``.
    eps : float, optional
        Support cutoff.  Must be positive.

    Returns
    -------
    frozenset of int

    Raises
    ------
    EmptySupportError
        If no entry exceeds ``eps``; a distribution summing to 1 with an
        empty support means ``eps`` is absurdly large for the instance.
    ValueError
        If ``eps`` is not positive (NaN included).
    """
    _check_eps(eps)
    p = np.asarray(probs, dtype=np.float64)
    idx = frozenset(int(j) for j in np.flatnonzero(p > eps))
    if not idx:
        raise EmptySupportError(eps=eps)
    return idx


@dataclass(frozen=True)
class ConfusabilityGraph(Graph):
    """Confusability graph of M states under one channel and POVM.

    A :class:`Graph` whose vertex k is state k and whose edges join confusable states.

    Attributes
    ----------
    supports : tuple of frozenset
        ``supports[k]`` is the outcome support set of state k.
    eps : float
        Cutoff the supports were computed with.
    fragile_count : int
        Number of probability entries in ``[eps/10, 10*eps]`` across all
        states and outcomes.  Nonzero means edge membership is sensitive
        to the cutoff.
    """

    supports: tuple[frozenset[int], ...]
    eps: float
    fragile_count: int = 0


def confusability_graph(
    channel: QuantumChannel,
    states: StateSet,
    povm: Povm,
    eps: float = DEFAULT_EPS,
) -> ConfusabilityGraph:
    """Build the confusability graph of ``states`` through ``channel`` under ``povm``.

    Vertex k carries the support set of ``p(.|k)``; an edge joins every pair
    of states whose supports intersect.  The graph is what every capacity
    bound downstream is computed from.

    Raises
    ------
    DimensionMismatchError
        If channel, states, and POVM dimensions disagree.
    EmptySupportError
        If some state's distribution has no entry above ``eps``.
    """
    if states.dim != channel.dim or povm.dim != channel.dim:
        raise DimensionMismatchError(
            f"dimensions disagree: channel {channel.dim}, states {states.dim}, POVM {povm.dim}"
        )
    supports: list[frozenset[int]] = []
    fragile = 0
    for k, s in enumerate(states.states):
        p = outcome_probabilities(channel, s, povm)
        fragile += int(np.count_nonzero((p >= eps / 10.0) & (p <= 10.0 * eps)))
        try:
            supports.append(support_set(p, eps))
        except EmptySupportError:
            raise EmptySupportError(state_index=k, eps=eps) from None
    m = len(supports)
    pairs = itertools.combinations(range(m), 2)
    edges = frozenset((a, b) for a, b in pairs if supports[a] & supports[b])
    return ConfusabilityGraph(
        vertex_count=m,
        edges=edges,
        supports=tuple(supports),
        eps=eps,
        fragile_count=fragile,
    )


def has_positive_zero_error_capacity(g: Graph) -> bool:
    """True iff at least one pair of states is non-adjacent.

    Equivalent to: the confusability graph is not complete, so two inputs
    can already be told apart perfectly in a single channel use.
    """
    return non_adjacent_pair_count(g) > 0


def non_adjacent_pair_count(g: Graph) -> int:
    """Number of unordered state pairs with disjoint supports.

    This is the quantity the (states, POVM) search maximizes: an optimum
    pair realizes as many one-shot-distinguishable pairs as the channel
    admits.
    """
    m = g.vertex_count
    return m * (m - 1) // 2 - len(g.edges)
