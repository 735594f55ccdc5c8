"""Per-block-length rate bounds bracketing the zero-error capacity.

For a confusability graph G, K(n) = alpha(G^boxtimes n) messages can be sent
in n uses with zero error, giving the achievable rate log2(K(n))/n.  The
supremum over n is the capacity; this module computes the finite-n lower
bounds exactly and the Lovász-theta upper bound log2(theta(G)) that no n can
beat.  Logs are base 2: rates are bits per channel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SizeLimitError
from .graphs import Graph, independence_number, strong_power
from .theta import ThetaResult, lovasz_theta

__all__ = ["RateEntry", "CapacityBounds", "capacity_bounds"]


@dataclass(frozen=True)
class RateEntry:
    """alpha and achievable rate at one block length, or why it was skipped."""

    n: int
    alpha: int | None
    rate: float | None
    witness: tuple[int, ...] | None = None
    skipped: bool = False
    reason: str | None = None


@dataclass(frozen=True)
class CapacityBounds:
    """Bracket on the zero-error capacity of one confusability graph.

    ``best_lower`` is the largest computed finite-n rate (0.0 when every
    K(n) found is 1); ``theta_upper`` is log2 of ``theta.upper``, the
    certified upper end of the theta bracket (not its midpoint), so
    ``best_lower <= theta_upper`` holds up to floating-point rounding.  An
    unconverged solve still sets ``theta`` (``converged`` False) and
    ``theta_upper``; both are None, and ``theta_failure`` says why, only
    when the size cap refused the solve.
    """

    per_n: tuple[RateEntry, ...]
    best_lower: float
    theta: ThetaResult | None
    theta_upper: float | None
    theta_failure: str | None = None


def capacity_bounds(g: Graph, n_max: int) -> CapacityBounds:
    """Compute rate lower bounds for n = 1..n_max and the theta upper bound.

    Parameters
    ----------
    g : Graph
        Confusability graph (edge = confusable).
    n_max : int
        Largest block length to attempt.  The first block length whose
        strong power or its exact alpha the graph module refuses
        (``SizeLimitError``) is recorded as a skipped entry carrying the
        refusal's message, not raised, and no larger block length is tried:
        its power is larger still.  A one-vertex graph is never refused.

    Returns
    -------
    CapacityBounds

    Notes
    -----
    A theta solve refused by the size cap is likewise recorded on the
    result instead of raised: the finite-n lower bounds remain valid and
    useful without the upper bound.  Theta is solved at the solver's
    default tolerance, 1e-6.  An unconverged solve is no failure: its
    bracket is wider than that, but its upper end still bounds the
    capacity.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    entries: list[RateEntry] = []
    best_lower = 0.0
    for n in range(1, n_max + 1):
        try:
            alpha, witness = independence_number(strong_power(g, n))
        except SizeLimitError as exc:
            entries.append(RateEntry(n=n, alpha=None, rate=None, skipped=True, reason=str(exc)))
            break
        rate = math.log2(alpha) / n
        best_lower = max(best_lower, rate)
        entries.append(RateEntry(n=n, alpha=alpha, rate=rate, witness=witness))

    theta_res: ThetaResult | None = None
    theta_failure: str | None = None
    try:
        theta_res = lovasz_theta(g)
    except SizeLimitError as exc:
        theta_failure = str(exc)

    return CapacityBounds(
        per_n=tuple(entries),
        best_lower=best_lower,
        theta=theta_res,
        theta_upper=math.log2(theta_res.upper) if theta_res is not None else None,
        theta_failure=theta_failure,
    )
