"""Lovász theta by accelerated ADMM, with a certified duality gap.

theta(G) upper-bounds the zero-error rate of any graph: alpha(G^boxtimes n)
<= theta(G)^n, so log2(theta) caps every achievable rate computed in this
package.  The number solved for here is the standard SDP

    maximize    sum_ij B_ij
    subject to  tr(B) = 1,  B_ij = 0 for every edge ij,  B PSD.

The solver is self-contained (no external SDP dependency).  One ADMM step
projects onto the PSD cone (eigendecompose, clip negative eigenvalues) and
onto the affine constraints (zero the edge entries, shift the diagonal to fix
the trace - the two are orthogonal, so this is an exact Euclidean
projection), with a scaled dual update in between.  Written on y = x + u
(Douglas-Rachford form) the step is a fixed-point map T:

    z = P_psd(y),  u = y - z,  x = P_affine(z - u + J/rho),  T(y) = x + u,

with fixed-point residual T(y) - y = x - z.  The costly part of T is
P_psd.  A fresh V x V eigendecomposition is most of the solver's time, so
the projection keeps the eigenbasis Q of the last one and reuses it while
it still diagonalises the argument S: when |offdiag Q^T S Q|_F is within
10^3 * n * eps * |S|_F, eigh's own rounding order, P_psd(S) is taken as Q
max(diag Q^T S Q, 0) Q^T, which is off by at most that norm because P_psd
is nonexpansive.  On a symmetric graph every iterate stays in the
commutative algebra spanned by the data (Gatermann & Parrilo, J. Pure
Appl. Algebra 2004; de Klerk, Pasechnik & Schrijver, Math. Program. 2007),
so an eigenbasis of one iterate diagonalises the later ones: odd-cycle
products, Kneser and Paley graphs take one to three eigendecompositions per
solve.  On other
graphs the test fails by about twelve orders of magnitude; after a failed
try the next waits until the projection count has doubled, and the
projection is the eigendecomposition it would be without the try.

Plain ADMM iterates y <- T(y).  This solver extrapolates instead (type-II
Anderson acceleration; Zhang, O'Donoghue & Boyd, SIAM J. Optim. 2020; Fu,
Zhang & Boyd, SIAM J. Sci. Comput. 2020): it keeps the last few differences
of f = T(y) - y and of T(y), finds the combination gamma that best cancels
the current f, and steps to T(y) - sum_i gamma_i dT_i.  Three safeguards
keep the plain step as the fallback:

* an extrapolated point whose residual |x - z| exceeds that of the point it
  was built from is rejected: the solver takes the plain step T(y) from that
  point instead and clears the history;
* extrapolations with non-finite or large coefficients (sum |gamma_i| above
  a fixed bound) are refused, and the plain step is taken;
* the history is cleared whenever residual balancing changes rho, since a
  new rho is a new map.

Every 25 steps the step is plain and a check runs on it, and residual
balancing moves the step size rho, which starts at 1, there.  When the primal
and dual residuals are within a factor of 10^3 of each other, the rule is the
usual one (Boyd et al., Found. Trends Mach. Learn. 2011, sec. 3.4.1): double
rho when the primal residual is over ten times the dual one, halve it in the
mirrored case.  The band is measured: over every check of 60 random graphs
G(V, p) with V from 12 to 30, the ratio stayed within 10^1.34, so those
solves take the same steps as under the factor-2 rule alone.  Past the
band, rho moves by the square root of the ratio, capped at 64 (residual
balancing with an adaptive multiplier; Wohlberg, arXiv:1704.06209, 2017).
Strong products of odd cycles reach such ratios, 10^8 to 10^13, once z
has stopped moving while x has not; doubling rho once per check took about
100 steps to close that gap, which one step of the capped factor closes.  In
between, the first time the fixed-point residual falls below ``tol / 10``
the solver also checks the plain step from the current point, computed
aside: one more projection that leaves the sequence of steps as it is.  A
solve therefore stops no later than at the step it would stop at without
these extra checks, its count raised by one per extra check, unless those
extra projections use up the budget first.  The trigger waits for a tenth
of ``tol`` because the bracket lags the residual: on K(8,3), K(9,3),
C5 x C7 and C7 x C7 it is still open at the residual's first step below
``tol`` and closes about two steps later.  Only a 25-step check whose
residual is at or above ``tol`` re-arms the trigger, so a graph whose
bracket lags its residual further pays for at most one extra check per
re-arming.

The convergence test is not the raw residuals alone: each check also builds
a *certified* bracket [lower, upper] containing theta.  The PSD iterate is
rounded to an exactly feasible primal point (edges zeroed, diagonal inflated
until PSD, trace renormalized), whose objective is a true lower bound; the
scaled dual variable supplies an edge-supported dual candidate Z, and
lambda_max(J + Z) is a true upper bound for ANY such Z by weak duality.
Both eigenvalues are widened by their rounding allowance, n * eps * |A|_F,
so the bracket holds theta in floating point too.  Both bounds hold for any
iterate, extrapolated or projected through a reused basis, since both
eigenvalues are computed afresh.  Iteration stops only when primal
residual, dual residual, and bracket width are all below ``tol``; a solve
whose budget runs out returns the tightest bracket seen, marked
``converged=False``.  So does a solve whose eigendecomposition fails to
converge (LAPACK can, even on a well-scaled matrix), with the bracket of
its last accepted point folded in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError
from .graphs import Graph

__all__ = ["MAX_SDP_VERTICES", "ThetaResult", "lovasz_theta"]

MAX_SDP_VERTICES = 100

_CHECK_EVERY = 25  # residual/gap checks and rho adaptation cadence
# The check aside fires the first time the fixed-point residual falls below
# tol / _TRIGGER_DIVISOR.  At the residual's first step below tol the bracket
# of K(8,3), K(9,3), C5xC7 and C7xC7 is still open; it closes about two steps
# later, below tol / 10.  Totals over the benchmark's ten symmetric graphs
# (relabelling 0) and the 31 random graphs of the tests' factor-2 corpus, by
# divisor: 1 gave (325, 10,804), 2 (309, 10,796), 3 (299, 10,794), 5 (299,
# 10,790), 10 (275, 10,772), 30 (276, 10,740), 100 (279, 10,759).  Under 10
# no solve rose, neither a random one nor a symmetric one under relabellings
# 0-11 (3,894 to 3,294 iterations in all).  Re-arming at tol / 10 as well
# lowered the random total but raised one graph, so a check re-arms at tol.
_TRIGGER_DIVISOR = 10.0
_MAX_ITERATIONS = 50_000  # budget of PSD projections per solve
_MEMORY = 10  # Anderson history length; costs 2 * _MEMORY * V^2 doubles
_MAX_COEFFICIENT_SUM = 100.0  # extrapolations with larger sum |gamma| are refused
_REGULARIZATION = 1e-10  # relative weight on the diagonal of the history's Gram matrix
_EPS = float(np.finfo(float).eps)
# Residual ratios within this factor either way get the factor-2 rule.  Over
# every check of 60 random graphs G(V, p) (V in {12, 16, 20, 24, 30},
# p in {.3, .5, .7}, seeds 0-3) the ratio stayed within 10^1.34 either way,
# so those solves take the steps they took under the factor-2 rule alone.
# Cycle products stall far outside it, at 10^8.4 (C5 x C9) to 10^13.4
# (C7 x C7): z has stopped moving while x has not, and doubling rho once
# per check took about 100 steps to close that gap.
_BALANCE_BAND = 1e3
# Cap on the factor past the band.  The ratio at those stalls is so large
# that the factor is the cap.  Iterations of C7xC7 / C5xC9 / C7xC9 / C9xC9
# over labellings 0-11 with caps 16, 32, 48, 64 and 128: 35/63-64/47/47-49,
# 38/62/39-44/46, 37-38/63/38/39, 37/65/38-39/36, 51/65/38/40 (41-42/73-74/
# 73-84/100-107 under the factor-2 rule).  64 minimises the V^3-weighted
# sum, which is what the eigendecompositions cost; with a cap of 10^6 C7xC7
# takes 262-611.
_MAX_RESCALE = 64.0
# A held eigenbasis Q is reused for S when |offdiag Q^T S Q|_F is at most
# this many n * eps * |S|_F, eigh's own rounding order.  P_psd is
# nonexpansive, so the reused projection is then off by at most that much.
# Over the cycle products, Kneser and Paley graphs of the benchmark, 12
# labellings each, accepted tries measured at most 3.7 of these units and
# rejected ones at least 1.4e12; on 60 random graphs G(V, p), V from 12 to
# 30, every try was rejected.
_REUSE_TOLERANCE = 1e3


@dataclass(frozen=True)
class ThetaResult:
    """Certified output of the theta solver.

    ``value`` is the bracket midpoint; ``theta`` lies in
    ``[lower, upper]``, and ``gap = upper - lower <= tol`` when converged.
    An unconverged result carries the tightest bracket the solver certified.
    """

    value: float
    lower: float
    upper: float
    gap: float
    iterations: int
    converged: bool


def _norm(v: np.ndarray) -> float:
    # np.linalg.norm(v) with ord=None, without its wrapper: the same dot product.
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


class _PsdProjector:
    """P_psd for one solve, reusing the last eigenbasis while it diagonalises.

    Each call projects S = (m + m^T)/2.  When a basis Q from an earlier
    ``eigh`` is held and a try is due, D = Q^T S Q is formed; if its
    off-diagonal part is within ``_REUSE_TOLERANCE * n * eps * |S|_F``, the
    projection is Q max(diag D, 0) Q^T.  Otherwise ``eigh`` runs as it
    would with no basis held, and its vectors are kept.  After a rejected
    try, none is made again until the projection count has doubled.
    """

    def __init__(self) -> None:
        self.vecs: np.ndarray | None = None  # eigenvectors of the last eigh
        self.count = 0  # projections made
        self.next_try = 0  # the count from which a reuse may be tried

    def __call__(self, m: np.ndarray) -> np.ndarray:
        s = m + m.T
        s *= 0.5
        self.count += 1
        if self.vecs is not None and self.count >= self.next_try:
            q = self.vecs
            d = q.T @ s @ q
            vals = d.diagonal().copy()
            d.reshape(-1)[:: len(s) + 1] = 0.0
            if _norm(d) <= _REUSE_TOLERANCE * len(s) * _EPS * _norm(s):
                np.maximum(vals, 0.0, out=vals)
                return (q * vals) @ q.T
            self.next_try = 2 * self.count
        vals, vecs = np.linalg.eigh(s)
        self.vecs = vecs
        np.maximum(vals, 0.0, out=vals)
        return (vecs * vals) @ vecs.T


def _rho_scale(r_primal: float, r_dual: float) -> float:
    """The factor a check multiplies rho by, from ADMM's two residuals.

    Within ``_BALANCE_BAND`` either way: 2 when the primal residual is over
    ten times the dual one, 1/2 in the mirrored case, else 1.  Past it: the
    square root of the ratio, capped at ``_MAX_RESCALE``, or its reciprocal;
    a zero residual against a positive one counts as an infinite ratio.
    """
    if r_primal < r_dual:
        return 1.0 / _rho_scale(r_dual, r_primal)
    if r_primal > _BALANCE_BAND * r_dual:
        return min(math.sqrt(r_primal / r_dual), _MAX_RESCALE) if r_dual else _MAX_RESCALE
    return 2.0 if r_primal > 10.0 * r_dual else 1.0


def _certified_bracket(
    z: np.ndarray, u: np.ndarray, rho: float, edges: np.ndarray, n: int
) -> tuple[float, float]:
    # eigvalsh is backward stable, so by Weyl each eigenvalue it returns may
    # be off by about n * eps * |m|_F.  Both ends concede that; without it the
    # upper end for an edgeless graph falls just below theta = n.
    # Lower bound: round the PSD iterate to an exactly feasible point.
    # ``edges`` holds the flat indices of both orientations of every edge.
    b = z + z.T
    b *= 0.5
    b.reshape(-1)[edges] = 0.0
    lam_min = float(np.linalg.eigvalsh(b)[0]) - n * _EPS * _norm(b)
    if lam_min < 0.0:
        b.reshape(-1)[:: n + 1] -= lam_min
    tr = float(b.trace())
    if tr <= 0.0:
        b = np.eye(n)
        tr = float(n)
    b /= tr
    lower = float(b.sum())
    # Upper bound: any edge-supported Z gives theta <= lambda_max(J + Z) by
    # weak duality.  At a fixed point rho*U = J - y*I - Lambda, so on an edge
    # (J + Z)_ij = 1 - Lambda_ij = rho*U_ij; off edges J + Z is all ones.
    a = np.ones((n, n))
    a.reshape(-1)[edges] = rho * u.reshape(-1)[edges]
    a = a + a.T
    a *= 0.5
    upper = float(np.linalg.eigvalsh(a)[-1]) + n * _EPS * _norm(a)
    return lower, upper


def lovasz_theta(g: Graph, tol: float = 1e-6) -> ThetaResult:
    """Compute theta(G) with a certified duality gap at most ``tol``.

    Parameters
    ----------
    g : Graph
    tol : float, optional
        Bound on the primal residual, dual residual, and certified bracket
        width at termination.

    Returns
    -------
    ThetaResult
        ``result.value`` is within ``tol/2`` of theta(G) on convergence.
        When the budget of 50,000 PSD projections (fresh or through a
        reused eigenbasis) runs out first, ``converged`` is False and the
        bracket is the tightest certified one seen (over all checks).  When
        an eigendecomposition fails to converge, ``converged`` is False and
        the bracket is that one tightened by the bracket of the last accepted
        point, which is the start when the first projection fails.

    Raises
    ------
    SizeLimitError
        If the graph exceeds ``MAX_SDP_VERTICES`` vertices; each projection
        is O(V^3).
    ValueError
        If ``tol`` is not positive (a NaN ``tol`` included).

    Notes
    -----
    Sanity anchors: theta(K_n) = 1, theta(edgeless_n) = n, theta(C5) =
    sqrt(5).  The iteration is the ADMM step written as the fixed-point map
    T(y) = x + u on y = x + u, extrapolated by Anderson acceleration over
    the last 10 steps (see the module docstring).  An extrapolated point is
    kept only if its fixed-point residual |x - z| is no larger than that of
    the point it came from; otherwise the plain step T(y) is taken and the
    history cleared.  Extrapolations with non-finite coefficients or
    sum |gamma| above 100 are refused, and a change of rho clears the
    history.  The step into each check is plain, so the stop rule reads
    ADMM's own primal and dual residuals.  Checks run every 25 steps, where
    rho (starting at 1) is rebalanced, which changes only speed, never the
    limit: by a factor of 2 when one residual is over ten times the other
    and their ratio is within 10^3 (the measured range on random graphs),
    and by the square root of the ratio, capped at 64, past it (Boyd et al.
    2011, sec. 3.4.1; Wohlberg 2017, arXiv:1704.06209).  The first time
    the fixed-point residual falls below ``tol / 10`` (again after a check
    that found it at or above ``tol``), the plain step from that point is
    also checked, computed aside so the steps are unchanged.  A projection
    reuses the eigenbasis of the last eigendecomposition while the
    off-diagonal part of the new matrix in that basis is within 10^3 times
    eigh's rounding order; on symmetric graphs one to three bases serve
    the whole solve, while on others a failed try is repeated only once
    the projection count has doubled (see the module docstring).
    ``iterations`` counts PSD projections, fresh or reused, rejected
    extrapolations and those extra checks included.
    """
    n = g.vertex_count
    if n > MAX_SDP_VERTICES:
        raise SizeLimitError(n, MAX_SDP_VERTICES)
    if not tol > 0:  # also refuses NaN
        raise ValueError(f"tol must be positive, got {tol!r}")
    max_iterations = _MAX_ITERATIONS

    edges = np.flatnonzero(g._adjacency())  # flat indices of v[a, b] and v[b, a]

    def affine(z: np.ndarray, u: np.ndarray) -> np.ndarray:
        # x = P_affine(z - u + J/rho), the projection onto the affine set:
        # zero the edges, shift the diagonal to fix the trace.
        x = z - u
        x += j_rho
        flat = x.reshape(-1)
        flat[edges] = 0.0
        flat[:: n + 1] += (1.0 - x.trace()) / n
        return x

    def measure(z, u, x_prev, z_prev):
        # The stop test's quantities after the plain step z = P_psd(x_prev +
        # u_prev) from the state (z_prev, u_prev) that x_prev came from:
        # ADMM's primal and dual residuals, and the certified bracket, which
        # replaces the tightest one so far only when it meets the stop test.
        nonlocal lower, upper
        r_primal = _norm(x_prev - z)
        r_dual = rho * _norm(z - z_prev)
        lo, up = _certified_bracket(z, u, rho, edges, n)
        done = r_primal < tol and r_dual < tol and up - lo < tol
        lower, upper = (lo, up) if done else (max(lower, lo), min(upper, up))
        return done, r_primal, r_dual

    project = _PsdProjector()
    j = np.ones((n, n))
    rho = 1.0
    j_rho = j / rho
    z_prev = np.eye(n) / n
    u_prev = np.zeros((n, n))
    x_prev = affine(z_prev, u_prev)
    y = x_prev

    # Anderson history, a ring of the last _MEMORY differences between
    # consecutive accepted points: rows of d_f hold those of f = T(y) - y,
    # rows of d_t those of T(y); gram = d_f d_f^T, diagonal inflated by
    # _REGULARIZATION.
    d_f = np.empty((_MEMORY, n * n))
    d_t = np.empty((_MEMORY, n * n))
    gram = np.empty((_MEMORY, _MEMORY))
    depth = slot = 0
    f_prev = t_prev = None
    r_prev = np.inf
    extrapolated = False
    # Whether a fixed-point residual below tol triggers a check aside.
    armed = True

    lower, upper, done = -np.inf, np.inf, False
    it = steps = 0  # PSD projections; steps of the iteration (the cadence)
    try:
        while it < max_iterations:
            z = project(y)
            it += 1
            steps += 1
            u = y - z
            x = affine(z, u)
            f = (x - z).ravel()
            r = _norm(f)
            if extrapolated and r > r_prev:
                # Safeguard: the extrapolation raised the residual.  Take the
                # plain step from the last accepted point and drop the history.
                y = t_prev.reshape(n, n)
                extrapolated = False
                depth = slot = 0
                continue

            if steps % _CHECK_EVERY == 0 or it == max_iterations:
                # The step into this point was plain, so these are the ADMM
                # primal and dual residuals.
                done, r_primal, r_dual = measure(z, u, x_prev, z_prev)
                if done:
                    break
                # Residual balancing.  A new rho is a new map T, so the history
                # no longer describes it.
                scale = _rho_scale(r_primal, r_dual)
                if scale != 1.0:
                    rho *= scale
                    u /= scale
                    j_rho = j / rho
                    x = affine(z, u)
                    f = (x - z).ravel()
                    r = _norm(f)
                    depth = slot = 0
                    f_prev = None
                armed = r >= tol
            z_prev, x_prev, u_prev = z, x, u

            t = (x + u).ravel()
            if f_prev is not None:
                np.subtract(f, f_prev, out=d_f[slot])
                np.subtract(t, t_prev, out=d_t[slot])
                depth = min(depth + 1, _MEMORY)
                col = d_f[:depth] @ d_f[slot]
                gram[slot, :depth] = col
                gram[:depth, slot] = col
                gram[slot, slot] *= 1.0 + _REGULARIZATION
                slot = (slot + 1) % _MEMORY
            f_prev, t_prev, r_prev = f, t, r

            if (
                armed
                and r < tol / _TRIGGER_DIVISOR
                and (steps + 1) % _CHECK_EVERY
                and it + 2 < max_iterations
            ):
                # The residual has just fallen below tol / _TRIGGER_DIVISOR, and
                # the bracket has often closed by then: check the plain step
                # from here, aside, so the steps go on as if it had not been
                # taken.  (When the next step is a check anyway, this one is
                # left to it.)
                armed = False
                t_plain = t.reshape(n, n)
                z_plain = project(t_plain)
                it += 1
                done, _, _ = measure(z_plain, t_plain - z_plain, x, z)
                if done:
                    break

            # Type-II Anderson step: gamma minimises |f - d_f^T gamma|, and the
            # next point is T(y) - d_t^T gamma.  The step into a check and the
            # last step stay plain.
            y = t.reshape(n, n)
            extrapolated = False
            if depth and (steps + 1) % _CHECK_EVERY and it + 1 < max_iterations:
                try:
                    gamma = np.linalg.solve(gram[:depth, :depth], d_f[:depth] @ f)
                except np.linalg.LinAlgError:  # singular history: stay plain
                    continue
                # A NaN sum fails the comparison too.
                if sum(map(abs, gamma.tolist())) <= _MAX_COEFFICIENT_SUM:
                    y = (t - gamma @ d_t[:depth]).reshape(n, n)
                    extrapolated = True
    except np.linalg.LinAlgError:
        # LAPACK's eigh can fail to converge even on a finite, well-scaled
        # iterate.  Stop unconverged, with the tightest bracket seen
        # tightened by that of the last accepted point (the start, if none
        # was accepted).
        lo, up = _certified_bracket(z_prev, u_prev, rho, edges, n)
        lower, upper = max(lower, lo), min(upper, up)

    return ThetaResult((lower + upper) / 2.0, lower, upper, upper - lower, it, done)
