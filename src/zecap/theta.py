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
it still diagonalises the argument S.  One product SQ gives Lambda =
diag(Q^T S Q) and the residual R = SQ - Q Lambda; when |R|_F is within
10^3 * n * eps * |S|_F, eigh's own rounding order, P_psd(S) is taken as Q
max(Lambda, 0) Q^T, which is off by at most |R|_F because P_psd is
nonexpansive.  Either way only the columns with a positive eigenvalue are
multiplied.  On a symmetric graph every iterate stays in the commutative
algebra spanned by the data (Gatermann & Parrilo, J. Pure Appl. Algebra
2004; de Klerk, Pasechnik & Schrijver, Math. Program. 2007), so an
eigenbasis of one iterate diagonalises the later ones: odd-cycle products,
Kneser and Paley graphs take one or two eigendecompositions per solve.  On
other graphs the test fails (by a factor of 33 or more on 60 random
graphs), and the projection is the eigendecomposition it would be without
the try.  The basis that eigendecomposition makes is tried at the next
projection: on C5 x C9, C7 x C9 and C9 x C9, whose first basis fails once,
it serves the rest of the solve.  Each further failure in a row doubles the
wait, so a random graph pays for about log2(iterations) tries.

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
and dual residuals are within a factor of 10^3 of each other, the rule is
the usual one (Boyd et al., Found. Trends Mach. Learn. 2011, sec. 3.4.1):
double rho when the primal residual is over ten times the dual one, halve it
in the mirrored case.  Past the band, rho moves by the square root of the
ratio, capped at 64 (residual balancing with an adaptive multiplier;
Wohlberg, arXiv:1704.06209, 2017).  Strong products of odd cycles reach such
ratios, 10^9 to 10^13, once z has stopped moving while x has not, and they
get there at step 14 or 15, between checks.  So each step between checks
probes for that stall: it compares the fixed-point residual |x - z| with the
dual residual rho |z - z_prev|, and when the first is past the band above
the second, it rescales at once, as a check would, and counts the next check
25 steps from there.  A zero dual residual is no stall: z repeats exactly on
the Kneser graphs at step 7, and reading that as an infinite ratio raised
K(8,3) from 16 iterations to 33-55.  Left to the checks, the rescale came at
step 25, and at step 50 on C5 x C9, whose ratio falls back into the band the
step after the stall starts; over labellings 0-11 the probe cuts C7 x C7
from 37 iterations to 27-28, C5 x C9 from 65 to 30-31, C7 x C9 from 38-39 to
30-31 and C9 x C9 from 36 to 28-29.  The band is measured: over every step of
60 random graphs G(V, p) with V from 12 to 30, the probe's ratio stayed
below 10^2.76 and every check's within 10^1.34 either way, so those solves
take the same steps as under the factor-2 rule alone.

Between checks, the first time the fixed-point residual falls below
``tol / 10`` the solver also checks the plain step from the current point,
computed aside: one more projection that leaves the sequence of steps as
it is.  A solve therefore stops no later than at the step it would stop at
without these extra checks, its count raised by one per extra check,
unless those extra projections use up the budget first.  The trigger waits
for a tenth of ``tol`` because the bracket lags the residual: on K(8,3),
K(9,3), C5 x C7 and C7 x C7 it is still open at the residual's first step
below ``tol`` and closes about two steps later.  Only a 25-step check whose
residual is at or above ``tol`` re-arms the trigger, so a graph whose
bracket lags its residual further pays for at most one extra check per
re-arming.

The convergence test is not the raw residuals alone: each check also builds
a *certified* bracket [lower, upper] containing theta.  The PSD iterate is
rounded to an exactly feasible primal point (edges zeroed, diagonal inflated
until PSD, trace renormalized), whose objective is a true lower bound; the
scaled dual variable supplies an edge-supported dual candidate Z, and
lambda_max(J + Z) is a true upper bound for ANY such Z by weak duality.
After a projection that reused the held basis Q, both eigenvalues come
from Q and the one product AQ: by Bauer-Fike (Numer. Math. 2, 1960) every
eigenvalue of A lies within sqrt(1 + delta) / (1 - delta) * |AQ - Q
Lambda|_2 of some Lambda_i = q_i^T A q_i, where delta = |Q^T Q - I|_2 is
measured once per eigendecomposition, every rounding is bounded as in
Higham (Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.5),
and both ends are rounded outward.  That proves both ends in floating
point, whatever Q is.  When the radius exceeds 10^3 * n * eps * |A|_F, and
after every fresh eigendecomposition, the eigenvalue comes from eigvalsh
instead, widened by its rounding allowance n * eps * |A|_F (by Weyl, with
LAPACK's unstated factor taken as one).  So on symmetric graphs no check
runs eigvalsh, and random graphs, whose projections do not reuse a basis
(none of the 60 above does), get the brackets they got before, bit for
bit.  Both bounds hold for any iterate, extrapolated or projected through
a reused basis, since both eigenvalues are bounded afresh.  Iteration
stops only when primal residual, dual residual, and bracket width are all
below ``tol``; a solve whose budget runs out returns the tightest bracket
seen, marked ``converged=False``.  So does a solve whose
eigendecomposition fails to converge (LAPACK can, even on a well-scaled
matrix), with the bracket of its last accepted point folded in.
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
# Residual ratios within this factor either way get the factor-2 rule at a
# check, and a fixed-point residual more than this factor above the dual
# residual is a stall at any step between checks.  Over every step of 60 random
# graphs G(V, p) (V in {12, 16, 20, 24, 30}, p in {.3, .5, .7}, seeds 0-3)
# the check's ratio stayed within 10^1.34 either way and the stall probe's
# below 10^2.76 (G(30, .3) seed 0, at step 23, right after z repeated
# exactly at steps 19-22; below 10^1.52 on the other 59), so those solves
# take the steps they took under the factor-2 rule alone.  z also repeats
# exactly on G(24, .3) seed 0 and G(30, .3) seed 2, and on the Kneser graphs
# at step 7: a zero dual residual is no stall.  Cycle products stall far
# outside it, at 10^9 to 10^13: z has stopped moving while x has not, and
# doubling rho once per check took about 100 steps to close that gap.
_BALANCE_BAND = 1e3
# Cap on the factor past the band.  The ratio at those stalls is so large
# that the factor is the cap.  Iterations of C7xC7 / C5xC9 / C7xC9 / C9xC9
# over labellings 0-11, rescaled at the step the stall starts, with caps 16,
# 32, 48, 64, 96 and 128: 41-42/32-33/35-36/29-30, 24-25/34-35/34-35/41-42,
# 26-27/27-28/33-34/48-49, 27-28/30-31/30-31/28-29, 27-28/33-34/32-33/31-32,
# 26-27/33-34/32-33/27-28 (37/65/38-39/36 when the rescale waited for the
# check).  64 minimises the V^3-weighted sum over the benchmark's ten theta
# graphs, which is what the eigendecompositions cost (5.84e8 against 5.85e8
# at 128 and 6.3e8 to 7.2e8 at the others); with a cap of 10^6 they take
# 53-214.
_MAX_RESCALE = 64.0
# A held eigenbasis Q is reused for S when |SQ - Q Lambda|_F, Lambda =
# diag(Q^T S Q), is at most this many n * eps * |S|_F, eigh's own rounding
# order.  P_psd is nonexpansive, so the reused projection is then off by at
# most that much.  Over the cycle products, Kneser and Paley graphs of the
# benchmark, 12 labellings each, accepted tries measured at most 1.8 of these
# units and rejected ones at least 1.4e12; on 60 random graphs G(V, p), V
# from 12 to 30, every try was rejected, at 3.3e4 units or more.  The same
# bound decides whether the held basis gives a bracket matrix's eigenvalues:
# its Bauer-Fike radius measured 2.8 to 12.1 units on those graphs' checks.
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
    ``eigh`` is held and a try is due, the one product SQ gives Lambda =
    diag(Q^T S Q) and the residual R = SQ - Q Lambda; if |R|_F is within
    ``_REUSE_TOLERANCE * n * eps * |S|_F``, the projection is Q max(Lambda,
    0) Q^T.  Otherwise ``eigh`` runs as it would with no basis held, and its
    vectors are kept.  The first try after a rejected one comes at the next
    projection, with the basis that ``eigh`` has just made; each further
    rejection in a row doubles the wait.  Both paths multiply only the
    columns whose eigenvalue is positive.

    After a reused projection the held basis also bounds the spectrum of
    any symmetric matrix it fits (:meth:`spectrum`), which is how the
    bracket gets its eigenvalues.
    """

    def __init__(self) -> None:
        self.vecs: np.ndarray | None = None  # eigenvectors of the last eigh
        self.delta: float | None = None  # bound on |Q^T Q - I|_2, once measured
        self.count = 0  # projections made
        self.next_try = 0  # the count from which a reuse may be tried
        self.wait = 1  # projections from a rejected try to the next try
        self.reused = False  # whether the last projection reused the basis

    def __call__(self, m: np.ndarray) -> np.ndarray:
        s = m + m.T
        s *= 0.5
        self.count += 1
        if self.vecs is not None and self.count >= self.next_try:
            q = self.vecs
            vals, r = _residual(s, q)
            if _norm(r) <= _REUSE_TOLERANCE * len(s) * _EPS * _norm(s):
                self.wait, self.reused = 1, True
                keep = vals > 0.0
                w = q[:, keep]
                return (w * vals[keep]) @ w.T
            self.next_try = self.count + self.wait
            self.wait *= 2
        self.reused = False
        vals, vecs = np.linalg.eigh(s)
        self.vecs, self.delta = vecs, None
        k = int(np.searchsorted(vals, 0.0, side="right"))  # eigh sorts vals ascending
        w = vecs[:, k:]
        return (w * vals[k:]) @ w.T

    def spectrum(self, a: np.ndarray, norm_a: float) -> tuple[float, float] | None:
        """Certified [lo, hi] holding every eigenvalue of the symmetric ``a``,
        whose Frobenius norm is ``norm_a``, from the held basis; None unless
        the last projection reused that basis and its radius for ``a`` is
        within ``_REUSE_TOLERANCE * n * eps * norm_a``.

        The first condition keeps random graphs on eigvalsh: a basis fresh
        from ``eigh`` fitted a bracket matrix of 4 of the 60 random graphs
        of the tests' corpus near convergence, at 2.4 to 787 units, and
        moved their brackets by up to 1e-10.
        """
        if not self.reused:
            return None
        if self.delta is None:
            self.delta = _orthogonality(self.vecs)
        lo, hi, radius = _enclosure(a, self.vecs, self.delta)
        if radius <= _REUSE_TOLERANCE * len(a) * _EPS * norm_a:
            return lo, hi
        return None


def _residual(a: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lambda = diag(Q^T a Q) and R = aQ - Q Lambda, from the one product aQ."""
    r = a @ q
    lam = np.einsum("ij,ij->j", q, r)
    r -= q * lam
    return lam, r


def _gamma(k: int) -> float:
    # Higham's gamma_k = k u / (1 - k u), u = eps / 2: a k-term dot product's
    # error is at most gamma_k times the dot product of the absolute values.
    ku = k * _EPS / 2.0
    return ku / (1.0 - ku)


def _orthogonality(q: np.ndarray) -> float:
    """An upper bound on delta = |Q^T Q - I|_2 for the float matrix ``q``.

    The 2-norm of the symmetric G - I is at most its largest absolute row
    sum, and |fl(Q^T Q) - Q^T Q| <= gamma_n |Q^T| |Q| entrywise (Higham,
    sec. 3.5), whose 2-norm is at most |Q|_F^2.  Every other rounding is of a
    sum of nonnegative terms and is covered by one factor.
    """
    n = len(q)
    g = q.T @ q
    g.reshape(-1)[:: n + 1] -= 1.0
    q_f = _norm(q)
    rows = float(np.abs(g).sum(axis=1).max())
    return (rows + _gamma(n) * q_f * q_f) * (1.0 + _gamma(n * n + 8))


def _enclosure(a: np.ndarray, q: np.ndarray, delta: float) -> tuple[float, float, float]:
    """(lo, hi, radius): every eigenvalue of the symmetric float matrix ``a``
    lies within ``radius`` of some Lambda_i = q_i^T a q_i, so in [lo, hi].

    Bauer-Fike (Numer. Math. 2, 1960) with eigenvector matrix Q: a = Q Lambda
    Q^-1 + E Q^-1 with E = aQ - Q Lambda, so each eigenvalue of a lies within
    kappa(Q) |E Q^-1|_2 <= sqrt(1 + delta) / (1 - delta) |E|_2 of some
    Lambda_i, where delta >= |Q^T Q - I|_2.  Lambda needs no accuracy, only
    E's bound: the computed R = fl(fl(aQ) - fl(Q Lambda)) differs from E by
    at most gamma_n |a| |Q| + u |Q| |Lambda| + gamma_1 |R| entrywise (Higham,
    sec. 3.5).  The norms round once more, and both ends are rounded
    outward.  With delta >= 1 the radius is infinite.
    """
    if not delta < 1.0:
        return -math.inf, math.inf, math.inf
    n = len(a)
    lam, r = _residual(a, q)
    q_f = _norm(q)
    lam_abs = float(np.abs(lam).max())
    residual = (1.0 + _gamma(1)) * _norm(r) + q_f * (_gamma(n) * _norm(a) + _EPS / 2.0 * lam_abs)
    radius = residual * math.sqrt(1.0 + delta) / (1.0 - delta) * (1.0 + _gamma(n * n + 16))
    lo = math.nextafter(float(lam.min()) - radius, -math.inf)
    hi = math.nextafter(float(lam.max()) + radius, math.inf)
    return lo, hi, radius


def _rho_scale(r_primal: float, r_dual: float) -> float:
    """The factor residual balancing multiplies rho by, from two residuals.

    A check passes ADMM's primal and dual residuals.  A stall between checks
    passes the fixed-point residual |x - z| in place of the primal one, and
    only when it is past the band above a positive dual residual.

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
    z: np.ndarray, u: np.ndarray, rho: float, edges: np.ndarray, n: int, project: _PsdProjector
) -> tuple[float, float]:
    # Each extreme eigenvalue comes from the projection's held basis when it
    # fits the matrix (``_PsdProjector.spectrum``, proved by Bauer-Fike);
    # otherwise from eigvalsh, which is backward stable, so by Weyl each
    # eigenvalue it returns may be off by about n * eps * |m|_F.  Both ends
    # concede that; without it the upper end for an edgeless graph falls
    # just below theta = n.
    # Lower bound: round the PSD iterate to an exactly feasible point.
    # ``edges`` holds the flat indices of both orientations of every edge.
    b = z + z.T
    b *= 0.5
    b.reshape(-1)[edges] = 0.0
    norm_b = _norm(b)
    ends = project.spectrum(b, norm_b)
    lam_min = ends[0] if ends else float(np.linalg.eigvalsh(b)[0]) - n * _EPS * norm_b
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
    norm_a = _norm(a)
    ends = project.spectrum(a, norm_a)
    upper = ends[1] if ends else float(np.linalg.eigvalsh(a)[-1]) + n * _EPS * norm_a
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
    2011, sec. 3.4.1; Wohlberg 2017, arXiv:1704.06209).  Each step between
    checks probes for a stall: when its fixed-point residual is over 10^3
    times its dual residual rho |z - z_prev|, and that is not zero, rho
    moves by the capped factor at once, and the next check comes 25 steps
    later.  Strong products of odd cycles stall at step 14 or 15, and the
    probe cuts C5 x C9 from 65 iterations to 30-31 and C7 x C7 from 37 to
    27-28; on random graphs the ratio stays below 10^2.76, so they take the
    same steps as without the probe.  The first time
    the fixed-point residual falls below ``tol / 10`` (again after a check
    that found it at or above ``tol``), the plain step from that point is
    also checked, computed aside so the steps are unchanged.  A projection
    reuses the eigenbasis Q of the last eigendecomposition while |SQ - Q
    Lambda|_F, from the one product SQ, is within 10^3 times eigh's
    rounding order; on symmetric graphs one or two bases serve the whole
    solve.  After a failed try the new basis is tried at the next
    projection, and each further failure in a row doubles the wait (see the
    module docstring).  After a reused projection the bracket bounds both
    eigenvalues from Q by Bauer-Fike, with every rounding bounded, and
    falls back to eigvalsh when that radius is over the same 10^3 units, so
    symmetric graphs run no eigvalsh and random graphs keep the brackets
    eigvalsh gives.
    ``iterations`` counts PSD projections, fresh or reused, rejected
    extrapolations and those extra checks included.
    """
    n = g.vertex_count
    if n > MAX_SDP_VERTICES:
        raise SizeLimitError(n, MAX_SDP_VERTICES)
    if not tol > 0:  # also refuses NaN
        raise ValueError(f"tol must be positive, got {tol!r}")
    max_iterations = _MAX_ITERATIONS

    edges = np.flatnonzero(g.adjacency)  # flat indices of v[a, b] and v[b, a]

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
        lo, up = _certified_bracket(z, u, rho, edges, n, project)
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
    dz = np.empty((n, n))  # z - z_prev, for the stall probe

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

            check = steps % _CHECK_EVERY == 0 or it == max_iterations
            if check:
                # The step into this point was plain, so these are the ADMM
                # primal and dual residuals.
                done, r_primal, r_dual = measure(z, u, x_prev, z_prev)
                if done:
                    break
                scale = _rho_scale(r_primal, r_dual)
            else:
                # Stall probe: a fixed-point residual past the band above the
                # dual residual means z has stopped moving while x has not, so
                # rebalance now and count the next check from here.  An exact
                # repeat of z (r_dual = 0) is no stall.
                np.subtract(z, z_prev, out=dz)
                r_dual = rho * _norm(dz)
                scale = 1.0
                if r > _BALANCE_BAND * r_dual > 0.0:
                    scale = _rho_scale(r, r_dual)
                    steps = 0
            if scale != 1.0:
                # Residual balancing.  A new rho is a new map T, so the history
                # no longer describes it.
                rho *= scale
                u /= scale
                j_rho = j / rho
                x = affine(z, u)
                f = (x - z).ravel()
                r = _norm(f)
                depth = slot = 0
                f_prev = None
            if check:
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
        lo, up = _certified_bracket(z_prev, u_prev, rho, edges, n, project)
        lower, upper = max(lower, lo), min(upper, up)

    return ThetaResult((lower + upper) / 2.0, lower, upper, upper - lower, it, done)
