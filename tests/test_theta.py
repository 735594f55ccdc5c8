"""The semidefinite upper bound and its certified bracket."""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest

from zecap import (
    Graph,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    independence_number,
    lovasz_theta,
    strong_product,
)
from zecap import cli, theta
from zecap.errors import SizeLimitError

from cliutil import write_spec
from invariants import check_alpha_theta_sandwich
from oracles import kneser_graph, random_graph


def odd_cycle_theta(n: int) -> float:
    # Closed form for odd cycles: n cos(pi/n) / (1 + cos(pi/n)).
    c = math.cos(math.pi / n)
    return n * c / (1.0 + c)


def paley_graph(q: int) -> Graph:
    # a ~ b iff a - b is a nonzero square mod q (q prime, q = 1 mod 4).
    squares = {(x * x) % q for x in range(1, q)}
    return Graph.from_edges(
        q, ((a, b) for a in range(q) for b in range(a + 1, q) if (b - a) % q in squares)
    )


def kneser(n: int, k: int) -> Graph:
    return Graph.from_edges(math.comb(n, k), kneser_graph(n, k))


SLACK = 1e-9


def assert_in_bracket(lower: float, upper: float, want: float) -> None:
    assert lower - SLACK <= want <= upper + SLACK, f"{want} outside [{lower}, {upper}]"


def test_complete_graphs_have_theta_one():
    for n in (2, 3, 5):
        res = lovasz_theta(complete_graph(n))
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-5)


def test_edgeless_graphs_have_theta_v():
    for n in (2, 4, 7):
        res = lovasz_theta(edgeless_graph(n))
        assert res.converged
        assert res.value == pytest.approx(float(n), abs=1e-5)


def test_pentagon_theta_is_sqrt_five():
    res = lovasz_theta(cycle_graph(5))
    assert res.converged
    assert res.value == pytest.approx(math.sqrt(5.0), abs=1e-5)
    assert res.gap <= 1e-6
    assert res.lower - 1e-9 <= res.value <= res.upper + 1e-9


def test_odd_cycles_match_the_closed_form():
    for n in (5, 7, 9):
        res = lovasz_theta(cycle_graph(n))
        assert res.value == pytest.approx(odd_cycle_theta(n), abs=1e-4)


def test_theta_is_multiplicative_on_the_pentagon_square():
    sq = strong_product(cycle_graph(5), cycle_graph(5))
    res = lovasz_theta(sq, tol=1e-5)
    assert res.value == pytest.approx(5.0, abs=1e-3)
    alpha, _ = independence_number(sq)
    assert alpha <= res.value + 1e-3


def test_tight_tolerance_shrinks_the_bracket():
    res = lovasz_theta(cycle_graph(5), tol=1e-8)
    assert res.gap <= 1e-8
    assert abs(res.value - math.sqrt(5.0)) <= 1e-7


def test_size_cap_and_bad_tol():
    with pytest.raises(SizeLimitError):
        lovasz_theta(edgeless_graph(101))
    with pytest.raises(ValueError):
        lovasz_theta(cycle_graph(5), tol=0.0)


def test_a_nan_tol_is_refused_before_any_eigendecomposition(monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigendecomposition after a NaN tol")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigh)
    with pytest.raises(ValueError, match="tol must be positive"):
        lovasz_theta(cycle_graph(5), tol=float("nan"))


def test_iteration_cap_returns_an_unconverged_bracket(monkeypatch):
    monkeypatch.setattr(theta, "_MAX_ITERATIONS", 2)
    res = lovasz_theta(cycle_graph(5), tol=1e-12)
    assert res.converged is False
    assert res.iterations <= 2
    assert res.lower <= math.sqrt(5.0) <= res.upper
    assert res.gap == res.upper - res.lower
    assert res.value == (res.lower + res.upper) / 2.0


def test_not_converged_carries_the_tightest_bracket_seen(monkeypatch):
    # Far from converged after 75 iterations (plain ADMM and the accelerated
    # step both need over 50,000 on this graph).  The first 50 iterations of
    # a 75-iteration run are those of a 50-iteration run, so its bracket can
    # only be tighter.
    g = Graph.from_edges(30, random_graph(30, 0.3, np.random.default_rng(0)))
    brackets = []
    for cap in (25, 50, 75):
        monkeypatch.setattr(theta, "_MAX_ITERATIONS", cap)
        res = lovasz_theta(g)
        assert res.converged is False and res.iterations <= cap
        assert res.gap == res.upper - res.lower
        brackets.append((res.lower, res.upper))
    for (lo_a, up_a), (lo_b, up_b) in zip(brackets, brackets[1:]):
        assert lo_a <= lo_b <= up_b <= up_a


def test_the_bracket_holds_theta_exactly_despite_eigenvalue_rounding():
    # theta is an integer here, and the computed eigenvalues that bound it
    # land a few ulps off; the bracket concedes that rounding, with no slack.
    for n in range(1, 11):
        edgeless = lovasz_theta(edgeless_graph(n))
        assert edgeless.lower <= n <= edgeless.upper
        complete = lovasz_theta(complete_graph(n))
        assert complete.lower <= 1.0 <= complete.upper


def test_upper_bound_dominates_alpha_on_random_graphs():
    check_alpha_theta_sandwich(200)


@pytest.mark.parametrize(
    "g", [cycle_graph(7), paley_graph(13), kneser(5, 2)], ids=["C7", "Paley13", "Petersen"]
)
def test_theta_times_theta_of_the_complement_is_v_for_vertex_transitive_graphs(g):
    # Lovasz 1979, Theorem 8: theta(G) theta(complement G) = V when G is
    # vertex-transitive.
    n = g.vertex_count
    complement = Graph(n, set(itertools.combinations(range(n), 2)) - g.edges)
    res, co = lovasz_theta(g), lovasz_theta(complement)
    assert_in_bracket(res.lower * co.lower, res.upper * co.upper, float(n))


@pytest.mark.parametrize("n, k", [(5, 2), (7, 3)])
def test_kneser_theta_is_n_minus_1_choose_k_minus_1(n, k):
    res = lovasz_theta(kneser(n, k))
    assert res.converged
    assert_in_bracket(res.lower, res.upper, float(math.comb(n - 1, k - 1)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    n = g.vertex_count
    return Graph.from_edges(n + h.vertex_count, [*g.edges, *((a + n, b + n) for a, b in h.edges)])


def join(g: Graph, h: Graph) -> Graph:
    # The disjoint union plus every edge between the two parts.
    n, m = g.vertex_count, h.vertex_count
    across = ((a, n + b) for a in range(n) for b in range(m))
    return Graph.from_edges(n + m, [*disjoint_union(g, h).edges, *across])


@pytest.mark.parametrize(
    "g, want",
    [
        (disjoint_union(cycle_graph(5), cycle_graph(5)), 2.0 * math.sqrt(5.0)),
        (disjoint_union(cycle_graph(5), complete_graph(3)), math.sqrt(5.0) + 1.0),
        (disjoint_union(cycle_graph(5), cycle_graph(7)), math.sqrt(5.0) + odd_cycle_theta(7)),
        (join(cycle_graph(5), cycle_graph(7)), odd_cycle_theta(7)),
        (join(cycle_graph(5), complete_graph(3)), math.sqrt(5.0)),
    ],
    ids=["C5+C5", "C5+K3", "C5+C7", "C5vC7", "C5vK3"],
)
def test_theta_adds_over_a_disjoint_union_and_takes_the_max_over_a_join(g, want):
    # Lovasz 1979; Knuth, "The sandwich theorem", 1994: theta(G + H) =
    # theta(G) + theta(H) and theta(G v H) = max(theta(G), theta(H)).  These
    # graphs are irregular and their iterates have repeated eigenvalues.
    res = lovasz_theta(g)
    assert res.converged
    assert_in_bracket(res.lower, res.upper, want)


def test_theta_is_multiplicative_on_c5_times_c7():
    c5, c7 = lovasz_theta(cycle_graph(5)), lovasz_theta(cycle_graph(7))
    prod = lovasz_theta(strong_product(cycle_graph(5), cycle_graph(7)))
    assert_in_bracket(c5.lower, c5.upper, math.sqrt(5.0))
    assert_in_bracket(c7.lower, c7.upper, odd_cycle_theta(7))
    assert_in_bracket(prod.lower, prod.upper, math.sqrt(5.0) * odd_cycle_theta(7))


def test_c7_squared_converges_well_inside_the_plain_admm_iteration_count(monkeypatch):
    # Plain ADMM needs 325 iterations on C7 x C7; the accelerated step needs
    # 28, rescaling rho at the step its residuals stall.
    monkeypatch.setattr(theta, "_MAX_ITERATIONS", 50)
    res = lovasz_theta(strong_product(cycle_graph(7), cycle_graph(7)))
    assert res.converged and res.iterations <= 50
    assert_in_bracket(res.lower, res.upper, odd_cycle_theta(7) ** 2)


@pytest.mark.parametrize(
    "g",
    [cycle_graph(5), complete_graph(5), edgeless_graph(6), paley_graph(13)],
    ids=["C5", "K5", "edgeless6", "Paley13"],
)
def test_a_small_residual_triggers_a_check_before_the_cadence(g):
    # The fixed-point residual falls below tol within a few steps here, and
    # that triggers a full check at once instead of at step 25.
    res = lovasz_theta(g)
    assert res.converged and res.iterations < 25


@pytest.mark.parametrize(
    "vertex_count, p, seed, unchecked_iterations",
    [
        (20, 0.3, 0, 725),
        (16, 0.7, 0, 1450),
        (20, 0.5, 2, 1925),
        (30, 0.5, 3, 3375),
        (16, 0.3, 3, 2600),
        (20, 0.7, 2, 6825),
        (12, 0.5, 0, 1225),
    ],
)
def test_the_triggered_check_leaves_the_steps_of_random_graphs_as_they_were(
    vertex_count, p, seed, unchecked_iterations
):
    # unchecked_iterations is the count of the same solver with checks only
    # every 25 steps.  On these graphs the residual never falls below tol / 10
    # before the 25-step check that stops the solve, so no check aside is
    # triggered, none fails, and the solve stops at the same step with the
    # same count.  The last three lost convergence or slowed down when a
    # starting rho of V/4 was tried.
    g = Graph.from_edges(vertex_count, random_graph(vertex_count, p, np.random.default_rng(seed)))
    res = lovasz_theta(g)
    assert res.converged and res.iterations == unchecked_iterations


# The 31 graphs of the corpus G(V, p), V in {12, 16, 20, 24, 30},
# p in {.3, .5, .7}, seeds 0-3, that converge within 1,500 iterations, with
# their iteration counts under the factor-2 balancing rule alone (10,772 in
# all).  Their residual ratios stay within 10^1.34, inside the band where
# that rule still applies, so each count must hold exactly.
FACTOR_TWO_ITERATIONS = [
    (12, 0.3, 0, 325),
    (12, 0.3, 1, 175),
    (12, 0.3, 2, 248),
    (12, 0.3, 3, 150),
    (12, 0.5, 0, 1225),
    (12, 0.5, 2, 475),
    (12, 0.5, 3, 151),
    (12, 0.7, 0, 225),
    (12, 0.7, 1, 425),
    (12, 0.7, 2, 125),
    (16, 0.3, 0, 475),
    (16, 0.3, 1, 76),
    (16, 0.5, 2, 176),
    (16, 0.5, 3, 125),
    (16, 0.7, 0, 1450),
    (16, 0.7, 1, 41),
    (16, 0.7, 2, 300),
    (16, 0.7, 3, 300),
    (20, 0.3, 0, 725),
    (20, 0.3, 1, 475),
    (20, 0.3, 3, 1275),
    (20, 0.5, 0, 75),
    (20, 0.7, 0, 275),
    (24, 0.3, 2, 300),
    (24, 0.3, 3, 201),
    (24, 0.5, 0, 450),
    (24, 0.5, 1, 126),
    (24, 0.5, 2, 125),
    (24, 0.7, 0, 101),
    (30, 0.7, 0, 101),
    (30, 0.7, 3, 76),
]


@pytest.mark.parametrize("vertex_count, p, seed, iterations", FACTOR_TWO_ITERATIONS)
def test_random_graphs_take_the_steps_of_the_factor_two_rule(vertex_count, p, seed, iterations):
    g = Graph.from_edges(vertex_count, random_graph(vertex_count, p, np.random.default_rng(seed)))
    res = lovasz_theta(g)
    assert res.converged and res.iterations == iterations


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("m, n", [(7, 9), (9, 9)])
def test_stalled_cycle_products_converge_after_one_large_rescale(m, n, seed):
    # Under the factor-2 rule alone C7 x C9 took 74 iterations and C9 x C9
    # 102-126: their residual ratio reaches 10^10 at the first check, and
    # rho then grew by 2 per check.
    g = strong_product(cycle_graph(m), cycle_graph(n), max_vertices=m * n)
    perm = np.random.default_rng(seed).permutation(m * n)
    g = Graph.from_edges(m * n, ((perm[a], perm[b]) for a, b in g.edges))
    res = lovasz_theta(g)
    assert res.converged and res.iterations <= 45
    assert_in_bracket(res.lower, res.upper, odd_cycle_theta(m) * odd_cycle_theta(n))


def test_rho_is_kept_when_both_residuals_vanish():
    assert theta._rho_scale(0.0, 0.0) == 1.0


def test_a_vanishing_residual_against_a_positive_one_gets_the_cap():
    assert theta._rho_scale(1e-3, 0.0) == theta._MAX_RESCALE
    assert theta._rho_scale(0.0, 1e-3) == 1.0 / theta._MAX_RESCALE


@pytest.mark.parametrize("r_primal, r_dual", [(1.0, 1.0), (3.0, 1.0), (10.0, 1.0), (1.0, 10.0), (0.2, 0.5)])
def test_residuals_within_a_factor_of_ten_keep_rho(r_primal, r_dual):
    assert theta._rho_scale(r_primal, r_dual) == 1.0


@pytest.mark.parametrize("ratio", [10.5, 100.0, 1e3])
def test_inside_the_band_rho_doubles_or_halves(ratio):
    assert theta._rho_scale(ratio * 1e-4, 1e-4) == 2.0
    assert theta._rho_scale(1e-4, ratio * 1e-4) == 0.5


@pytest.mark.parametrize("ratio, factor", [(2e3, math.sqrt(2e3)), (4e3, math.sqrt(4e3)), (5e3, 64.0), (1e13, 64.0)])
def test_past_the_band_rho_moves_by_the_capped_root_of_the_ratio(ratio, factor):
    assert theta._MAX_RESCALE == 64.0
    assert theta._rho_scale(ratio, 1.0) == pytest.approx(factor, rel=1e-15)
    # The mirrored imbalance divides rho by the same factor.
    assert theta._rho_scale(1.0, ratio) == pytest.approx(1.0 / factor, rel=1e-15)


def count_calls(monkeypatch, name: str = "eigh", fail_on: int | None = None) -> list[int]:
    """Count np.linalg.<name> calls in the returned one-item list; raise
    LinAlgError on call number ``fail_on``, as LAPACK can on a rare matrix."""
    inner = getattr(np.linalg, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        if calls[0] == fail_on:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return inner(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def relabelled(g: Graph, seed: int) -> Graph:
    perm = np.random.default_rng(seed).permutation(g.vertex_count)
    return Graph.from_edges(g.vertex_count, ((perm[a], perm[b]) for a, b in g.edges))


def test_a_solve_leaves_no_state_behind():
    # Solving A, then B, then A again gives A's result twice: nothing a solve
    # keeps or reuses carries over into the next.
    a = Graph.from_edges(16, random_graph(16, 0.5, np.random.default_rng(2)))
    b = strong_product(cycle_graph(5), cycle_graph(5))
    first = lovasz_theta(a)
    lovasz_theta(b)
    assert lovasz_theta(a) == first


@pytest.mark.parametrize(
    "g",
    [Graph.from_edges(20, random_graph(20, 0.3, np.random.default_rng(1))), kneser(7, 3)],
    ids=["G(20,0.3)", "K(7,3)"],
)
def test_the_order_edges_are_given_in_does_not_change_the_solve(g):
    flipped = Graph.from_edges(g.vertex_count, ((b, a) for a, b in reversed(sorted(g.edges))))
    assert flipped == g and hash(flipped) == hash(g)
    assert lovasz_theta(flipped) == lovasz_theta(g)


# Iterations of the benchmark's theta graphs under the relabelling of seed 0,
# and the ceiling that holds under the relabellings of seeds 0-11: the cycle
# products that stall take one iteration more under some labellings.  Both
# hold under one and two BLAS threads alike.
SYMMETRIC_ITERATIONS = [
    pytest.param(strong_product(cycle_graph(5), cycle_graph(5)), 21, 21, id="C5xC5"),
    pytest.param(strong_product(cycle_graph(5), cycle_graph(7)), 35, 35, id="C5xC7"),
    pytest.param(strong_product(cycle_graph(7), cycle_graph(7)), 28, 28, id="C7xC7"),
    pytest.param(strong_product(cycle_graph(5), cycle_graph(9)), 30, 31, id="C5xC9"),
    pytest.param(strong_product(cycle_graph(7), cycle_graph(9)), 31, 31, id="C7xC9"),
    pytest.param(strong_product(cycle_graph(9), cycle_graph(9), max_vertices=81), 29, 29, id="C9xC9"),
    pytest.param(kneser(8, 3), 16, 16, id="K(8,3)"),
    pytest.param(kneser(9, 3), 16, 16, id="K(9,3)"),
    pytest.param(paley_graph(61), 5, 5, id="Paley61"),
    pytest.param(paley_graph(97), 5, 5, id="Paley97"),
]


def rescale_steps(monkeypatch, g: Graph) -> list[tuple[int, float]]:
    """Solve g and list (step, factor) for every _rho_scale call, where step
    counts the projections so far that are steps of the iteration: a check
    aside is a projection whose bracket is followed by no rescale."""
    events: list = []
    project, bracket, scale = theta._PsdProjector.__call__, theta._certified_bracket, theta._rho_scale

    def projected(self, m):
        events.append("p")
        return project(self, m)

    def bracketed(*args):
        events.append("b")
        return bracket(*args)

    def scaled(r_primal, r_dual):
        factor = scale(r_primal, r_dual)
        if r_primal >= r_dual:  # a mirrored call is logged by the call it makes
            events.append(factor)
        return factor

    monkeypatch.setattr(theta._PsdProjector, "__call__", projected)
    monkeypatch.setattr(theta, "_certified_bracket", bracketed)
    monkeypatch.setattr(theta, "_rho_scale", scaled)
    assert lovasz_theta(g).converged
    steps, calls = 0, []
    for i, event in enumerate(events):
        if event == "p":
            steps += events[i + 1 : i + 3] not in (["b"], ["b", "p"])
        elif event != "b":
            calls.append((steps, event))
    return calls


@pytest.mark.parametrize("m, n", [(5, 9), (7, 9), (9, 9)])
def test_a_stall_is_rescaled_at_the_step_it_starts(monkeypatch, m, n):
    # These products stall at step 14 or 15, where their residual ratio
    # leaves the band; rescaling only at the 25-step checks left rho at 1
    # until step 25, and until step 50 on C5 x C9.
    g = relabelled(strong_product(cycle_graph(m), cycle_graph(n), max_vertices=m * n), 0)
    calls = rescale_steps(monkeypatch, g)
    first = next(step for step, factor in calls if factor != 1.0)
    assert first < 25, calls


@pytest.mark.parametrize("vertex_count, p, seed, iterations", FACTOR_TWO_ITERATIONS)
def test_random_graphs_rebalance_only_at_the_25_step_checks(monkeypatch, vertex_count, p, seed, iterations):
    # Their residual ratio never leaves the band, so the stall probe never
    # calls _rho_scale: every call is a check's, and every check but the last
    # makes one.
    g = Graph.from_edges(vertex_count, random_graph(vertex_count, p, np.random.default_rng(seed)))
    steps = [step for step, _ in rescale_steps(monkeypatch, g)]
    every = theta._CHECK_EVERY
    assert steps == list(range(every, every * len(steps) + 1, every))


@pytest.mark.parametrize("g, iterations, ceiling", SYMMETRIC_ITERATIONS)
def test_symmetric_graphs_take_a_pinned_number_of_iterations(g, iterations, ceiling):
    res = lovasz_theta(relabelled(g, 0))
    assert res.converged and res.iterations == iterations


@pytest.mark.parametrize("g, iterations, ceiling", SYMMETRIC_ITERATIONS)
def test_symmetric_graphs_converge_within_their_pinned_count_under_any_labelling(g, iterations, ceiling):
    for seed in range(12):
        res = lovasz_theta(relabelled(g, seed))
        assert res.converged and res.iterations <= ceiling, seed


@pytest.mark.parametrize(
    "g, brackets",
    [
        (strong_product(cycle_graph(5), cycle_graph(7)), 2),
        (strong_product(cycle_graph(7), cycle_graph(7)), 1),
        (kneser(8, 3), 1),
        (kneser(9, 3), 1),
    ],
    ids=["C5xC7", "C7xC7", "K(8,3)", "K(9,3)"],
)
def test_the_check_aside_fires_where_the_bracket_closes(monkeypatch, g, brackets):
    # The check aside waits for a residual below tol / 10, where the bracket
    # of these graphs has closed, so none of their checks fails there: the
    # Kneser graphs and C7 x C7 stop at their first check, C5 x C7 at the
    # check aside that follows its first 25-step check.  C7 x C7 stalls at
    # step 14, and the rescale there restarts the count to the next 25-step
    # check, which the check aside comes before.
    bracket = theta._certified_bracket
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return bracket(*args)

    monkeypatch.setattr(theta, "_certified_bracket", counted)
    res = lovasz_theta(relabelled(g, 0))
    assert res.converged and calls[0] == brackets


@pytest.mark.parametrize("vertex_count, p, seed, iterations", FACTOR_TWO_ITERATIONS)
def test_random_graphs_take_a_fresh_eigendecomposition_per_projection(
    monkeypatch, vertex_count, p, seed, iterations
):
    # Their iterates share no eigenbasis, so every try at reusing one fails
    # and each projection is the eigh it was before reuse existed.
    g = Graph.from_edges(vertex_count, random_graph(vertex_count, p, np.random.default_rng(seed)))
    calls = count_calls(monkeypatch)
    res = lovasz_theta(g)
    assert res.converged and calls[0] == res.iterations == iterations


@pytest.mark.parametrize(
    "g, want",
    [
        (strong_product(cycle_graph(9), cycle_graph(9), max_vertices=81), odd_cycle_theta(9) ** 2),
        (kneser(9, 3), 28.0),
        (paley_graph(61), math.sqrt(61.0)),
    ],
    ids=["C9xC9", "K(9,3)", "Paley61"],
)
def test_symmetric_graphs_keep_one_eigenbasis_for_the_whole_solve(monkeypatch, g, want):
    # The iterates of a vertex-transitive graph stay in a commutative algebra,
    # so an eigenbasis of one diagonalises the next (Gatermann & Parrilo 2004;
    # de Klerk, Pasechnik & Schrijver 2007).  C9 x C9 needs one basis more:
    # its first iterates have eigenvalues that coincide where later ones
    # split, and the basis made after the first failed try serves the rest.
    g = relabelled(g, 3)
    calls = count_calls(monkeypatch)
    res = lovasz_theta(g)
    assert res.converged and calls[0] <= 2 < res.iterations
    assert_in_bracket(res.lower, res.upper, want)


def symmetric_matrix(n: int, seed: int) -> np.ndarray:
    a = np.random.default_rng(seed).standard_normal((n, n))
    return (a + a.T) / 2.0


def test_a_matrix_commuting_with_the_last_one_reuses_its_eigenbasis(monkeypatch):
    a = symmetric_matrix(20, 0)
    s = a @ a - 2.0 * a - 0.5 * np.eye(20)  # a polynomial in a: same eigenvectors
    fresh = theta._PsdProjector()(s)
    calls = count_calls(monkeypatch)
    project = theta._PsdProjector()
    project(a)
    reused = project(s)
    assert calls[0] == 1
    bound = theta._REUSE_TOLERANCE * 20 * np.finfo(float).eps * np.linalg.norm(s)
    assert 0.0 < np.linalg.norm(reused - fresh) <= bound


def test_a_matrix_not_commuting_with_the_last_one_is_projected_afresh(monkeypatch):
    a, b = symmetric_matrix(20, 0), symmetric_matrix(20, 1)
    fresh = theta._PsdProjector()(b)
    calls = count_calls(monkeypatch)
    project = theta._PsdProjector()
    project(a)
    assert np.array_equal(project(b), fresh)
    assert calls[0] == 2


def test_the_basis_made_after_a_failed_try_is_tried_at_once_and_failures_in_a_row_back_off(monkeypatch):
    a, b = symmetric_matrix(20, 0), symmetric_matrix(20, 1)
    calls = count_calls(monkeypatch)
    project = theta._PsdProjector()
    project(a)
    project(b)  # projection 2: the try fails, and eigh makes the basis of b
    project(b @ b - b)  # projection 3: tried at once against it, and kept
    assert calls[0] == 2
    project(a)  # 4: fails, so the basis of a is tried at 5
    project(b)  # 5: fails again, so the next try waits two projections
    project(b @ b)  # 6: not tried, though it would fit
    assert calls[0] == 5
    project(b @ b + b)  # 7: tried against the basis of b @ b, and kept
    assert calls[0] == 5
    project(a)  # 8: a success reset the wait, so a failure retries at once
    project(a @ a)  # 9: tried against the basis of a, and kept
    assert calls[0] == 6


def holding(q: np.ndarray) -> theta._PsdProjector:
    """A projector whose last projection reused the basis ``q``."""
    project = theta._PsdProjector()
    project.vecs, project.reused = q, True
    return project


@pytest.mark.parametrize("basis", ["eigh", "polynomial", "perturbed"])
@pytest.mark.parametrize("n", [5, 12, 30, 60])
def test_the_basis_bound_holds_eigvalsh_s_ends_and_their_allowance(n, basis):
    # Q from eigh of A, of a polynomial in A (the same eigenvectors, but
    # eigenvalues that may nearly coincide), or of A and then moved by about
    # 1e-10.  Whatever Q is, [lo, hi] must contain every eigenvalue, so it
    # contains eigvalsh's ends widened by their rounding allowance.
    for seed in range(4):
        a = symmetric_matrix(n, seed)
        if basis == "polynomial":
            q = np.linalg.eigh(a @ a - 2.0 * a - 0.5 * np.eye(n))[1]
        else:
            q = np.linalg.eigh(a)[1]
        if basis == "perturbed":
            q = q + 1e-10 * np.random.default_rng(seed).standard_normal((n, n))
        lo, hi, radius = theta._enclosure(a, q, theta._orthogonality(q))
        w = np.linalg.eigvalsh(a)
        allowance = n * np.finfo(float).eps * np.linalg.norm(a)
        assert lo <= w[0] - allowance and w[-1] + allowance <= hi
        if basis == "eigh":  # a basis of A itself fits A
            assert radius <= theta._REUSE_TOLERANCE * allowance
            assert holding(q).spectrum(a, np.linalg.norm(a)) == (lo, hi)


def test_a_skewed_basis_is_paid_for_by_its_condition_number():
    # A = diag(0, 1) and Q = [e1, (c, s)] with c = 0.8: Lambda = (0, s^2) and
    # |AQ - Q Lambda|_2 = sc, so Lambda_2 + sc = 0.84 misses lambda_max = 1.
    # Q^T Q - I has norm c, and the factor sqrt(1 + c) / (1 - c) covers it.
    c = 0.8
    a = np.diag([0.0, 1.0])
    q = np.array([[1.0, c], [0.0, math.sqrt(1.0 - c * c)]])
    delta = theta._orthogonality(q)
    assert c <= delta <= c * (1.0 + 1e-12)
    lo, hi, _ = theta._enclosure(a, q, delta)
    assert lo <= 0.0 and 1.0 <= hi
    # A singular basis bounds nothing.
    assert theta._enclosure(a, np.array([[1.0, 1.0], [0.0, 0.0]]), 1.0) == (-math.inf, math.inf, math.inf)


@pytest.mark.parametrize("misfit", [None, "unrelated", "one column scaled"])
def test_a_basis_that_does_not_fit_leaves_the_bracket_to_eigvalsh(monkeypatch, misfit):
    # On an edgeless graph the bracket's matrices are z and J, and z = I/n +
    # J/n^2 commutes with J, so an eigenbasis of J fits both.  A basis of an
    # unrelated matrix does not, nor does one whose column for the eigenvalue
    # n of J is scaled by 1 + 1e-6; then the bracket is eigvalsh's, bit for
    # bit.  theta is n here.
    n = 12
    z = np.eye(n) / n + np.ones((n, n)) / n**2
    u, edges = np.zeros((n, n)), np.array([], dtype=np.intp)
    q = np.linalg.eigh(np.ones((n, n)))[1]
    if misfit == "unrelated":
        q = np.linalg.eigh(symmetric_matrix(n, 0))[1]
    elif misfit == "one column scaled":
        q[:, -1] *= 1.0 + 1e-6
    plain = theta._certified_bracket(z, u, 1.0, edges, n, theta._PsdProjector())
    calls = count_calls(monkeypatch, "eigvalsh")
    lower, upper = theta._certified_bracket(z, u, 1.0, edges, n, holding(q))
    if misfit is None:
        assert calls[0] == 0
        assert lower == pytest.approx(plain[0], rel=1e-13) and upper == pytest.approx(plain[1], rel=1e-13)
        assert lower <= n <= upper
    else:
        assert calls[0] == 2 and (lower, upper) == plain


@pytest.mark.parametrize("g, iterations, ceiling", SYMMETRIC_ITERATIONS)
def test_symmetric_graphs_take_every_bracket_from_the_held_basis(monkeypatch, g, iterations, ceiling):
    # Both bracket matrices stay in the algebra the held basis diagonalises.
    calls = count_calls(monkeypatch, "eigvalsh")
    for seed in range(12):
        assert lovasz_theta(relabelled(g, seed)).converged
    assert calls[0] == 0


@pytest.mark.parametrize("vertex_count, p, seed, iterations", FACTOR_TWO_ITERATIONS)
def test_random_graphs_take_both_bracket_ends_from_eigvalsh(monkeypatch, vertex_count, p, seed, iterations):
    # No projection of theirs reuses a basis, so no bracket asks one.
    g = Graph.from_edges(vertex_count, random_graph(vertex_count, p, np.random.default_rng(seed)))
    bracket = theta._certified_bracket
    brackets = [0]

    def counted(*args):
        brackets[0] += 1
        return bracket(*args)

    monkeypatch.setattr(theta, "_certified_bracket", counted)
    calls = count_calls(monkeypatch, "eigvalsh")
    assert lovasz_theta(g).converged
    assert calls[0] == 2 * brackets[0] > 0


def test_an_eigh_failure_on_the_first_projection_still_gives_a_bracket(monkeypatch):
    # The bracket comes from the starting point, B = I/V and U = 0.
    g = strong_product(cycle_graph(7), cycle_graph(7))
    count_calls(monkeypatch, fail_on=1)
    res = lovasz_theta(g)
    assert res.converged is False and res.iterations == 0
    assert math.isfinite(res.lower) and math.isfinite(res.upper)
    assert_in_bracket(res.lower, res.upper, odd_cycle_theta(7) ** 2)
    assert res.gap == res.upper - res.lower


def test_an_eigh_failure_past_the_first_check_keeps_the_bracket(monkeypatch):
    g = Graph.from_edges(12, random_graph(12, 0.5, np.random.default_rng(0)))
    solved = lovasz_theta(g)
    count_calls(monkeypatch, fail_on=40)
    res = lovasz_theta(g)
    assert res.converged is False and res.iterations == 39
    assert math.isfinite(res.lower) and math.isfinite(res.upper)
    assert res.lower <= solved.lower and solved.upper <= res.upper


def test_analyze_writes_its_report_when_eigh_fails(monkeypatch, tmp_path):
    monkeypatch.delenv("ZECAP_SEED", raising=False)
    spec = write_spec(tmp_path / "pentagon.json", "pentagon")
    out = tmp_path / "report.json"
    count_calls(monkeypatch, fail_on=1)
    assert cli.main(["analyze", spec, "--out", str(out)]) == 0
    bounds = json.loads(out.read_text())["bounds"]
    assert bounds["theta"]["converged"] is False
    assert_in_bracket(bounds["theta"]["lower"], bounds["theta"]["upper"], math.sqrt(5.0))
