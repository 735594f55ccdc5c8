"""Certified semidefinite upper bounds on the zero-error rate.

The solver returns a bracket [lower, upper] around theta with a proven
width, not just a point estimate: the lower end comes from a feasible
rounding of the primal iterate, the upper end from a dual certificate.
Odd cycles have a closed form, which makes them a good external check.
The iteration count is the number of projections onto the PSD cone, some
of which reuse the last eigenbasis instead of a fresh eigendecomposition.
Convergence is tested every 25 steps, and also once as soon as the
fixed-point residual falls below a tenth of the tolerance, so the easy
anchors below stop after a handful.
"""

import math

from zecap import (
    capacity_bounds,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    independence_number,
    lovasz_theta,
)


def odd_cycle_theta(n):
    c = math.cos(math.pi / n)
    return n * c / (1.0 + c)


def main():
    print("Anchors with known values")
    print("-------------------------")
    for name, graph, want in [
        ("K5 (complete)", complete_graph(5), 1.0),
        ("empty on 6", edgeless_graph(6), 6.0),
        ("C5", cycle_graph(5), math.sqrt(5.0)),
    ]:
        res = lovasz_theta(graph)
        print(
            f"{name:14s} theta = {res.value:.9f}  known = {want:.9f}  "
            f"bracket width {res.gap:.1e}  ({res.iterations} iterations)"
        )
    print()

    print("Odd cycles against the closed form")
    print("----------------------------------")
    for n in (5, 7, 9, 11):
        res = lovasz_theta(cycle_graph(n))
        exact = odd_cycle_theta(n)
        alpha, _ = independence_number(cycle_graph(n))
        print(
            f"C{n:<2d} alpha = {alpha}  theta = {res.value:.6f}  "
            f"closed form = {exact:.6f}  |diff| = {abs(res.value - exact):.2e}"
        )
    print()

    print("Sandwiching the capacity of C7")
    print("------------------------------")
    b = capacity_bounds(cycle_graph(7), n_max=2)
    for e in b.per_n:
        print(f"  n={e.n}: alpha={e.alpha}, rate={e.rate:.6f} bits/use")
    print(f"  theta upper bound: {b.theta_upper:.6f} bits/use")
    print(
        "  The gap between the best finite-n rate and the theta bound is "
        "where C7's zero-error capacity still hides."
    )


if __name__ == "__main__":
    main()
