"""Seeded property suites shared by the module tests and the acceptance run.

Each checker draws its own cases from a fixed seed and raises AssertionError
on the first violation, so a failure message carries the offending case.
"""

from __future__ import annotations

import itertools

import numpy as np

from zecap import (
    Graph,
    QuantumBlockCode,
    apply_channel,
    build_decoder,
    confusability_graph,
    embed_classical,
    independence_number,
    lovasz_theta,
    outcome_probabilities,
    strong_product,
    support_set,
)
from zecap.errors import AmbiguousSupportsError, EmptySupportError

from ensembles import random_channel, random_density_matrix, random_general_povm
from oracles import graph_channel_matrix, random_graph, words_adjacent


def check_trace_preservation(cases: int = 200, seed: int = 101) -> None:
    """Random channels keep outputs unit-trace and PSD."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        dim = int(rng.integers(2, 5))
        channel = random_channel(dim, int(rng.integers(1, 5)), rng)
        out = apply_channel(channel, random_density_matrix(dim, rng))
        assert abs(np.trace(out.matrix).real - 1.0) <= 1e-9
        assert np.linalg.eigvalsh(out.matrix).min() >= -1e-9


def check_probability_normalization(cases: int = 200, seed: int = 202) -> None:
    """Outcome distributions are genuine distributions."""
    rng = np.random.default_rng(seed)
    for case in range(cases):
        dim = int(rng.integers(2, 5))
        channel = random_channel(dim, int(rng.integers(1, 4)), rng)
        state = random_density_matrix(dim, rng)
        povm = random_general_povm(dim, int(rng.integers(2, dim * dim + 1)), seed + case)
        p = outcome_probabilities(channel, state, povm)
        assert abs(float(p.sum()) - 1.0) <= 1e-9
        assert p.min() >= 0.0 and p.max() <= 1.0 + 1e-12


def check_support_monotonicity(cases: int = 200, seed: int = 303) -> None:
    """Raising eps can only shrink a support set."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n = int(rng.integers(2, 9))
        p = rng.random(n)
        p[rng.random(n) < 0.3] = 0.0
        if p.sum() == 0.0:
            p[0] = 1.0
        p /= p.sum()
        lo = 10.0 ** rng.uniform(-12, -2)
        hi = lo * 10.0 ** rng.uniform(0, 3)
        try:
            s_hi = support_set(p, hi)
        except EmptySupportError:
            # Vacuously monotone; legitimate only if hi really clears p.
            assert float(p.max()) <= hi
            continue
        assert s_hi <= support_set(p, lo)


def check_alpha_supermultiplicative(cases: int = 200, seed: int = 404) -> None:
    """alpha(G x H) >= alpha(G) * alpha(H) on random small graphs."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        vg = int(rng.integers(2, 6))
        vh = int(rng.integers(2, 6))
        g = Graph.from_edges(vg, random_graph(vg, rng.uniform(0.2, 0.8), rng))
        h = Graph.from_edges(vh, random_graph(vh, rng.uniform(0.2, 0.8), rng))
        ag, _ = independence_number(g)
        ah, _ = independence_number(h)
        aprod, witness = independence_number(strong_product(g, h))
        assert aprod >= ag * ah, (g.edges, h.edges, ag, ah, aprod)
        assert len(witness) == aprod


def check_alpha_theta_sandwich(cases: int = 200, seed: int = 505) -> None:
    """alpha <= theta on random graphs, with the certified bracket honest."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        v = int(rng.integers(2, 9))
        g = Graph.from_edges(v, random_graph(v, rng.uniform(0.15, 0.85), rng))
        alpha, _ = independence_number(g)
        res = lovasz_theta(g, tol=1e-6)
        assert res.converged
        assert alpha <= res.value + 1e-6, (g.edges, alpha, res.value)
        assert res.value <= v + 1e-6
        assert res.lower - 1e-9 <= res.value <= res.upper + 1e-9
        assert res.upper >= alpha - 1e-9


def check_decoder_iff_independent(cases: int = 200, seed: int = 606) -> None:
    """A decoder exists exactly when the codewords are independent in G^n."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        v = int(rng.integers(2, 7))
        edges = random_graph(v, rng.uniform(0.2, 0.8), rng)
        channel, states, povm = embed_classical(graph_channel_matrix(v, edges))
        graph = confusability_graph(channel, states, povm)
        assert graph.edges == Graph.from_edges(v, edges).edges

        n = int(rng.integers(1, 3))
        k = int(rng.integers(2, 4))
        pool = list(itertools.product(range(v), repeat=n))
        idx = rng.choice(len(pool), size=min(k, len(pool)), replace=False)
        codewords = tuple(sorted(pool[i] for i in idx))
        code = QuantumBlockCode(
            block_length=n, codewords=codewords, source=states, povm=povm
        )
        independent = not any(
            words_adjacent(a, b, edges)
            for a, b in itertools.combinations(codewords, 2)
        )
        try:
            decoder = build_decoder(code, channel, eps=1e-9)
            built = True
        except AmbiguousSupportsError:
            built = False
        assert built == independent, (edges, codewords)
        if built:
            for cw in codewords:
                word = tuple(next(iter(sorted(graph.supports[c]))) for c in cw)
                assert decoder.decode(word) == codewords.index(cw)
