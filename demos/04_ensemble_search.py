"""Searching for the ensemble a channel rewards.

The confusability graph depends on which states are sent and how the output
is measured.  The search maximizes the number of one-shot-distinguishable
pairs over (states, POVM) pairs.  Each restart takes the best of four
starts: the computational basis, the S-start (an eigenbasis of the channel's
operator space S = span{K_i^dagger K_j} measured on its output ranges), a
Haar-aligned basis and a random pair.  It then hill-climbs, keeping every
small random rotation that scores no worse, only while its best is below an
upper bound on the objective (M(M-1)/2 pairs, or none when the channel
provably puts one outcome in every support).  The starts reach that bound on
noiseless, commuting-noise and fully noisy channels, whose searches score no
proposal at all; the climb only works on the rest, such as the pentagon,
whose best graph stays below the bound.
"""

import numpy as np

from zecap import (
    SearchConfig,
    bitflip_channel,
    depolarizing_channel,
    embed_classical,
    identity_channel,
    optimize_pair,
    pentagon_matrix,
)


def report(name, result):
    m = result.config.num_states
    print(f"{name}:")
    print(f"  pair_count = {result.pair_count} of {m * (m - 1) // 2} possible")
    print(f"  alpha_1    = {result.alpha_1}")
    print(f"  best restart {result.best_restart}, edges {sorted(result.graph.edges)}")
    print(f"  objective bound {result.objective_bound:.3f}, proposals scored {result.proposals}")
    trace = result.history[result.best_restart]
    print(f"  objective trace (best restart): {trace[0]:.3f} -> {trace[-1]:.3f}")
    print()


def main():
    print("Known answers first, as sanity anchors")
    print("--------------------------------------")
    cfg = SearchConfig(num_states=3, restarts=4, iterations=300, seed=7)
    report("identity qutrit (every pair separable)", optimize_pair(identity_channel(3), cfg))

    cfg = SearchConfig(num_states=2, restarts=4, iterations=300, seed=7)
    report("fully depolarizing qubit (nothing separable)", optimize_pair(depolarizing_channel(1.0), cfg))

    channel, _, _ = embed_classical(pentagon_matrix())
    cfg = SearchConfig(num_states=5, restarts=4, iterations=300, seed=7)
    report("pentagon channel (5 separable pairs)", optimize_pair(channel, cfg))

    # |+> and |-> survive bit flips; the S-start finds them, the bases do not.
    cfg = SearchConfig(num_states=2, restarts=4, iterations=300, seed=7)
    report("bit-flip qubit p=0.1 (the X-basis pair)", optimize_pair(bitflip_channel(0.1), cfg))

    print("Zero error is brittle: any depolarizing noise kills it")
    print("------------------------------------------------------")
    # Even p = 0.2 gives every output full rank, so supports always overlap
    # under any measurement: the objective bound is 0 and nothing climbs.
    cfg = SearchConfig(num_states=2, restarts=6, iterations=400, seed=7)
    report("depolarizing p=0.2", optimize_pair(depolarizing_channel(0.2), cfg))

    print("Same search, general POVMs instead of projective ones")
    print("-----------------------------------------------------")
    cfg = SearchConfig(
        num_states=2, restarts=4, iterations=300, seed=7, general_povm=True
    )
    report("identity qubit, 4-outcome POVM", optimize_pair(identity_channel(2), cfg))

    print("Determinism: the same seed reproduces the same search")
    print("-----------------------------------------------------")
    cfg = SearchConfig(num_states=2, restarts=2, iterations=100, seed=11)
    a = optimize_pair(depolarizing_channel(0.5), cfg)
    b = optimize_pair(depolarizing_channel(0.5), cfg)
    same = a.history == b.history and np.array_equal(
        a.best_states.states[0].matrix, b.best_states.states[0].matrix
    )
    print(f"identical histories and states across reruns: {same}")


if __name__ == "__main__":
    main()
