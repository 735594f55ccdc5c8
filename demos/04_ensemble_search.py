"""Searching for the ensemble a channel rewards.

The confusability graph depends on which states are sent and how the output
is measured.  The search scores the number of one-shot-distinguishable pairs
of two deterministic (states, POVM) alignments and keeps the better: the
computational basis, then the S-start (an eigenbasis of the channel's
operator space S = span{K_i^dagger K_j} measured on its output ranges).  The
S-start is scored only while the computational start is below an upper bound
on the objective (M(M-1)/2 pairs, or none when the channel provably puts one
outcome in every support).  The computational start reaches that bound on
noiseless and fully noisy channels, and recovers a classical channel's graph
exactly, such as the pentagon's, whose best graph stays below the bound; the
S-start is what finds the bit-flip channel's X-basis pair.
"""

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
    print(f"  edges {sorted(result.graph.edges)}, objective bound {result.objective_bound:.3f}")
    print()


def main():
    print("Known answers first, as sanity anchors")
    print("--------------------------------------")
    cfg = SearchConfig(num_states=3, seed=7)
    report("identity qutrit (every pair separable)", optimize_pair(identity_channel(3), cfg))

    cfg = SearchConfig(num_states=2, seed=7)
    report("fully depolarizing qubit (nothing separable)", optimize_pair(depolarizing_channel(1.0), cfg))

    channel, _, _ = embed_classical(pentagon_matrix())
    cfg = SearchConfig(num_states=5, seed=7)
    report("pentagon channel (5 separable pairs)", optimize_pair(channel, cfg))

    # |+> and |-> survive bit flips; the S-start finds them, the computational basis does not.
    cfg = SearchConfig(num_states=2, seed=7)
    report("bit-flip qubit p=0.1 (the X-basis pair)", optimize_pair(bitflip_channel(0.1), cfg))

    print("Zero error is brittle: any depolarizing noise kills it")
    print("------------------------------------------------------")
    # Even p = 0.2 gives every output full rank, so supports always overlap
    # under any measurement: the objective bound is 0.
    cfg = SearchConfig(num_states=2, seed=7)
    report("depolarizing p=0.2", optimize_pair(depolarizing_channel(0.2), cfg))

    print("Determinism: the same seed reproduces the same search")
    print("-----------------------------------------------------")
    # The bit-flip search reaches its S-start, the one draw from the seed.
    cfg = SearchConfig(num_states=2, seed=11)
    a = optimize_pair(bitflip_channel(0.1), cfg)
    b = optimize_pair(bitflip_channel(0.1), cfg)
    same = a.best_states == b.best_states and a.best_povm == b.best_povm
    print(f"identical states and POVM across reruns: {same}")


if __name__ == "__main__":
    main()
