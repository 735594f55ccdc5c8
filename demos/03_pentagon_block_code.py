"""The pentagon channel: block codes beat single-shot signalling.

Each of the five inputs is confusable with its two cyclic neighbors, so a
single use distinguishes only 2 messages.  Pairs of uses support 5 codewords
whose output words never collide, lifting the rate from 1 bit to
log2(5)/2 = 1.1609... bits per use, and the semidefinite upper bound
log2(sqrt(5)) shows two uses already tell the whole story.
"""

import itertools
import math

from zecap import (
    build_decoder,
    capacity_bounds,
    code_from_witness,
    confusability_graph,
    embed_classical,
    pentagon_matrix,
    verify_zero_error,
)


def main():
    channel, states, povm = embed_classical(pentagon_matrix())
    graph = confusability_graph(channel, states, povm)
    print(f"confusability edges: {sorted(graph.edges)} (the 5-cycle)")
    print()

    # The confusability graph is a Graph: the bounds take it as it is.
    bounds = capacity_bounds(graph, n_max=2)
    for entry in bounds.per_n:
        print(
            f"n={entry.n}: alpha={entry.alpha}, rate={entry.rate:.12f} bits/use, "
            f"codeword seeds {entry.witness}"
        )
    theta = bounds.theta
    print(
        f"theta = {theta.value:.9f} (bracket width {theta.gap:.1e}), "
        f"upper bound {bounds.theta_upper:.12f} bits/use"
    )
    print(f"log2(5)/2  = {math.log2(5.0) / 2.0:.12f} bits/use: the bound is met.")
    print()

    # The two-use code is the n=2 witness the bounds already found.
    code = code_from_witness(bounds.per_n[1].witness, states, povm, n=2)
    print(f"two-use code ({code.message_count} messages, rate {code.rate:.6f}):")
    report = verify_zero_error(code, channel, eps=1e-9)
    decoder = build_decoder(code, channel, eps=1e-9)
    for msg, cw in enumerate(code.codewords):
        words = sorted(w for w, m in decoder.mapping.items() if m == msg)
        print(f"  message {msg}: send {cw}, receive one of {words}")
    unreachable = [
        w for w in itertools.product(range(5), repeat=2) if decoder.decode(w) is None
    ]
    print(f"  never produced: {unreachable}")
    print()
    print(
        f"certificate: passed={report.passed}, "
        f"{report.total_reachable}/{report.word_space_size} words reachable, "
        f"disjoint={report.pairwise_disjoint}, "
        f"tensor path agrees={report.paths_agree}"
    )


if __name__ == "__main__":
    main()
