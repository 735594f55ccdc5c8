"""Independent reference implementations the test suite checks against.

Everything here is written from the definitions, deliberately sharing no
code with the package: subset enumeration and a plain include/exclude
recursion for independence numbers, the textbook vertex-pair rule for
strong products, and a vertex-plus-edge outcome construction that realizes
any given graph as the confusability graph of a classical channel.

Slow is fine; these run on small instances only.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def _normalize_edges(edges) -> frozenset[tuple[int, int]]:
    out = set()
    for a, b in edges:
        a, b = int(a), int(b)
        if a == b:
            raise ValueError(f"self-loop at {a}")
        out.add((min(a, b), max(a, b)))
    return frozenset(out)


def _adjacency_masks(vertex_count: int, edges) -> list[int]:
    adj = [0] * vertex_count
    for a, b in _normalize_edges(edges):
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def brute_alpha(vertex_count: int, edges) -> tuple[int, tuple[int, ...]]:
    """Independence number by full subset enumeration (use V <= 16).

    Returns (alpha, witness) where the witness is the lexicographically
    smallest maximum independent set as a sorted tuple.
    """
    if vertex_count > 16:
        raise ValueError("brute_alpha is for 16 vertices at most")
    adj = _adjacency_masks(vertex_count, edges)
    best_size = 0
    best: tuple[int, ...] = ()
    for mask in range(1 << vertex_count):
        size = mask.bit_count()
        if size < best_size:
            continue
        ok = True
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            if adj[v] & mask:
                ok = False
                break
            m &= m - 1
        if not ok:
            continue
        members = tuple(v for v in range(vertex_count) if (mask >> v) & 1)
        if size > best_size or (size == best_size and members < best):
            best_size, best = size, members
    return best_size, best


def _pruned_best(adj: list[int], all_mask: int) -> int:
    """Size of a maximum independent set, include/exclude with a count bound."""
    best = 0

    def rec(cand: int, size: int):
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if cand == 0:
            best = max(best, size)
            return
        v = (cand & -cand).bit_length() - 1
        rest = cand & ~(1 << v)
        rec(rest & ~adj[v], size + 1)
        rec(rest, size)

    rec(all_mask, 0)
    return best


def _exists_independent(adj: list[int], cand: int, k: int) -> bool:
    if k <= 0:
        return True
    if cand.bit_count() < k:
        return False
    v = (cand & -cand).bit_length() - 1
    rest = cand & ~(1 << v)
    return _exists_independent(adj, rest & ~adj[v], k - 1) or _exists_independent(
        adj, rest, k
    )


def pruned_alpha(vertex_count: int, edges) -> tuple[int, tuple[int, ...]]:
    """Independence number for graphs too big to enumerate (V around 25).

    Same contract as :func:`brute_alpha`; the witness is rebuilt by fixing
    vertices in ascending order and asking, exactly, whether a maximum set
    through the prefix still exists.
    """
    adj = _adjacency_masks(vertex_count, edges)
    alpha = _pruned_best(adj, (1 << vertex_count) - 1)
    chosen = []
    cand = (1 << vertex_count) - 1
    need = alpha
    for v in range(vertex_count):
        if need == 0:
            break
        if not (cand >> v) & 1:
            continue
        rest = cand & ~(1 << v)
        if _exists_independent(adj, rest & ~adj[v], need - 1):
            chosen.append(v)
            cand = rest & ~adj[v]
            need -= 1
        else:
            cand = rest
    return alpha, tuple(chosen)


def strong_product_edges(
    g_count: int, g_edges, h_count: int, h_edges
) -> tuple[int, frozenset[tuple[int, int]]]:
    """Strong product by its definition: per-coordinate equal-or-adjacent.

    Vertex (u, v) maps to index u * h_count + v, matching row-major kron
    ordering.
    """
    ge = _normalize_edges(g_edges)
    he = _normalize_edges(h_edges)

    def eq_or_adj(a, b, edges):
        return a == b or (min(a, b), max(a, b)) in edges

    edges = set()
    for u1, v1 in itertools.product(range(g_count), range(h_count)):
        i = u1 * h_count + v1
        for u2, v2 in itertools.product(range(g_count), range(h_count)):
            j = u2 * h_count + v2
            if j <= i:
                continue
            if (u1, v1) == (u2, v2):
                continue
            if eq_or_adj(u1, u2, ge) and eq_or_adj(v1, v2, he):
                edges.add((i, j))
    return g_count * h_count, frozenset(edges)


def words_adjacent(w1: tuple[int, ...], w2: tuple[int, ...], edges) -> bool:
    """Adjacency in the strong power: distinct words, confusable everywhere."""
    if w1 == w2:
        return False
    e = _normalize_edges(edges)
    for a, b in zip(w1, w2):
        if a != b and (min(a, b), max(a, b)) not in e:
            return False
    return True


def graph_channel_matrix(vertex_count: int, edges) -> np.ndarray:
    """A classical channel whose confusability graph is exactly the input.

    Outcome columns are one private outcome per vertex followed by one per
    edge; row i spreads its mass uniformly over its private outcome and its
    incident edges.  Supports then intersect precisely on shared edges.
    """
    e = sorted(_normalize_edges(edges))
    w = np.zeros((vertex_count, vertex_count + len(e)))
    for i in range(vertex_count):
        cols = [i] + [vertex_count + k for k, (a, b) in enumerate(e) if i in (a, b)]
        w[i, cols] = 1.0 / len(cols)
    return w


def decoder_fill(w: np.ndarray, codewords, eps: float):
    """Decoding table of a code, filled in codeword order.

    ``w[c, j]`` is the probability of outcome j from state c: a classical
    channel's matrix, or the stacked outcome tables of any ensemble.
    Codeword i reaches every word whose position t has w[c_t, word_t] > eps.
    The codewords claim their words in order, each codeword's words in
    lexicographic order.  Returns ``(mapping, None)`` when no word is claimed
    twice, else ``(None, ((first_owner, i), word))`` for the first word that
    a later codeword i reaches again.
    """
    mapping: dict[tuple[int, ...], int] = {}
    for i, cw in enumerate(codewords):
        per_position = [[j for j in range(w.shape[1]) if w[c, j] > eps] for c in cw]
        for word in sorted(itertools.product(*per_position)):
            if word in mapping:
                return None, ((mapping[word], i), word)
            mapping[word] = i
    return mapping, None


def certificate_by_words(
    tables, codewords, eps: float, outputs=None, elements=None, caps=None
) -> dict:
    """Every field of a code's zero-error certificate, by listing reachable words.

    ``tables[c][j]`` is the probability of outcome j from state c; a test
    passes the package's own tables, so that the masses compare bit for bit,
    and the supports are its entries above ``eps``.  Codeword i
    reaches every word whose position t has tables[c_t][word_t] > eps, and
    each word is filed under the codewords producing it.  A word with several
    owners is shared by each pair of them; a pair's mass is summed over its
    shared words in lexicographic order, each word counting the smaller of
    the two production probabilities (products taken left to right).  The
    heaviest pair is reported, the lexicographically first one on ties.

    ``outputs`` (each state's channel output) and ``elements`` (the POVM) give
    the second path.  ``caps`` is the package's pair of caps on it, joint
    dimension d^n and word count N^n: when both fit, every word's probability
    is tr(rho_c0 x ... x rho_cn-1 . E_w0 x ... x E_wn-1), both sides built
    with np.kron, and each codeword's words above ``eps`` must be exactly its
    listed ones.
    """
    supports = [[j for j in range(len(p)) if p[j] > eps] for p in tables]
    n, count = len(codewords[0]), len(tables[0])
    word_sets, owners = [], {}
    for i, cw in enumerate(codewords):
        words = set(itertools.product(*(supports[c] for c in cw)))
        for word in words:
            owners.setdefault(word, []).append(i)
        word_sets.append(words)
    pair_mass = {}
    for word in sorted(owners):
        for a, b in itertools.combinations(owners[word], 2):
            pa, pb = (
                math.prod(tables[c][x] for c, x in zip(codewords[i], word)) for i in (a, b)
            )
            pair_mass[a, b] = pair_mass.get((a, b), 0.0) + min(pa, pb)
    best = None
    for ab in sorted(pair_mass):
        if best is None or pair_mass[ab] > pair_mass[best]:
            best = ab
    tensor_checked = outputs is not None and (
        len(outputs[0]) ** n <= caps[0] and count**n <= caps[1]
    )
    agree = None
    if tensor_checked:
        all_words = list(itertools.product(range(count), repeat=n))
        # products[w] = E_w0 x ... x E_wn-1, one Kronecker factor at a time:
        # entry ((i, k), (j, l)) of A x B is A[i, j] B[k, l].
        e = np.asarray(elements, dtype=np.complex128)
        products = e
        for _ in range(n - 1):
            w, d = len(products), products.shape[1] * e.shape[1]
            products = np.einsum("aij,bkl->abikjl", products, e).reshape(w * count, d, d)
        flat = products.reshape(len(all_words), -1)
        agree = True
        for cw, words in zip(codewords, word_sets):
            joint = np.asarray(outputs[cw[0]], dtype=np.complex128)
            for c in cw[1:]:
                joint = np.kron(joint, outputs[c])
            # tr(joint E_w) = sum_ij joint[i, j] E_w[j, i], for every word w.
            p = (flat @ joint.T.ravel()).real
            agree = agree and {w for w, pw in zip(all_words, p) if pw > eps} == words
    disjoint = not pair_mass
    return {
        "passed": disjoint and agree is not False,
        "eps": eps,
        "pairwise_disjoint": disjoint,
        "overlap_pair": best,
        "max_overlap_mass": pair_mass.get(best, 0.0),
        "support_sizes": tuple(len(words) for words in word_sets),
        "total_reachable": sum(len(words) for words in word_sets),
        "word_space_size": count**n,
        "tensor_path_checked": tensor_checked,
        "paths_agree": agree,
    }


def random_graph(vertex_count: int, p: float, rng: np.random.Generator):
    """Erdos-Renyi edge list, for property suites."""
    return [
        (a, b)
        for a in range(vertex_count)
        for b in range(a + 1, vertex_count)
        if rng.random() < p
    ]


def kneser_graph(n: int, k: int):
    """Edge list of the Kneser graph K(n, k) on the C(n, k) k-subsets of range(n).

    Subsets are numbered in lexicographic order and adjacent iff disjoint;
    K(5, 2) is the Petersen graph.
    """
    sets = [set(c) for c in itertools.combinations(range(n), k)]
    return [(i, j) for i, j in itertools.combinations(range(len(sets)), 2) if not sets[i] & sets[j]]


def random_regular_graph(vertex_count: int, degree: int, rng: np.random.Generator):
    """Uniform d-regular edge list: random stub pairings, retried until simple."""
    while True:
        stubs = rng.permutation(np.repeat(np.arange(vertex_count), degree)).tolist()
        pairs = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(pairs) * 2 == len(stubs) and all(a != b for a, b in pairs):
            return sorted(pairs)


def orbit_of_zero(vertex_count: int, edges) -> tuple[int, ...]:
    """Every vertex some automorphism maps vertex 0 to, by plain backtracking.

    Vertices are mapped in breadth-first order from 0 (component by
    component), each partial map kept adjacency- and non-adjacency-preserving
    on every pair mapped so far.  Use on small graphs only.
    """
    adj = _adjacency_masks(vertex_count, edges)
    order: list[int] = []
    for start in range(vertex_count):
        if start in order:
            continue
        queue = [start]
        order.append(start)
        for v in queue:
            for u in range(vertex_count):
                if (adj[v] >> u) & 1 and u not in order:
                    order.append(u)
                    queue.append(u)

    def extend(image: list[int]) -> bool:
        if len(image) == vertex_count:
            return True
        v = order[len(image)]
        for u in range(vertex_count):
            if u in image:
                continue
            if all(((adj[v] >> x) & 1) == ((adj[u] >> y) & 1) for x, y in zip(order, image)):
                if extend(image + [u]):
                    return True
        return False

    return tuple(w for w in range(vertex_count) if extend([w]))


def kraus_output(kraus, rho) -> np.ndarray:
    """sum_k K_k rho K_k^dagger entry by entry, as explicit index sums.

    out[i, l] = sum_k sum_{j, m} K_k[i, j] rho[j, m] conj(K_k[l, m]), with no
    matrix product taken.  O(K d^4) scalar operations.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    d = rho.shape[0]
    out = np.zeros((d, d), dtype=np.complex128)
    for k in kraus:
        k = np.asarray(k, dtype=np.complex128)
        for i, l in itertools.product(range(d), repeat=2):
            s = 0j
            for j, m in itertools.product(range(d), repeat=2):
                s += k[i, j] * rho[j, m] * k[l, m].conjugate()
            out[i, l] += s
    return out


def povm_traces(sigma, elements) -> np.ndarray:
    """[tr(sigma E_j)]_j as the double sums sum_{a, b} sigma[a, b] E_j[b, a]."""
    sigma = np.asarray(sigma, dtype=np.complex128)
    d = sigma.shape[0]
    out = []
    for e in elements:
        e = np.asarray(e, dtype=np.complex128)
        out.append(sum(sigma[a, b] * e[b, a] for a, b in itertools.product(range(d), repeat=2)))
    return np.array(out, dtype=np.complex128)
