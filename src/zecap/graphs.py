"""Simple graphs, strong products, and an exact independence-number solver.

The zero-error size of an n-block code is the independence number of the
n-th strong power of the confusability graph, so this module is the
combinatorial engine of the package.  Graphs are small by design (exact
computation is capped at ``MAX_VERTICES`` vertices); the clique search keeps
per-vertex bitmasks (non-negative Python ints) of neighbors and of
non-neighbors, so the branch-and-bound loop is a handful of integer ops per
node, and each coloring step takes the highest set bit, clears it and ANDs
in one mask.  The search runs on an explicit stack, so a clique of any size
is found without recursion.

A graph is one boolean adjacency matrix, and a strong product one Kronecker
product of A + I that also records its factor graphs, so a symmetry of the
product can be proven on the small factors.  Edges follow the package
convention: an edge means confusable.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DimensionMismatchError, SizeLimitError

__all__ = [
    "MAX_VERTICES",
    "Graph",
    "complete_graph",
    "edgeless_graph",
    "cycle_graph",
    "strong_product",
    "strong_power",
    "independence_number",
]

# Cap for exact independence-number computation and for product construction.
MAX_VERTICES = 64


@dataclass(frozen=True, init=False, eq=False)
class Graph:
    """Immutable undirected simple graph on vertices 0..vertex_count-1.

    Stored as one read-only boolean (V, V) ``adjacency`` matrix, symmetric
    with a false diagonal.  The constructor takes any iterable of integer
    pairs, in either orientation, and validates them in one pass;
    :meth:`from_edges` is the same constructor.  ``edges``, the frozenset of
    (a, b) with a < b as Python ints, is derived from the matrix when read.
    A graph made by :func:`strong_product` also keeps its factor graphs,
    nested products flattened, which no comparison, hash or copy reads; a
    copy, an unpickled graph and a graph built from its edges keep none.
    """

    vertex_count: int
    adjacency: np.ndarray = field(compare=False)

    def __init__(self, vertex_count: int, edges):
        try:
            n = operator.index(vertex_count)
        except TypeError:
            raise DimensionMismatchError(
                f"vertex count {vertex_count!r} is not an integer"
            ) from None
        if n < 1:
            raise DimensionMismatchError("a graph needs at least one vertex")
        m = np.zeros((n, n), dtype=bool)
        for a, b in edges:
            try:
                a, b = operator.index(a), operator.index(b)
            except TypeError:
                raise DimensionMismatchError(
                    f"edge ({a!r}, {b!r}) has a non-integer endpoint"
                ) from None
            if a == b:
                raise DimensionMismatchError(f"self-loop at vertex {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise DimensionMismatchError(f"edge {min(a, b), max(a, b)} invalid for {n} vertices")
            m[a, b] = True
        _graph(m | m.T, self)

    def __post_init__(self):
        # A subclass's generated constructor, a copy and an unpickled graph
        # hand over a matrix: check it, and keep a read-only copy of it.
        m, n = self.adjacency, self.vertex_count
        ok = isinstance(m, np.ndarray) and m.dtype == bool and m.shape == (n, n) and n >= 1
        if not ok or m.diagonal().any() or (m != m.T).any():
            raise DimensionMismatchError(f"not a symmetric loopless boolean {n!r} x {n!r} adjacency")
        _graph(m.copy(), self)

    def __setstate__(self, state: dict):
        self.__dict__.update(state)
        self.__post_init__()

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        # The compared fields, a subclass's too, and the matrix by its bytes.
        compared = (getattr(self, f.name) for f in fields(self) if f.compare)
        return (*compared, self.adjacency.tobytes())

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(map(tuple, np.argwhere(np.triu(self.adjacency)).tolist()))

    @staticmethod
    def from_edges(vertex_count: int, pairs) -> "Graph":
        return Graph(vertex_count, pairs)

    def has_edge(self, a: int, b: int) -> bool:
        return 0 <= min(a, b) and max(a, b) < self.vertex_count and bool(self.adjacency[a, b])


def _graph(m: np.ndarray, g: Graph | None = None, factors: tuple = ()) -> Graph:
    """``g``, or a new graph, holding ``m`` read-only and unchecked as its adjacency.

    ``factors`` are the graphs whose strong product ``m`` is, in coordinate
    order; () for a graph that is its own only factor.
    """
    g = object.__new__(Graph) if g is None else g
    m.flags.writeable = False
    object.__setattr__(g, "adjacency", m)
    object.__setattr__(g, "vertex_count", len(m))
    object.__setattr__(g, "_factors", factors)
    return g


def _pack(rows: np.ndarray) -> list[int]:
    """Each boolean row as a Python int whose bit j is entry j."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(r.tobytes(), "little") for r in packed]


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((a, b) for a in range(n) for b in range(a + 1, n)))


def edgeless_graph(n: int) -> Graph:
    return Graph(vertex_count=n, edges=frozenset())


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise DimensionMismatchError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def strong_product(g: Graph, h: Graph, max_vertices: int = MAX_VERTICES) -> Graph:
    """Strong graph product.

    Vertex (u, v) maps to index ``u * h.vertex_count + v`` (lexicographic).
    Distinct vertices are adjacent iff each coordinate is equal or adjacent,
    which is exactly the per-use confusability of two-letter words.

    Raises
    ------
    SizeLimitError
        If the product would exceed ``max_vertices`` vertices.
    """
    n = g.vertex_count * h.vertex_count
    if n > max_vertices:
        raise SizeLimitError(n, max_vertices)
    # (A_g + I) kron (A_h + I) is true exactly where the two coordinates are
    # each equal or adjacent; clearing its diagonal leaves the product's A.
    m = np.kron(*(f.adjacency | np.eye(f.vertex_count, dtype=bool) for f in (g, h)))
    np.fill_diagonal(m, False)
    return _graph(m, factors=(g._factors or (g,)) + (h._factors or (h,)))


def strong_power(g: Graph, n: int, max_vertices: int = MAX_VERTICES) -> Graph:
    """n-th strong power of ``g``; vertex indices are base-V digit strings.

    ``strong_power(g, 1)`` is ``g`` itself.  The compound index of the word
    (c_0, ..., c_{n-1}) is ``sum c_t * V^(n-1-t)``, so sorted vertex order
    is lexicographic word order.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise DimensionMismatchError(f"strong power needs an integer n, not {n!r}") from None
    if n < 1:
        raise DimensionMismatchError("strong power needs n >= 1")
    if g.vertex_count**n > max_vertices:
        raise SizeLimitError(g.vertex_count**n, max_vertices)
    out = g
    for _ in range(n - 1):
        out = strong_product(out, g, max_vertices)
    return out


def _strong_power_pairs(g: Graph, words: np.ndarray) -> np.ndarray:
    """The edges of g^boxtimes n among K distinct words, as rows (a, b), a < b, in order.

    ``words`` is a (K, n) array of vertex tuples; words a and b are adjacent
    iff at every position their vertices are equal or adjacent in g.  No
    (K, K) matrix is held: the relation is packed eight pairs a byte and
    taken about 64 KiB of rows at a time, from column a onward, with one
    AND per position.  Only its nonzero bytes are unpacked, so the cost is
    about n K^2 / 16 bytes, plus the edges found.
    """
    k = len(words)
    meet = g.adjacency | np.eye(g.vertex_count, dtype=bool)
    # Bit b of packed[x, t] is set iff vertex x meets word b's vertex t.
    packed = np.packbits(meet[:, words.T], axis=-1)
    step = 2**19 // k + 1
    firsts, seconds = [], []
    for lo in range(0, k, step):
        rows, skip = words[lo : lo + step], lo // 8
        block = packed[rows[:, 0], 0, skip:]
        for t in range(1, words.shape[1]):
            block &= packed[rows[:, t], t, skip:]
        r, c = np.nonzero(block)
        i, bit = np.nonzero(np.unpackbits(block[r, c][:, None], axis=1))
        a, b = lo + r[i], 8 * (skip + c[i]) + bit
        firsts.append(a[a < b])
        seconds.append(b[a < b])
    return np.array([np.concatenate(firsts), np.concatenate(seconds)]).T


# ---------------------------------------------------------------------------
# Exact maximum independent set
# ---------------------------------------------------------------------------
#
# alpha(G) is a maximum clique of the complement, found by branch and bound
# with the greedy-coloring bound of MCQ/BBMC (Tomita et al. 2003; San Segundo
# et al. 2011): a partial clique R can only reach |R| + (number of colors of
# its candidates), so a branch is cut as soon as that falls to the incumbent.
# The complement is relabelled once in the degeneracy order of MCS (Tomita
# et al. 2010): a vertex of least remaining degree is peeled into the lowest
# free bit, so it is colored last and branched first.  On a vertex-transitive
# graph every degree ties, and only the peel tells the vertices apart.  The
# coloring's "first available vertex" is the highest set bit, and the classes
# whose color cannot beat the incumbent are colored without listing a vertex.
# One engine, _clique, answers both the alpha query and the decision queries
# of the witness rebuild.  Its masks are built once per graph searched and
# are never negative: adj[v] holds v's neighbors in the complement, and
# nadj[v] = full ^ adj[v] ^ (1 << v) the other vertices but v, so the
# coloring drops v from the open class and keeps the class independent in
# one AND.  A coloring step finds v as bit_length() - 1, which reads only the
# int's top digit, and clears it with bit[v] = 1 << v from a tuple _clique
# makes once per search, so no step makes a negative int: the lowest set bit,
# avail & -avail, would, and CPython ANDs one through a two's-complement copy.


def _color_order(cand: int, nadj: tuple[int, ...], bit: tuple[int, ...], kmin: int):
    """Greedy coloring of the candidate set; returns (vertices, colors).

    ``nadj[v]`` is the non-negative mask of v's non-neighbors, v itself
    excluded, and ``bit[v]`` is ``1 << v``.  Color classes are built from
    the highest set bit down; vertices come back grouped by class, colors[i]
    = class index of vertices[i] (1-based), and only those with color >=
    ``kmin`` are listed.  A k-colored candidate set holds no clique larger
    than k.
    """
    color = 0
    while cand and color < kmin - 1:  # classes below kmin: nothing listed
        color += 1
        avail = cand
        while avail:
            v = avail.bit_length() - 1  # first available vertex: the highest bit
            cand ^= bit[v]
            avail &= nadj[v]
    vertices: list[int] = []
    colors: list[int] = []
    while cand:
        color += 1
        avail = cand
        while avail:
            v = avail.bit_length() - 1
            vertices.append(v)
            colors.append(color)
            cand ^= bit[v]
            avail &= nadj[v]
    return vertices, colors


def _clique(
    adj: tuple[int, ...], nadj: tuple[int, ...], cand: int, floor: int, first: bool
) -> list[int]:
    """Largest clique inside ``cand`` with more than ``floor`` vertices.

    ``nadj`` holds the masks :func:`_color_order` takes.  Returns ``[]``
    when there is none.  With ``first`` the search stops at the first clique
    of ``floor + 1`` vertices, which answers the decision query "is there a
    clique of that size?".  The search is depth first on an explicit stack
    of (cand, vertices, colors, i) frames, one per vertex of the partial
    clique ``r``, so its depth is bounded by memory, not by the recursion
    limit.  ``bit[v] = 1 << v`` is made here, once per search, for
    :func:`_color_order`.
    """
    bit = tuple(1 << v for v in range(len(adj)))
    best: list[int] = []
    top = floor  # size of the incumbent
    r: list[int] = []
    stack = []
    vertices, colors = _color_order(cand, nadj, bit, top + 1)
    i = len(vertices)
    while True:
        i -= 1
        depth = len(r)
        if i < 0 or depth + colors[i] <= top:
            # Frame done (the color bound: no strictly larger clique here).
            if not stack:
                return best
            cand, vertices, colors, i = stack.pop()
            cand ^= bit[r.pop()]  # the vertex was in cand: it was listed from it
            continue
        v = vertices[i]
        nxt = cand & adj[v]
        # A non-leaf clique always grows, so only leaves can set the
        # incumbent, unless the caller wants the first of floor + 1.
        if depth + 1 > top and (first or not nxt):
            best, top = r + [v], depth + 1
            if first:
                return best
        elif nxt:
            stack.append((cand, vertices, colors, i))
            r.append(v)
            cand = nxt
            vertices, colors = _color_order(cand, nadj, bit, top - depth)
            i = len(vertices)
            continue
        cand ^= bit[v]


def independence_number(
    g: Graph, max_vertices: int = MAX_VERTICES
) -> tuple[int, tuple[int, ...]]:
    """Exact independence number with a canonical witness.

    Parameters
    ----------
    g : Graph
    max_vertices : int, optional
        Refuse graphs larger than this (exact search only).

    Returns
    -------
    (alpha, witness)
        ``alpha`` is the maximum size of a pairwise non-adjacent vertex set;
        ``witness`` is THE lexicographically smallest such set, as a sorted
        tuple.  Canonical, so results never depend on search scheduling.

    Raises
    ------
    SizeLimitError
        If ``g`` has more than ``max_vertices`` vertices.

    Notes
    -----
    Branch and bound on the complement (maximum clique) with a greedy-coloring
    upper bound, on complement vertices relabelled in degeneracy order (least
    remaining degree peeled into the lowest bit, so colored last and branched
    first); the coloring steps through them by highest set bit and lists only
    the classes that can beat the incumbent, and the search keeps its
    partial clique on an explicit stack, so alpha is not bounded by the
    recursion limit.  The search only looks for sets larger than the
    greedy independent set in label order.  Once alpha is known, the
    witness is rebuilt greedily in the caller's labels: keep vertex v iff
    the remainder still admits an independent set completing to alpha.  The
    rebuild carries one such completion, starting from the set the alpha
    search found (the greedy set when it found none larger, which is then
    the witness itself), so a vertex inside it is kept without a query;
    every other query is answered by the same clique search stopped at its
    first hit, and a hit becomes the new completion.

    A graph of at least ``_TRANSITIVE_FLOOR`` vertices that is proven
    vertex-transitive (automorphisms map 0 to every vertex, each checked on
    the adjacency matrix) is searched as G - N[0] instead, in its own degeneracy
    order.  A strong product or power is proven on its distinct factors, and
    itself only when one of them is not proven: C7xC7 in 0.18 ms against
    0.66 ms for the whole graph, C5^4 0.23 against 25 ms, C5^5 0.24 against
    459 ms (one Xeon core, median).  The witness is unchanged: an
    automorphism moves a member of any maximum set to 0, so the
    lexicographically smallest maximum set starts with 0, and its remainder
    is the lexicographically smallest maximum set of G - N[0].

    A graph proven directly, not on its factors, also brings automorphisms
    fixing 0, and G - N[0] = R is then searched once per orbit O_i of the
    group they generate: alpha(R) = max_i 1 + alpha(R - O_1 - ... - O_{i-1}
    - N[v_i]) for any v_i in O_i, each term one clique search with the
    incumbent as floor, until a colouring of what is left cannot beat it.
    Any group of checked automorphisms fixing 0 gives the right maximum;
    one that misses some only has finer orbits.  The witness is rebuilt as
    above, from the winning branch's set, so it is unchanged too.
    Relabelled C11xC11 (121 vertices) takes 0.32 s against 0.87 s searched
    as one (one Xeon core, median of four relabellings).
    """
    n = g.vertex_count
    if n > max_vertices:
        raise SizeLimitError(n, max_vertices)
    adj = g.adjacency
    gens = None if n < _TRANSITIVE_FLOOR else _proven_transitive(g)
    if gens is None:
        return _maximum_independent_set(adj)
    rest = np.flatnonzero(~adj[0])[1:]  # G - N[0]; vertex 0 is the first non-neighbour
    orbits = _orbits(n, gens)[rest] if gens else None
    alpha, witness = _maximum_independent_set(adj[np.ix_(rest, rest)], orbits)
    return 1 + alpha, (0,) + tuple(rest[list(witness)].tolist())


def _maximum_independent_set(adj: np.ndarray, orbits=None) -> tuple[int, tuple[int, ...]]:
    """The clique engine on the complement of the graph with this adjacency.

    ``orbits``, when given, names each vertex's orbit under a group of
    automorphisms, and the alpha search branches once per orbit.
    """
    n = len(adj)
    full = (1 << n) - 1
    comp = ~adj
    np.fill_diagonal(comp, False)
    # Degeneracy order: peel a vertex of least remaining degree (argmin takes
    # the lowest label on ties) into the lowest free position; a peeled
    # vertex's degree is pushed past every live one.
    deg = comp.sum(axis=1)
    order = np.empty(n, dtype=np.intp)  # bit position -> label
    for rank in range(n):
        v = deg.argmin()
        order[rank] = v
        deg -= comp[v]
        deg[v] = 2 * n
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    pos = pos.tolist()  # label -> bit position
    adj = tuple(_pack(comp[np.ix_(order, order)]))
    nadj = tuple(full ^ a ^ (1 << v) for v, a in enumerate(adj))
    # The search's floor is the greedy independent set in label order.  When
    # nothing beats it, it is maximum, and then the lexicographically
    # smallest maximum set: the rebuild keeps each of its vertices unasked.
    greedy = 0
    free = full
    for p in pos:  # bit positions in label order
        if free >> p & 1:
            greedy |= 1 << p
            free &= adj[p]
    if orbits is None:
        best = _clique(adj, nadj, full, greedy.bit_count(), False)
    else:
        best = _orbital(adj, nadj, orbits[order].tolist(), greedy.bit_count())
    known = 0  # a maximum clique through every vertex chosen so far
    for b in best:
        known |= 1 << b
    known = known or greedy
    alpha = known.bit_count()

    witness: list[int] = []
    chosen = 0
    cand = full
    need = alpha
    for v in range(n):
        bit = 1 << pos[v]
        if not cand & bit:
            continue
        # Vertices below v are already decided, so restricting to
        # complement-neighbors of v is all that choosing v costs.
        rest = cand & adj[pos[v]]
        if not (known & bit or need == 1):
            more = _clique(adj, nadj, rest, need - 2, True)
            if not more:
                cand ^= bit  # bit is in cand: checked above
                continue
            known = chosen | bit
            for b in more:
                known |= 1 << b
        witness.append(v)
        chosen |= bit
        cand = rest
        need -= 1
        if need == 0:
            break
    return alpha, tuple(witness)


def _orbital(adj: tuple[int, ...], nadj: tuple[int, ...], orbit: list, floor: int) -> list[int]:
    """Largest clique with more than ``floor`` vertices, one branch per orbit.

    ``orbit[p]`` names the orbit of position p under a group of automorphisms
    of the graph.  Orbits are taken largest first (lowest position on ties).
    Each round colours what is left and stops when that colouring cannot
    beat the incumbent; otherwise it searches the orbit's lowest position v
    with one :func:`_clique` call on v's neighbours that are left, with the
    incumbent as floor, and then takes the whole orbit out: a clique through
    another member that avoids the orbits taken out before is the image of
    one through v that avoids them too.
    """
    n = len(adj)
    bit = tuple(1 << p for p in range(n))
    masks: dict = {}
    for p, o in enumerate(orbit):
        masks[o] = masks.get(o, 0) | bit[p]
    best: list[int] = []
    top = floor
    left = (1 << n) - 1
    for mask in sorted(masks.values(), key=lambda m: (-m.bit_count(), m & -m)):
        if not _color_order(left, nadj, bit, top + 1)[0]:
            break
        v = (mask & -mask).bit_length() - 1
        more = _clique(adj, nadj, left & adj[v], top - 1, False)
        if more:
            best, top = [v] + more, len(more) + 1
        left ^= mask
    return best


# ---------------------------------------------------------------------------
# Vertex-transitive graphs
# ---------------------------------------------------------------------------
#
# If some automorphism maps any vertex to 0, every maximum independent set
# has an image through 0, so alpha(G) = 1 + alpha(G - N[0]).  The witness
# keeps its contract: a set through 0 starts with the smallest label, so the
# lexicographically smallest maximum set of G contains 0, and the rest of it
# is the lexicographically smallest maximum set of G - N[0] (an
# order-preserving relabel keeps lexicographic order).  The symmetry is
# proven from the edges, never read off the labels: automorphisms 0 -> w are
# searched by individualisation and colour refinement (McKay & Piperno 2014),
# and each is accepted only once it maps the adjacency matrix onto itself.
# Both are array operations: a refinement round is one sum over the
# neighbour lists and one sort, and the check one permuted copy of the matrix.
# A strong product is proven on its factors: if each sigma_i is an
# automorphism of factor i, sigma_1 x ... x sigma_n acting coordinate-wise
# maps the product onto itself (Hammack, Imrich & Klavzar, Handbook of
# Product Graphs, 2011), so transitive factors make it transitive.  Each
# distinct factor is proven once, on its own few vertices; when one is not
# proven, the product itself is, as for any other graph.  One Xeon core,
# median: C7xC7 0.66 -> 0.18 ms, C5^4 25 -> 0.23 ms, C5^5 459 -> 0.24 ms.
#
# The symmetry left once 0 is fixed prunes the search of R = G - N[0]
# (orbital branching: Ostrowski, Linderoth, Rossi & Smriglio, Math.
# Programming 126, 2011).  Let H be a group of automorphisms fixing 0, with
# orbits O_1, ..., O_m on R and v_i in O_i.  Then
#     alpha(R) = max_i 1 + alpha(R - O_1 - ... - O_{i-1} - N[v_i]):
# a maximum set of R meets a first orbit O_i, and an element of H moving
# one of its members there to v_i maps it onto a set through v_i that still
# avoids O_1, ..., O_{i-1}, for H maps R and each orbit onto itself.  So any
# group of checked automorphisms fixing 0 is sound: a generator missed
# leaves H smaller and its orbits finer, which costs branches, never
# exactness.  A direct proof searches one level further down its path for
# automorphisms fixing 0 that move the path's second vertex through its
# cell, each accepted by the same edge check, all within one budget of
# _PROOF_NODES refinements.  A product proven on its factors brings none
# and searches R as one.  One Xeon core, median of four relabellings, proof
# included: C7xC9 3.1 -> 2.6 ms, C9xC9 17.2 -> 14.5 ms, C11xC11 0.87 ->
# 0.32 s; C7xC7 1.09 -> 1.26 ms, K(8,3) 1.3 -> 2.3 ms and Paley(61) 0.9 ->
# 1.3 ms, whose remainder search costs less than the stabiliser's.

# Below this many vertices the whole search costs no more than the proof and
# the remainder search, so the proof is not tried.  Route against whole
# search, one core, median over five labellings: C5xC7 (35) 1.0 against
# 0.4 ms, Paley(41) 0.9 against 0.4 ms, C5xC9 (45) a tie at 1.4 ms, C7xC7
# (49) 1.3 against 1.8 ms.  The tie goes to the route, whose time spreads
# less over labellings.
_TRANSITIVE_FLOOR = 45
# Refinements one automorphism search may spend before the proof gives up;
# the searches for automorphisms fixing 0 share one such budget.
_PROOF_NODES = 64


def _weights(size: int) -> np.ndarray:
    """Fixed pseudo-random 32-bit weights for colours 0..size-1; each table is
    a prefix of every longer one, and fewer than 2^31 of them sum exactly."""
    rng = random.Random(0)
    return np.array([rng.getrandbits(32) for _ in range(size)], dtype=np.int64)


def _refine(nbrs: np.ndarray, weights: np.ndarray, colors: np.ndarray, expect=None):
    """Colour refinement to a stable colouring; returns (colors, rounds).

    A round keys v by its colour and the sum of its neighbours' colour
    ``weights``, and names each key by its rank among the round's keys, so
    the colouring depends on the edges and never on the labels.  Keys of one
    colour whose weights happen to sum alike stay merged: the refinement then
    splits less, which may cost the proof nodes but never its soundness.
    ``rounds`` lists each round's sums in key order.  With ``expect`` (the
    rounds of a colouring to match) the refinement stops at the first round
    that differs and returns None: no automorphism maps the one colouring
    onto the other.  The sums alone tell: colourings that have matched so far
    hold each colour equally often, so their sorted colours agree.
    """
    rounds = []
    while True:
        sums = weights[colors][nbrs].sum(axis=1)
        order = np.lexsort((sums, colors))
        c, s = colors[order], sums[order]
        r = len(rounds)
        if expect is not None and (r == len(expect) or not np.array_equal(s, expect[r])):
            return None
        rounds.append(s)
        old = c[1:] != c[:-1]
        new = old | (s[1:] != s[:-1])
        colors = np.empty_like(colors)
        colors[order] = np.concatenate(([0], np.cumsum(new)))
        if np.count_nonzero(new) == np.count_nonzero(old):
            return colors, rounds


def _is_automorphism(adj: np.ndarray, sigma: np.ndarray) -> bool:
    """True iff ``sigma`` maps edges onto edges and non-edges onto non-edges."""
    return np.array_equal(adj[np.ix_(sigma, sigma)], adj)


def _leaves(nbrs, weights, path, leaf: np.ndarray, depth: int, colors: np.ndarray, w: int, budget):
    """Candidate automorphisms mapping the path's vertex at ``depth`` to ``w``.

    ``path`` holds the rounds and the chosen cell of each individualisation
    from 0, down to the discrete colouring ``leaf``, and ``colors`` is the
    path's colouring above ``depth``.  The search follows the path from
    ``w``, trying every vertex of the chosen cell in turn, depth first,
    lowest first, and yields the permutation of each leaf it reaches.  Each
    refinement takes one item of the iterator ``budget``, and the search
    ends when it runs out.  Only the caller's check on the edges makes a
    candidate an automorphism.
    """
    n = len(leaf)
    stack = [(depth, colors, w)]
    while stack:
        if next(budget, None) is None:
            return
        depth, colors, y = stack.pop()
        colors = colors.copy()
        colors[y] = n
        rounds, cell = path[depth]
        refined = _refine(nbrs, weights, colors, rounds)
        if refined is None:
            continue
        colors = refined[0]
        if cell >= 0:
            stack += [(depth + 1, colors, z) for z in np.flatnonzero(colors == cell)[::-1]]
            continue
        at = np.empty(n, dtype=np.intp)
        at[colors] = np.arange(n)
        yield at[leaf]


def _proven_transitive(g: Graph) -> list[np.ndarray] | None:
    """Automorphisms fixing 0, if automorphisms of ``g`` are proven to map 0 to every vertex.

    None means "not proven".  A strong product is proven on its distinct
    factors, each once, and then no automorphism is returned; when one of
    them is not proven, or ``g`` is no product, ``g`` itself is, and the
    automorphisms fixing 0 that its proof finds are returned.
    """
    factors = dict.fromkeys(g._factors)
    if factors and all(_vertex_transitive(f.adjacency) for f in factors):
        return []
    stabiliser: list[np.ndarray] = []
    return stabiliser if _vertex_transitive(g.adjacency, stabiliser) else None


def _vertex_transitive(adj: np.ndarray, stabiliser: list | None = None) -> bool:
    """True only if automorphisms of the graph with adjacency ``adj`` map 0 to every vertex.

    False means "not proven": the graph is irregular, an automorphism search
    came out empty, or one ran out of its ``_PROOF_NODES`` refinements.
    Given a list ``stabiliser``, a proof also searches one level further
    down its path and appends the automorphisms fixing 0 it finds there
    (see :func:`_stabiliser`).
    """
    n = len(adj)
    degrees = adj.sum(axis=1)
    if (degrees != degrees[0]).any():
        return False
    if degrees[0] in (0, n - 1):
        return True
    nbrs = np.nonzero(adj)[1].reshape(n, -1)
    weights = _weights(n + 1)

    # One path of individualisations from 0, each in the largest cell (lowest
    # colour on ties), down to a discrete colouring.  An automorphism 0 -> w
    # maps this path onto a path from w through the same cells.
    path = []  # (rounds, cell to individualise next, or -1 at the leaf)
    levels = []  # the colouring each individualisation starts from
    colors, x = np.zeros(n, dtype=np.intp), 0
    while True:
        levels.append(colors)
        colors = colors.copy()
        colors[x] = n  # a fresh colour, the same on both sides
        colors, rounds = _refine(nbrs, weights, colors)
        sizes = np.bincount(colors)
        cell = int(sizes.argmax())
        if sizes[cell] == 1:
            cell = -1
        path.append((rounds, cell))
        if cell < 0:
            break
        x = int((colors == cell).argmax())
    leaf = colors  # discrete: each colour names one vertex

    orbit = np.zeros(n, dtype=bool)
    orbit[0] = True
    gens = []
    while not orbit.all():
        w = int(orbit.argmin())
        budget = iter(range(_PROOF_NODES))
        sigma = _automorphism(adj, _leaves(nbrs, weights, path, leaf, 0, levels[0], w, budget))
        if sigma is None:
            return False
        gens.append(sigma)
        _close(orbit, gens)
    if stabiliser is not None and len(path) > 1:
        stabiliser += _stabiliser(adj, nbrs, weights, path, leaf, levels[1])
    return True


def _stabiliser(adj, nbrs, weights, path, leaf: np.ndarray, colors: np.ndarray) -> list[np.ndarray]:
    """Automorphisms fixing 0 that move the path's second vertex through its cell.

    ``colors`` is the path's colouring once 0 is individualised.  Each
    vertex of the second vertex's cell that no automorphism found so far
    reaches is searched for as :func:`_leaves` does, one level down, and a
    candidate is kept only if it fixes 0 and maps the edges onto the edges.
    The searches share one budget of ``_PROOF_NODES`` refinements, so this
    costs at most what one failed search of the proof does.  A search that
    fails, or finds the budget spent, leaves the group smaller and its
    orbits finer.
    """
    cell = np.flatnonzero(colors == path[0][1])
    orbit = np.zeros(len(leaf), dtype=bool)
    orbit[cell[0]] = True
    gens = []
    budget = iter(range(_PROOF_NODES))
    for w in cell[1:].tolist():
        if orbit[w]:
            continue
        leaves = _leaves(nbrs, weights, path, leaf, 1, colors, w, budget)
        sigma = _automorphism(adj, (s for s in leaves if s[0] == 0))
        if sigma is not None:
            gens.append(sigma)
            _close(orbit, gens)
    return gens


def _automorphism(adj: np.ndarray, candidates) -> np.ndarray | None:
    """The first candidate permutation that maps the edges onto the edges, or None."""
    return next((s for s in candidates if _is_automorphism(adj, s)), None)


def _close(orbit: np.ndarray, gens: list[np.ndarray]) -> None:
    """Grow the boolean mask ``orbit`` to its closure under every generator."""
    size = 0
    while size < np.count_nonzero(orbit):
        size = np.count_nonzero(orbit)
        for s in gens:
            orbit[s[orbit]] = True


def _orbits(n: int, gens: list[np.ndarray]) -> np.ndarray:
    """Each vertex's orbit under the group ``gens`` generate, named by its lowest member.

    A vertex takes the lowest name among its images until no name moves: a
    permutation's powers close each of its cycles, so images alone reach
    the whole orbit.
    """
    label = np.arange(n)
    while True:
        old = label
        for s in gens:
            label = np.minimum(label, label[s])
        if np.array_equal(label, old):
            return label
