"""Simple graphs, strong products, and an exact independence-number solver.

The zero-error size of an n-block code is the independence number of the
n-th strong power of the confusability graph, so this module is the
combinatorial engine of the package.  Graphs are small by design (exact
computation is capped at ``MAX_VERTICES`` vertices); adjacency is kept as
per-vertex bitmasks (Python ints), which makes the branch-and-bound loop a
handful of integer ops per node.

Edge semantics follow the package convention: an edge means confusable.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph on vertices 0..vertex_count-1.

    Edges are stored as a frozenset of (a, b) pairs with a < b; build
    through :meth:`from_edges` to normalize arbitrary pair iterables.
    Endpoints are stored as Python ints, whatever integer type they came in.
    """

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise DimensionMismatchError("a graph needs at least one vertex")
        edges = set()
        for a, b in self.edges:
            try:
                a, b = operator.index(a), operator.index(b)
            except TypeError:
                raise DimensionMismatchError(
                    f"edge ({a!r}, {b!r}) has a non-integer endpoint"
                ) from None
            if not (0 <= a < b < self.vertex_count):
                raise DimensionMismatchError(
                    f"edge ({a}, {b}) invalid for {self.vertex_count} vertices"
                )
            edges.add((a, b))
        object.__setattr__(self, "edges", frozenset(edges))

    @staticmethod
    def from_edges(vertex_count: int, pairs) -> "Graph":
        norm = set()
        for a, b in pairs:
            a, b = int(a), int(b)
            if a == b:
                raise DimensionMismatchError(f"self-loop at vertex {a}")
            norm.add((min(a, b), max(a, b)))
        return Graph(vertex_count=vertex_count, edges=frozenset(norm))

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def degree(self, v: int) -> int:
        return sum(1 for a, b in self.edges if v in (a, b))

    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks (bit b of masks[a] set iff a~b)."""
        masks = [0] * self.vertex_count
        for a, b in self.edges:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        return tuple(masks)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix (float64, symmetric, zero diagonal)."""
        m = np.zeros((self.vertex_count, self.vertex_count))
        for a, b in self.edges:
            m[a, b] = m[b, a] = 1.0
        return m

    def complement(self) -> "Graph":
        n = self.vertex_count
        comp = frozenset(
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if (a, b) not in self.edges
        )
        return Graph(vertex_count=n, edges=comp)


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
    # (A_g + I) kron (A_h + I) has a positive entry exactly where the two
    # coordinates are each equal-or-adjacent; drop the diagonal.
    ag = g.adjacency_matrix() + np.eye(g.vertex_count)
    ah = h.adjacency_matrix() + np.eye(h.vertex_count)
    prod = np.kron(ag, ah)
    np.fill_diagonal(prod, 0.0)
    rows, cols = np.nonzero(prod)
    return Graph.from_edges(n, ((int(a), int(b)) for a, b in zip(rows, cols) if a < b))


def strong_power(g: Graph, n: int, max_vertices: int = MAX_VERTICES) -> Graph:
    """n-th strong power of ``g``; vertex indices are base-V digit strings.

    ``strong_power(g, 1)`` is ``g`` itself.  The compound index of the word
    (c_0, ..., c_{n-1}) is ``sum c_t * V^(n-1-t)``, so sorted vertex order
    is lexicographic word order.
    """
    if n < 1:
        raise DimensionMismatchError("strong power needs n >= 1")
    if g.vertex_count**n > max_vertices:
        raise SizeLimitError(g.vertex_count**n, max_vertices)
    out = g
    for _ in range(n - 1):
        out = strong_product(out, g, max_vertices)
    return out


# ---------------------------------------------------------------------------
# Exact maximum independent set
# ---------------------------------------------------------------------------
#
# alpha(G) is a maximum clique of the complement, found by branch and bound
# with the greedy-coloring bound of MCQ/BBMC (Tomita et al. 2003; San Segundo
# et al. 2011): a partial clique R can only reach |R| + (number of colors of
# its candidates), so a branch is cut as soon as that falls to the incumbent.
# The complement is relabelled once in the degeneracy order of MCS (Tomita
# et al. 2010): a vertex of least remaining degree is peeled into the highest
# free bit, so it is branched first and colored last.  On a vertex-transitive
# graph every degree ties, and only the peel tells the vertices apart.  The
# coloring's "first available vertex" is the lowest set bit, and the classes
# whose color cannot beat the incumbent are colored without listing a vertex.
# One engine, _clique, answers both the alpha query and the decision queries
# of the witness rebuild.


def _color_order(cand: int, nadj: tuple[int, ...], kmin: int):
    """Greedy coloring of the candidate set; returns (vertices, colors).

    ``nadj[v]`` is ``~adj[v]``.  Color classes are built in bit order;
    vertices come back grouped by class, colors[i] = class index of
    vertices[i] (1-based), and only those with color >= ``kmin`` are listed.
    A k-colored candidate set holds no clique larger than k.
    """
    color = 0
    while cand and color < kmin - 1:  # classes below kmin: nothing listed
        color += 1
        avail = cand
        while avail:
            low = avail & -avail  # first available vertex in label order
            cand ^= low
            avail = (avail ^ low) & nadj[low.bit_length() - 1]
    vertices: list[int] = []
    colors: list[int] = []
    while cand:
        color += 1
        avail = cand
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            vertices.append(v)
            colors.append(color)
            cand ^= low
            avail = (avail ^ low) & nadj[v]
    return vertices, colors


def _clique(adj: tuple[int, ...], cand: int, floor: int, first: bool) -> list[int]:
    """Largest clique inside ``cand`` with more than ``floor`` vertices.

    Returns ``[]`` when there is none.  With ``first`` the search stops at
    the first clique of ``floor + 1`` vertices, which answers the decision
    query "is there a clique of that size?".
    """
    nadj = tuple(~a for a in adj)
    best: list[int] = []
    top = floor  # size of the incumbent

    def expand(r: list[int], cand: int) -> bool:
        nonlocal best, top
        vertices, colors = _color_order(cand, nadj, top - len(r) + 1)
        for i in range(len(vertices) - 1, -1, -1):
            if len(r) + colors[i] <= top:
                return False  # color bound: no strictly larger clique here
            v = vertices[i]
            r.append(v)
            nxt = cand & adj[v]
            # A non-leaf clique always grows, so only leaves can set the
            # incumbent, unless the caller wants the first of floor + 1.
            if len(r) > top and (first or not nxt):
                best, top = r.copy(), len(r)
                if first:
                    return True
            elif nxt and expand(r, nxt):
                return True
            r.pop()
            cand &= ~(1 << v)
        return False

    expand([], cand)
    return best


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
    remaining degree peeled into the highest bit, so branched first); the
    coloring steps through them by lowest set bit and lists only the classes
    that can beat the incumbent.  Once alpha is known, the witness is rebuilt
    greedily in the caller's labels: keep vertex v iff the remainder still
    admits an independent set completing to alpha.  The rebuild carries one
    such completion, starting from the set the alpha search found, so a
    vertex inside it is kept without a query; every other query is answered
    by the same clique search stopped at its first hit, and a hit becomes
    the new completion.

    A graph of at least ``_TRANSITIVE_FLOOR`` vertices that is proven
    vertex-transitive (automorphisms map 0 to every vertex, each checked
    edge by edge) is searched as G - N[0] instead, in its own degeneracy
    order.  The witness is unchanged: an automorphism moves a member of any
    maximum set to 0, so the lexicographically smallest maximum set starts
    with 0, and its remainder is the lexicographically smallest maximum set
    of G - N[0].
    """
    n = g.vertex_count
    if n > max_vertices:
        raise SizeLimitError(n, max_vertices)
    masks = g.adjacency_masks()
    if n < _TRANSITIVE_FLOOR or not _vertex_transitive(g):
        return _maximum_independent_set(masks)
    rest = [v for v in range(1, n) if not masks[0] >> v & 1]
    sub = [sum(1 << i for i, u in enumerate(rest) if masks[v] >> u & 1) for v in rest]
    alpha, witness = _maximum_independent_set(sub)
    return 1 + alpha, (0,) + tuple(rest[i] for i in witness)


def _maximum_independent_set(masks) -> tuple[int, tuple[int, ...]]:
    """The clique engine on the complement of the graph with these masks."""
    n = len(masks)
    full = (1 << n) - 1
    comp = [full & ~m & ~(1 << v) for v, m in enumerate(masks)]
    # Degeneracy order: peel a vertex of least remaining degree (lowest label
    # on ties, as ``left`` stays sorted) into the highest free position.
    deg = [m.bit_count() for m in comp]
    left = list(range(n))
    pos = [0] * n  # label -> bit position
    for rank in range(n - 1, -1, -1):
        v = min(left, key=deg.__getitem__)
        left.remove(v)
        pos[v] = rank
        for u in left:
            deg[u] -= comp[v] >> u & 1
    adj = [0] * n
    for v, m in enumerate(comp):
        bits = 0
        while m:
            low = m & -m
            bits |= 1 << pos[low.bit_length() - 1]
            m ^= low
        adj[pos[v]] = bits
    adj = tuple(adj)
    known = 0  # a maximum clique through every vertex chosen so far
    for b in _clique(adj, full, 0, False):
        known |= 1 << b
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
            more = _clique(adj, rest, need - 2, True)
            if not more:
                cand &= ~bit
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
# searched by individualisation and colour refinement, and each is accepted
# only once it maps every edge onto an edge.

# Below this many vertices the whole search costs no more than the proof
# (C7xC7, 49 vertices, breaks even), so the proof is not tried.
_TRANSITIVE_FLOOR = 50
# Refinements one automorphism search may spend before the proof gives up.
_PROOF_NODES = 64


def _refine(nbrs: list[list[int]], colors: list[int], expect=None):
    """Colour refinement to the stable colouring; returns (colors, rounds).

    A round recolours v by (its colour, the sorted colours of its neighbours),
    flat, as every vertex has the same degree, and named by rank among the
    round's distinct signatures, so the colouring depends on the edges and
    never on the labels.  ``rounds`` lists each round's sorted signatures.
    With ``expect`` (the rounds of a colouring to match) the refinement stops
    at the first round that differs and returns None: no automorphism maps
    the one colouring onto the other.
    """
    classes = len(set(colors))
    rounds = []
    while True:
        get = colors.__getitem__
        sigs = [(c, *sorted(map(get, vs))) for c, vs in zip(colors, nbrs)]
        ordered = sorted(sigs)
        if expect is not None and (len(rounds) == len(expect) or ordered != expect[len(rounds)]):
            return None
        rounds.append(ordered)
        names = {s: i for i, s in enumerate(dict.fromkeys(ordered))}
        colors = [names[s] for s in sigs]
        if len(names) == classes:
            return colors, rounds
        classes = len(names)


def _automorphism(nbrs, masks, path, leaf: list[int], w: int) -> list[int] | None:
    """An automorphism mapping 0 to ``w``, found within ``_PROOF_NODES`` refinements.

    ``path`` holds the rounds and the chosen cell of each individualisation
    from 0, down to the discrete colouring ``leaf``.  The search follows the
    same path from ``w``, trying every vertex of the chosen cell in turn,
    depth first, lowest first; None when it finds nothing or runs out.
    """
    n = len(nbrs)
    stack = [(0, [0] * n, w)]
    for _ in range(_PROOF_NODES):
        if not stack:
            return None
        depth, colors, y = stack.pop()
        colors = colors.copy()
        colors[y] = n
        rounds, cell = path[depth]
        refined = _refine(nbrs, colors, rounds)
        if refined is None:
            continue
        colors = refined[0]
        if cell >= 0:
            stack += [(depth + 1, colors, z) for z in range(n - 1, -1, -1) if colors[z] == cell]
            continue
        at = [0] * n
        for v, c in enumerate(colors):
            at[c] = v
        sigma = [at[c] for c in leaf]
        # Refinement narrows the candidates; only the edges decide.
        if all(masks[sigma[v]] >> sigma[u] & 1 for v in range(n) for u in nbrs[v]):
            return sigma
    return None


def _vertex_transitive(g: Graph) -> bool:
    """True only if automorphisms of ``g`` map vertex 0 to every vertex.

    False means "not proven": the graph is irregular, an automorphism search
    came out empty, or one ran out of its ``_PROOF_NODES`` refinements.
    """
    n = g.vertex_count
    masks = g.adjacency_masks()
    degree = masks[0].bit_count()
    if any(m.bit_count() != degree for m in masks):
        return False
    if degree in (0, n - 1):
        return True
    nbrs = [[u for u in range(n) if m >> u & 1] for m in masks]

    # One path of individualisations from 0, each in the largest cell (lowest
    # colour on ties), down to a discrete colouring.  An automorphism 0 -> w
    # maps this path onto a path from w through the same cells.
    path = []  # (rounds, cell to individualise next, or -1 at the leaf)
    colors, x = [0] * n, 0
    while True:
        colors = colors.copy()
        colors[x] = n  # a fresh colour, the same on both sides
        colors, rounds = _refine(nbrs, colors)
        sizes = [0] * n
        for c in colors:
            sizes[c] += 1
        cell = max(range(n), key=sizes.__getitem__)
        if sizes[cell] == 1:
            cell = -1
        path.append((rounds, cell))
        if cell < 0:
            break
        x = colors.index(cell)
    leaf = colors  # discrete: each colour names one vertex

    orbit, gens = 1, []
    for w in range(1, n):
        if orbit >> w & 1:
            continue
        sigma = _automorphism(nbrs, masks, path, leaf, w)
        if sigma is None:
            return False
        gens.append(sigma)
        todo = [v for v in range(n) if orbit >> v & 1]
        while todo:
            v = todo.pop()
            for s in gens:
                if not orbit >> s[v] & 1:
                    orbit |= 1 << s[v]
                    todo.append(s[v])
    return True
