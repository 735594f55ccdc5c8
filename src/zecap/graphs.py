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
    """

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise DimensionMismatchError("a graph needs at least one vertex")
        for a, b in self.edges:
            if not (0 <= a < b < self.vertex_count):
                raise DimensionMismatchError(
                    f"edge ({a}, {b}) invalid for {self.vertex_count} vertices"
                )

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
    """
    n = g.vertex_count
    if n > max_vertices:
        raise SizeLimitError(n, max_vertices)
    full = (1 << n) - 1
    comp = [full & ~m & ~(1 << v) for v, m in enumerate(g.adjacency_masks())]
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
