"""Zero-error block codes: codeword selection, decoding tables, certificates.

An n-use zero-error code is an independent set of the n-th strong power of
the confusability graph: codewords are n-tuples of state indices, and any
two codewords differ at some position whose two states are one-shot
distinguishable.  Because inputs and measurements are per-use products, the
set of output words a codeword can produce is the Cartesian product of the
per-position support sets, so decoding is a finite table: every reachable
word belongs to exactly one codeword.

``verify_zero_error`` decides this by position, by Shannon's rule: two
codewords share a word iff their states are equal or adjacent in the
confusability graph at every position, so it lists words only for the pairs
that fail, to sum their confusable mass.  A second, independent path
recomputes the supports and checks them against that rule, certifying the
product-measurement model rather than assuming it: each codeword's joint
state (np.kron's products of its recomputed post-channel states, never
assumed to factorise) is contracted with the stacked POVM one position at a
time to give the probability of every output word.  No product-POVM
element is built, and the joint is built only where the contraction reads
it: per position, the s pairs (i, j) where some POVM element's entry (j, i)
is nonzero, s = d^2 for a dense POVM and s = d for a diagonal one, as for
every classical embedding.  For N outcomes on a d-dimensional channel the
cost per codeword is s^n products to build those entries (of the joint's
d^(2n)), a chunk of codewords at a time, and about N s^n multiply-adds to
contract them when N <= s.  They are real multiply-adds when the channel
outputs and the POVM are exactly real, as for every classical embedding,
and complex ones, four real multiplications each, when any entry is complex.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .confusability import ConfusabilityGraph, StateSet, _graph_and_table
from .errors import (
    AmbiguousSupportsError,
    DimensionMismatchError,
    SizeLimitError,
)
from .graphs import MAX_VERTICES, Graph, _strong_power_pairs, independence_number, strong_power
from .quantum import (
    Povm,
    QuantumChannel,
    _apply_kraus,
    _exact_real,
    _require_hermitian_psd,
    _require_unit_trace,
    outcome_probabilities,  # noqa: F401  (unused; perfbench/tracing.py wraps this name)
)

__all__ = [
    "ENUMERATION_CAP",
    "QuantumBlockCode",
    "DecoderTable",
    "ZeroErrorReport",
    "build_code",
    "build_decoder",
    "code_from_witness",
    "verify_zero_error",
]

# Per-codeword cap on enumerated output words.
ENUMERATION_CAP = 10**6

# Joint-space dimension cap for the Kronecker verification path.
TENSOR_DIM_CAP = 4096

# Joint entries the Kronecker path builds per contraction, s^n a codeword
# (2^16: 512 KiB real, 1 MiB complex); a larger codeword runs alone.  On one
# Xeon core (min of 20-60 calls, two or three runs), 2^12 to 2^18 all took
# the same time on the benchmark's four classical codes and a dense
# (Haar-basis) d = 2, n = 5 code of 32 codewords (0.62-0.79 ms), while dense
# d = 4, n = 3 and d = 2, n = 6 codes of 64 took 1.4-1.6 and 2.5-2.7 ms from
# 2^15 up, against 1.7 and 3.0 at 2^14 and 2.8 and 4.9 at 2^12.
_CHUNK_ENTRIES = 2**16

_Word = tuple[int, ...]


def _block_length(n) -> int:
    """``n`` as a Python int >= 1, or ``DimensionMismatchError``."""
    try:
        n = operator.index(n)
    except TypeError:
        raise DimensionMismatchError(f"block length {n!r} is not an integer") from None
    if n < 1:
        raise DimensionMismatchError("block length must be >= 1")
    return n


@dataclass(frozen=True)
class QuantumBlockCode:
    """K codewords of length n over the state alphabet of ``source``.

    ``codewords[i]`` is the tuple of state indices encoding message i, in
    the order given; ``code_from_witness`` gives them in lexicographic
    order, so message numbering is deterministic.  The block length and
    the indices are stored as Python ints, whatever integer type they came
    in.  The constructor checks shape, not zero-error-ness: ``build_code``
    produces certified codes, while ``verify_zero_error`` and
    ``build_decoder`` diagnose arbitrary ones (including bad ones, on
    purpose).
    """

    block_length: int
    codewords: tuple[tuple[int, ...], ...]
    source: StateSet
    povm: Povm

    def __post_init__(self):
        n = _block_length(self.block_length)
        if len(self.codewords) < 1:
            raise DimensionMismatchError("a code needs at least one codeword")
        m = len(self.source.states)
        codewords: dict[tuple[int, ...], None] = {}
        for cw in self.codewords:
            try:
                cw = tuple(map(operator.index, cw))
            except TypeError:
                raise DimensionMismatchError(
                    f"codeword {cw!r} is not a sequence of integer state indices"
                ) from None
            if len(cw) != n:
                raise DimensionMismatchError(
                    f"codeword {cw} has length {len(cw)}, expected {n}"
                )
            if any(not 0 <= c < m for c in cw):
                raise DimensionMismatchError(f"codeword {cw} indexes outside 0..{m - 1}")
            if cw in codewords:
                raise DimensionMismatchError(f"duplicate codeword {cw}")
            codewords[cw] = None
        object.__setattr__(self, "block_length", n)
        object.__setattr__(self, "codewords", tuple(codewords))

    @property
    def message_count(self) -> int:
        return len(self.codewords)

    @property
    def rate(self) -> float:
        """Bits per channel use: log2(K)/n."""
        return math.log2(self.message_count) / self.block_length


@dataclass(frozen=True)
class DecoderTable:
    """Total decoding map from output words to messages.

    ``decode`` returns the message index for a reachable word and ``None``
    (the designated unreachable marker) for a word no codeword can produce.
    """

    block_length: int
    outcome_count: int
    message_count: int
    mapping: dict[tuple[int, ...], int] = field(repr=False)

    def decode(self, word: tuple[int, ...]) -> int | None:
        """Message of ``word``, or ``None`` if no codeword reaches it.

        Outcomes are read with ``operator.index``, so numpy integers pass and
        a non-integer such as 0.9 is refused, not truncated.
        """
        try:
            word = tuple(map(operator.index, word))
        except TypeError:
            raise DimensionMismatchError(
                f"word {word!r} is not a sequence of integer outcomes"
            ) from None
        if len(word) != self.block_length:
            raise DimensionMismatchError(
                f"word length {len(word)}, expected {self.block_length}"
            )
        if any(not 0 <= w < self.outcome_count for w in word):
            raise DimensionMismatchError(
                f"word {word} has outcomes outside 0..{self.outcome_count - 1}"
            )
        return self.mapping.get(word)


@dataclass(frozen=True)
class ZeroErrorReport:
    """Outcome of certifying a code against its channel.

    ``passed`` requires pairwise-disjoint reachable supports and, when the
    Kronecker path ran, exact agreement between the two support
    computations.  ``support_sizes`` are products of per-position support
    sizes.  ``max_overlap_mass`` is the largest confusable probability mass
    over codeword pairs, zero for a passing code: for each shared word the
    mass counted is min of the two production probabilities, summed over the
    shared words in lexicographic order.  ``overlap_pair`` is the pair
    carrying it, the lexicographically first one on ties.
    """

    passed: bool
    eps: float
    pairwise_disjoint: bool
    overlap_pair: tuple[int, int] | None
    max_overlap_mass: float
    support_sizes: tuple[int, ...]
    total_reachable: int
    word_space_size: int
    tensor_path_checked: bool
    paths_agree: bool | None


def _code_graph(
    code: QuantumBlockCode,
    channel: QuantumChannel,
    eps: float,
) -> tuple[ConfusabilityGraph, np.ndarray, list[int]]:
    """The code's confusability graph, its (M, N) outcome table, each codeword's word count.

    The first codeword reaching more than ``ENUMERATION_CAP`` words is refused.
    """
    graph, table = _graph_and_table(channel, code.source, code.povm, eps)
    sizes = [math.prod(len(graph.supports[c]) for c in cw) for cw in code.codewords]
    for size in sizes:
        if size > ENUMERATION_CAP:
            raise SizeLimitError(size, ENUMERATION_CAP, what="output words")
    return graph, table, sizes


def code_from_witness(
    witness,
    states: StateSet,
    povm: Povm,
    n: int,
) -> QuantumBlockCode:
    """The code whose codewords are the vertices ``witness`` of G^boxtimes n.

    Parameters
    ----------
    witness : sequence of int
        Vertex indices of the n-th strong power of the confusability graph
        of ``(states, povm)``, such as a ``RateEntry.witness``.
    states : StateSet
    povm : Povm
    n : int
        Block length: the power the witness indexes.

    Returns
    -------
    QuantumBlockCode
        One codeword per vertex, decoded from the vertex index to its index
        tuple (vertex = sum of digits base M, the order np.kron lays out),
        in lexicographic order.  The code is zero-error exactly when the
        witness is an independent set; that is checked by
        ``verify_zero_error``, not here.

    Raises
    ------
    DimensionMismatchError
        If a vertex is not an integer in 0..M^n - 1, the witness is empty or
        repeats a vertex, or ``n`` is not an integer >= 1.
    """
    n = _block_length(n)
    m = len(states.states)
    size = m**n
    try:
        vertices = [operator.index(v) for v in witness]
    except TypeError:
        raise DimensionMismatchError(
            f"witness {witness!r} is not a sequence of integer vertices"
        ) from None
    outside = [v for v in vertices if not 0 <= v < size]
    if outside:
        raise DimensionMismatchError(f"witness vertex {outside[0]} is outside 0..{size - 1}")
    # Python ints, not np.unravel_index: M^n need not fit an intp.
    codewords = []
    for v in vertices:
        word = [0] * n
        for t in range(n - 1, -1, -1):
            v, word[t] = divmod(v, m)
        codewords.append(tuple(word))
    return QuantumBlockCode(
        block_length=n,
        codewords=tuple(sorted(codewords)),
        source=states,
        povm=povm,
    )


def build_code(
    graph: Graph,
    states: StateSet,
    povm: Povm,
    n: int,
    max_vertices: int = MAX_VERTICES,
) -> QuantumBlockCode:
    """Best zero-error code of block length ``n`` for the given ensemble.

    Parameters
    ----------
    graph : Graph
        Must be the confusability graph of ``(states, povm)``.
    states : StateSet
    povm : Povm
    n : int
        Block length.
    max_vertices : int, optional
        Cap on the strong-power size handed to the exact solver.

    Returns
    -------
    QuantumBlockCode
        K = alpha(G^boxtimes n) codewords: ``code_from_witness`` of the
        maximum independent set ``independence_number`` returns, the same
        one ``capacity_bounds`` reports as that block length's witness.

    Raises
    ------
    SizeLimitError
        If M^n exceeds ``max_vertices``.
    """
    if graph.vertex_count != len(states.states):
        raise DimensionMismatchError(
            f"graph has {graph.vertex_count} vertices for {len(states.states)} states"
        )
    power = strong_power(graph, n, max_vertices)
    _, witness = independence_number(power, max_vertices)
    return code_from_witness(witness, states, povm, n)


def build_decoder(
    code: QuantumBlockCode,
    channel: QuantumChannel,
    eps: float,
) -> DecoderTable:
    """Zero-error decoding table, or proof that none exists.

    Maps every reachable word to its unique producing message; all other
    words decode to the unreachable marker (``None``).

    Raises
    ------
    AmbiguousSupportsError
        If two codewords share a reachable word.  The error carries the
        offending message pair and word: the first collision a fill in codeword
        order meets, i.e. the least second owner, then the least word.
    SizeLimitError
        If some codeword's support product exceeds ``ENUMERATION_CAP`` words.
    EmptySupportError
        If some state's outcome distribution has no entry above ``eps``; the
        error names the state.
    """
    graph, _, _ = _code_graph(code, channel, eps)
    supports = [sorted(s) for s in graph.supports]
    mapping: dict[_Word, int] = {}
    for i, cw in enumerate(code.codewords):
        for w in itertools.product(*(supports[c] for c in cw)):
            if mapping.setdefault(w, i) != i:
                raise AmbiguousSupportsError(pair=(mapping[w], i), word=w)
    return DecoderTable(
        block_length=code.block_length,
        outcome_count=len(code.povm),
        message_count=code.message_count,
        mapping=mapping,
    )


def verify_zero_error(
    code: QuantumBlockCode,
    channel: QuantumChannel,
    eps: float,
) -> ZeroErrorReport:
    """Certify (or refute) that ``code`` is zero-error for ``channel``.

    Two support computations are compared:

    * product path: two codewords are confusable iff at every position
      their states are equal or adjacent in the confusability graph, and
      each codeword reaches the product of its positions' supports;
    * Kronecker path (when the joint dimension d^n fits ``TENSOR_DIM_CAP``
      and the N^n words fit ``ENUMERATION_CAP``):
      each state's output is recomputed from the channel and validated,
      and the codeword's joint state (never assumed to factorise) is built
      at the s^n of its d^(2n) entries where some product element is
      nonzero, a chunk of codewords at a time.  The probabilities
      tr(joint (E_w0 x ... x E_wn-1)) for all N^n words come from
      contracting those entries with the stacked POVM one position at a
      time (no product element built), thresholded at the same ``eps``.

    ``passed`` means the supports are pairwise disjoint and the two paths
    agreed exactly.  Probabilities within roundoff of ``eps`` can make the
    paths differ legitimately; the confusability graph's fragility counter
    flags those instances.

    Raises
    ------
    SizeLimitError
        If some codeword's support product exceeds ``ENUMERATION_CAP`` words.
    EmptySupportError
        If some state's outcome distribution has no entry above ``eps``; the
        error names the state.
    NotHermitianError, NotPsdError, TraceNotOneError
        If a channel output the Kronecker path recomputes is not a density
        matrix within 1e-9 (numerical breakdown upstream).
    """
    graph, table, sizes = _code_graph(code, channel, eps)
    # Two codewords share a word iff their states meet at every position: they
    # are adjacent in the strong power.  The heaviest such pair is reported,
    # the lexicographically first on ties, each pair's mass summed over its
    # shared words in lexicographic order.
    overlap_pair, max_mass = None, 0.0
    pairs = _strong_power_pairs(graph, np.array(code.codewords, dtype=np.intp)).tolist()
    for a, b in pairs:
        ca, cb = code.codewords[a], code.codewords[b]
        common = (sorted(graph.supports[x] & graph.supports[y]) for x, y in zip(ca, cb))
        mass = 0.0
        for w in itertools.product(*common):
            pa = math.prod(table[c, x] for c, x in zip(ca, w))
            mass += min(pa, math.prod(table[c, x] for c, x in zip(cb, w)))
        if overlap_pair is None or mass > max_mass:
            overlap_pair, max_mass = (a, b), mass
    disjoint = not pairs

    n = code.block_length
    joint_dim = channel.dim**n
    word_count = len(code.povm) ** n
    tensor_checked = joint_dim <= TENSOR_DIM_CAP and word_count <= ENUMERATION_CAP
    paths_agree: bool | None = None
    if tensor_checked:
        paths_agree = _tensor_path_agrees(code, channel, eps, table > eps)

    passed = disjoint and (paths_agree is not False)
    return ZeroErrorReport(
        passed=passed,
        eps=eps,
        pairwise_disjoint=disjoint,
        overlap_pair=overlap_pair,
        max_overlap_mass=max_mass,
        support_sizes=tuple(sizes),
        total_reachable=sum(sizes),
        word_space_size=word_count,
        tensor_path_checked=tensor_checked,
        paths_agree=paths_agree,
    )


def _tensor_path_agrees(
    code: QuantumBlockCode,
    channel: QuantumChannel,
    eps: float,
    rows: np.ndarray,
) -> bool:
    """Recompute supports on the joint space and compare them word for word.

    The channel outputs are recomputed per state and validated as one stack.
    Each chunk's ``p > eps`` tensor must equal the outer AND of its
    codewords' rows of ``rows``, the (M, N) support table, built in word space.
    """
    n, d = code.block_length, channel.dim
    outs = np.array([_apply_kraus(channel, s.matrix) for s in code.source.states])
    _require_hermitian_psd(outs)
    _require_unit_trace(outs)
    elements, real_outs = code.povm.elements, _exact_real(outs)
    # Exactly real outputs and POVM are contracted in float64, a quarter of
    # the real multiplications; any complex entry keeps both complex.
    if real_outs is not None and code.povm._real_elements is not None:
        outs, elements = real_outs, code.povm._real_elements
    # f[w, i d + j] = E_w[j, i], the factor of a position's joint entry
    # (i, j).  Only the s pairs where some element is nonzero are gathered,
    # from the POVM and the outputs alike, and C-ordered again: BLAS can
    # round a product with a Fortran-ordered operand differently.
    f = elements.transpose(0, 2, 1).reshape(len(elements), d * d)
    support = np.flatnonzero(f.any(axis=0))
    f = np.ascontiguousarray(f[:, support])
    table = np.ascontiguousarray(outs.reshape(len(outs), d * d)[:, support])
    codewords = np.array(code.codewords, dtype=np.intp)
    chunk = max(1, _CHUNK_ENTRIES // len(support) ** n)
    for start in range(0, len(codewords), chunk):
        cws = codewords[start : start + chunk]
        want = rows[cws[:, 0]]
        for c in cws.T[1:]:
            want = (want[:, :, None] & rows[c][:, None, :]).reshape(len(c), -1)
        p = _word_probabilities(_support_joints(table, cws), f, n)
        if not np.array_equal(p.reshape(len(cws), -1) > eps, want):
            return False
    return True


def _support_joints(table: np.ndarray, codewords: np.ndarray) -> np.ndarray:
    """Joint-state entries of K codewords of length n at the support pairs, shape (K, s^n).

    ``table[c, k]`` is state c's output at support pair k = (i, j).  Entry
    [k_0 s^(n-1) + ... + k_{n-1}] of codeword (c_0, ..., c_{n-1}) is
    table[c_0, k_0] * ... * table[c_{n-1}, k_{n-1}], multiplied left to
    right: the product, and the order, of ``np.kron``'s entry at row
    (i_{k_0}, ..., i_{k_{n-1}}) and column (j_{k_0}, ..., j_{k_{n-1}}), one
    broadcast per position.
    """
    joints = table[codewords[:, 0]]
    for c in codewords.T[1:]:
        joints = (joints[:, :, None] * table[c][:, None, :]).reshape(len(c), -1)
    return joints


def _word_probabilities(joints: np.ndarray, f: np.ndarray, n: int) -> np.ndarray:
    """``p[..., w_0, ..., w_{n-1}] = tr(joint (E_w0 x ... x E_wn-1))`` for every word.

    ``joints`` holds, for each of its leading indices, one joint state's
    entries at the s support pairs of each position, shape (..., s^n) with
    the pair index of position 0 most significant; none is assumed to
    factorise.  ``f`` is the (N, s) table of the N POVM elements' factors
    at those pairs, of the same dtype, real or complex.  Each position is
    contracted one at a time, so no product element is built, and skipping
    the pairs where every element is zero changes no sum.  Step t costs
    N^(t+1) s^(n-t) multiply-adds per joint, so the first step's N s^n
    dominates when N <= s, against N^n Kronecker chains and traces of size
    d^(2n); s = d^2 for a dense POVM and s = d for a diagonal one.
    """
    count, s = f.shape
    p = joints
    # Step t contracts the leading pair axis and puts w_t after w_0..w_{t-1}.
    for t in range(n):
        p = f @ p.reshape(-1, s, s ** (n - 1 - t))
    return p.reshape(joints.shape[:-1] + (count,) * n).real
