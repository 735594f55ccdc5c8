"""Block codes, decoding tables, and the zero-error certificate."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from zecap import (
    QuantumBlockCode,
    SearchConfig,
    basis_state,
    build_code,
    build_decoder,
    builtin_spec,
    capacity_bounds,
    code_from_witness,
    confusability_graph,
    depolarizing_channel,
    embed_classical,
    identity_channel,
    optimize_pair,
    pentagon_matrix,
    verify_zero_error,
)
from zecap import blockcode, quantum
from zecap.blockcode import _support_joints, _word_probabilities
from zecap.confusability import StateSet, support_set
from zecap.errors import (
    AmbiguousSupportsError,
    DimensionMismatchError,
    EmptySupportError,
    NotHermitianError,
    NotPsdError,
    SizeLimitError,
    TraceNotOneError,
)
from zecap.formats import code_document, dumps_canonical, parse_channel_spec
from zecap.quantum import (
    _projective_povm,
    apply_channel,
    outcome_probabilities,
    pure_state,
    validate_povm,
    validate_state,
)

from ensembles import haar_unitary, random_density_matrix, random_general_povm
from invariants import check_decoder_iff_independent
from oracles import certificate_by_words, decoder_fill

PENTAGON_CODEWORDS = ((0, 0), (1, 2), (2, 4), (3, 1), (4, 3))


def computational_povm(dim: int):
    eye = np.eye(dim, dtype=np.complex128)
    return validate_povm([np.outer(eye[:, j], eye[:, j]) for j in range(dim)])


def identity_ensemble(dim: int):
    channel = identity_channel(dim)
    states = StateSet(dim=dim, states=tuple(basis_state(dim, k) for k in range(dim)))
    povm = computational_povm(dim)
    return channel, states, povm


def pentagon_ensemble():
    channel, states, povm = embed_classical(pentagon_matrix())
    graph = confusability_graph(channel, states, povm)
    return channel, states, povm, graph


# ---------------------------------------------------------------------------
# build_code
# ---------------------------------------------------------------------------


def test_identity_codes_use_every_basis_word():
    channel, states, povm = identity_ensemble(2)
    graph = confusability_graph(channel, states, povm)
    code1 = build_code(graph, states, povm, n=1)
    assert code1.codewords == ((0,), (1,))
    assert code1.message_count == 2 and code1.rate == 1.0
    code2 = build_code(graph, states, povm, n=2)
    assert code2.codewords == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert code2.rate == 1.0


def test_pentagon_code_at_both_block_lengths():
    channel, states, povm, graph = pentagon_ensemble()
    one, two = capacity_bounds(graph, n_max=2).per_n
    for code1, code2 in [
        (build_code(graph, states, povm, n=1), build_code(graph, states, povm, n=2)),
        (
            code_from_witness(one.witness, states, povm, 1),
            code_from_witness(two.witness, states, povm, 2),
        ),
    ]:
        assert code1.codewords == ((0,), (2,))
        assert code2.codewords == PENTAGON_CODEWORDS
        assert code2.message_count == 5
        assert code2.rate == pytest.approx(math.log2(5.0) / 2.0, abs=1e-12)
        assert (code2.source, code2.povm) == (states, povm)


@pytest.mark.parametrize(
    "name, n_max", [("identity-d3", 3), ("bitflip-p0.1", 2)]
)
def test_the_witness_code_is_the_code_build_code_solves_for(name, n_max):
    # Both builtins are searched; bitflip-p0.1's ensemble is the search's
    # X-basis pair, not the computational basis.
    channel = parse_channel_spec(builtin_spec(name)).channel
    res = optimize_pair(channel, SearchConfig(num_states=channel.dim))
    states, povm, graph = res.best_states, res.best_povm, res.graph
    for entry in capacity_bounds(graph, n_max=n_max).per_n:
        from_witness = code_from_witness(entry.witness, states, povm, entry.n)
        solved = build_code(graph, states, povm, n=entry.n)
        assert from_witness.block_length == solved.block_length == entry.n
        assert from_witness.codewords == solved.codewords
        assert from_witness.message_count == entry.alpha
        assert verify_zero_error(from_witness, channel, eps=1e-9).passed


@pytest.mark.parametrize(
    "witness, n, message",
    [
        ((0, 25), 2, "witness vertex 25 is outside 0..24"),
        ((-1, 7), 2, "witness vertex -1 is outside 0..24"),
        ((), 2, "a code needs at least one codeword"),
        ((0, 7, 7), 2, "duplicate codeword"),
        ((0, 2.0), 1, "is not a sequence of integer vertices"),
        ((0,), 0, "block length must be >= 1"),
        ((0,), 1.0, "block length 1.0 is not an integer"),
        ((0, 2**70), 28, f"witness vertex {2**70} is outside 0..{5**28 - 1}"),
    ],
)
def test_code_from_witness_refuses_what_indexes_no_code(witness, n, message):
    channel, states, povm, graph = pentagon_ensemble()
    with pytest.raises(DimensionMismatchError, match=message):
        code_from_witness(witness, states, povm, n)


@pytest.mark.parametrize("n", [27, 28, 40])
def test_code_from_witness_decodes_past_the_intp_range(n):
    # 5^27 fits an int64, 5^28 and 5^40 do not: the digits are decoded
    # from Python ints, lexicographically sorted as below the boundary.
    channel, states, povm, graph = pentagon_ensemble()
    code = code_from_witness((5**n - 1, 7, 0), states, povm, n)
    assert code.codewords == ((0,) * n, (0,) * (n - 2) + (1, 2), (4,) * n)
    if n == 40:
        (word,) = code_from_witness((2**70,), states, povm, n).codewords
        assert sum(d * 5 ** (n - 1 - t) for t, d in enumerate(word)) == 2**70


def test_complete_graph_code_carries_one_message():
    channel = depolarizing_channel(1.0)
    states = StateSet(dim=2, states=(basis_state(2, 0), basis_state(2, 1)))
    povm = computational_povm(2)
    graph = confusability_graph(channel, states, povm)
    code = build_code(graph, states, povm, n=2)
    assert code.message_count == 1
    assert code.rate == 0.0


def test_build_code_rejects_mismatched_graph():
    channel, states, povm, graph = pentagon_ensemble()
    small = StateSet(dim=5, states=states.states[:3])
    with pytest.raises(DimensionMismatchError):
        build_code(graph, small, povm, n=1)


def test_build_code_respects_the_power_cap():
    channel, states, povm, graph = pentagon_ensemble()
    with pytest.raises(SizeLimitError):
        build_code(graph, states, povm, n=3)


# ---------------------------------------------------------------------------
# Reachable words / build_decoder
# ---------------------------------------------------------------------------


def test_pentagon_words_per_codeword():
    channel, states, povm, graph = pentagon_ensemble()
    code = build_code(graph, states, povm, n=2)
    assert verify_zero_error(code, channel, eps=1e-9).support_sizes == (4, 4, 4, 4, 4)
    # The decoder files each reachable word under its one codeword, so 20
    # entries are 5 disjoint sets of 4.
    mapping = build_decoder(code, channel, eps=1e-9).mapping
    words = [frozenset(w for w, i in mapping.items() if i == k) for k in range(5)]
    assert words[0] == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    assert [len(w) for w in words] == [4, 4, 4, 4, 4]
    assert len(mapping) == 20


@pytest.mark.parametrize("check", [build_decoder, verify_zero_error])
def test_decoder_and_certificate_refuse_past_the_enumeration_cap(check, monkeypatch):
    # Every pentagon n = 2 codeword reaches 4 words: the cap is read at call
    # time, and 4 is the first cap that lets the enumeration through.
    channel, states, povm, graph = pentagon_ensemble()
    code = build_code(graph, states, povm, n=2)
    monkeypatch.setattr(blockcode, "ENUMERATION_CAP", 3)
    with pytest.raises(SizeLimitError, match="4 output words exceeds the limit of 3"):
        check(code, channel, eps=1e-9)
    monkeypatch.setattr(blockcode, "ENUMERATION_CAP", 4)
    check(code, channel, eps=1e-9)


def test_identity_decoder_is_the_identity_map():
    channel, states, povm = identity_ensemble(2)
    graph = confusability_graph(channel, states, povm)
    code = build_code(graph, states, povm, n=1)
    decoder = build_decoder(code, channel, eps=1e-9)
    assert decoder.mapping == {(0,): 0, (1,): 1}
    assert decoder.decode((0,)) == 0 and decoder.decode((1,)) == 1


def test_pentagon_decoder_covers_twenty_of_twentyfive_words():
    channel, states, povm, graph = pentagon_ensemble()
    code = build_code(graph, states, povm, n=2)
    decoder = build_decoder(code, channel, eps=1e-9)
    assert len(decoder.mapping) == 20
    assert decoder.decode((0, 1)) == 0
    unreachable = [
        w for w in itertools.product(range(5), repeat=2) if decoder.decode(w) is None
    ]
    assert len(unreachable) == 5
    # Every word answers: either a message index or the unreachable marker.
    for w in itertools.product(range(5), repeat=2):
        out = decoder.decode(w)
        assert out is None or 0 <= out < 5


def test_decoder_validates_word_shape():
    channel, states, povm = identity_ensemble(2)
    graph = confusability_graph(channel, states, povm)
    decoder = build_decoder(build_code(graph, states, povm, n=2), channel, eps=1e-9)
    with pytest.raises(DimensionMismatchError):
        decoder.decode((0,))
    with pytest.raises(DimensionMismatchError):
        decoder.decode((0, 9))


def test_decoder_refuses_a_non_integer_outcome():
    # Truncating would decode 0.9 as outcome 0 (message 0) and 2.5 as 2 (message 1).
    channel, states, povm, graph = pentagon_ensemble()
    decoder = build_decoder(build_code(graph, states, povm, n=1), channel, eps=1e-9)
    for word in [(0.9,), np.array([2.5]), (2.0,), ("2",)]:
        with pytest.raises(DimensionMismatchError):
            decoder.decode(word)
    assert decoder.decode(np.array([2])) == decoder.decode((np.int64(2),)) == 1


def test_confusable_codewords_are_rejected_with_the_witness_word():
    # Hand-built code on the fully depolarizing channel: both inputs reach
    # both outcomes, so no decoder can exist.
    channel = depolarizing_channel(1.0)
    states = StateSet(dim=2, states=(basis_state(2, 0), basis_state(2, 1)))
    code = QuantumBlockCode(
        block_length=1,
        codewords=((0,), (1,)),
        source=states,
        povm=computational_povm(2),
    )
    with pytest.raises(AmbiguousSupportsError) as exc:
        build_decoder(code, channel, eps=1e-9)
    assert exc.value.pair == (0, 1)
    assert exc.value.word == (0,)


def test_the_decoder_reports_the_collision_a_fill_in_codeword_order_meets_first():
    # Random sparse classical channels and random codes of 3 to 6 codewords:
    # the raised pair and word, or the whole table, match the fill oracle.
    rng = np.random.default_rng(23)
    clashes_without_0 = clashes = tables = 0
    for _ in range(300):
        m_in, n_out, n = int(rng.integers(3, 5)), int(rng.integers(3, 6)), int(rng.integers(1, 3))
        w = np.zeros((m_in, n_out))
        for row in w:
            cols = rng.choice(n_out, size=int(rng.integers(1, 3)), replace=False)
            row[cols] = rng.dirichlet(np.ones(len(cols)) * 5.0)
        channel, states, povm = embed_classical(w)
        words = list(itertools.product(range(m_in), repeat=n))
        count = int(rng.integers(3, min(6, len(words)) + 1))
        codewords = tuple(words[i] for i in rng.choice(len(words), size=count, replace=False))
        code = QuantumBlockCode(block_length=n, codewords=codewords, source=states, povm=povm)
        mapping, clash = decoder_fill(w, codewords, 1e-9)
        if clash is None:
            decoder = build_decoder(code, channel, eps=1e-9)
            assert list(decoder.mapping.items()) == list(mapping.items())
            tables += 1
            continue
        with pytest.raises(AmbiguousSupportsError) as exc:
            build_decoder(code, channel, eps=1e-9)
        assert (exc.value.pair, exc.value.word) == clash
        clashes += 1
        clashes_without_0 += 0 not in clash[0]
    assert tables > 20 and clashes > 20 and clashes_without_0 > 20


# ---------------------------------------------------------------------------
# verify_zero_error
# ---------------------------------------------------------------------------


def test_pentagon_certificate_passes_with_agreeing_paths():
    channel, states, povm, graph = pentagon_ensemble()
    code = build_code(graph, states, povm, n=2)
    rep = verify_zero_error(code, channel, eps=1e-9)
    assert rep.passed
    assert rep.pairwise_disjoint
    assert rep.overlap_pair is None
    assert rep.max_overlap_mass == 0.0
    assert rep.support_sizes == (4, 4, 4, 4, 4)
    assert rep.total_reachable == 20
    assert rep.word_space_size == 25
    assert rep.tensor_path_checked
    assert rep.paths_agree


def test_each_wrapper_decides_its_realness_once_and_the_kronecker_path_on_each_call(monkeypatch):
    # A state's, a Kraus stack's and a POVM stack's realness is decided on
    # first use and kept; the Kronecker path tests the outputs it recomputes
    # (and the bare state matrices it recomputes them from) on every call.
    exact_real = quantum._exact_real
    tested = []

    def recorded(a):
        tested.append(a)
        return exact_real(a)

    monkeypatch.setattr(quantum, "_exact_real", recorded)
    monkeypatch.setattr(blockcode, "_exact_real", recorded)
    channel, states, povm, graph = pentagon_ensemble()
    code = build_code(graph, states, povm, n=2)
    m, d = len(states.states), channel.dim
    outside, inside = [], []
    for _ in range(3):
        for s in states.states:
            outcome_probabilities(channel, s, povm)
            apply_channel(channel, s)
        outside += tested
        tested.clear()
        assert verify_zero_error(code, channel, eps=1e-9).paths_agree
        # One stack of recomputed outputs, from one bare matrix per state.
        stacks = [a for a in tested if a.ndim == 3 and a.shape == (m, d, d)]
        assert len(stacks) == 1 and not any(a is stacks[0] for a in outside + inside)
        assert [sum(a is s.matrix for a in tested) for s in states.states] == [1] * m
        inside += tested
        tested.clear()
    assert code.povm is povm
    assert [sum(a is s.matrix for a in outside) for s in states.states] == [1] * m
    assert sum(a is channel.kraus for a in outside + inside) == 1
    assert sum(a is povm.elements for a in outside + inside) == 1


def test_certificate_reports_full_overlap_for_confusable_codewords():
    channel = depolarizing_channel(1.0)
    states = StateSet(dim=2, states=(basis_state(2, 0), basis_state(2, 1)))
    code = QuantumBlockCode(
        block_length=1,
        codewords=((0,), (1,)),
        source=states,
        povm=computational_povm(2),
    )
    rep = verify_zero_error(code, channel, eps=1e-9)
    assert not rep.passed
    assert not rep.pairwise_disjoint
    assert rep.overlap_pair == (0, 1)
    # Both codewords induce (1/2, 1/2); the shared confusable mass is 1.
    assert rep.max_overlap_mass == pytest.approx(1.0, abs=1e-12)


def test_certificate_skips_tensor_path_over_the_cap(monkeypatch):
    channel, states, povm, graph = pentagon_ensemble()
    code = build_code(graph, states, povm, n=2)
    monkeypatch.setattr(blockcode, "TENSOR_DIM_CAP", 4)
    rep = verify_zero_error(code, channel, eps=1e-9)
    assert rep.tensor_path_checked is False
    assert rep.paths_agree is None
    assert rep.passed


@pytest.mark.parametrize(
    "error,spoil,value",
    [
        # An asymmetric off-diagonal entry, a -1e-6 eigenvalue at unit
        # trace, and a trace of 1 + 1e-6, each past the 1e-9 tolerance.
        (NotHermitianError, lambda m: m + 1e-6 * np.eye(3, k=1), ("deviation", 1e-6)),
        (NotPsdError, lambda m: m + np.diag([-1e-6, 0.0, 1e-6]), ("min_eigenvalue", -1e-6)),
        (TraceNotOneError, lambda m: m * (1.0 + 1e-6), ("actual", 1.0 + 1e-6)),
    ],
    ids=["hermitian", "psd", "trace"],
)
def test_the_kronecker_path_validates_every_recomputed_output(error, spoil, value, monkeypatch):
    # Only the Kronecker path's recomputation is spoiled, for the middle one
    # of three basis states, so the product path sees good outputs and the
    # stacked check must find the one bad matrix among good ones.
    channel, states, povm = identity_ensemble(3)
    code = all_words_code(states, povm, 2)
    assert verify_zero_error(code, channel, eps=1e-9).paths_agree is True
    apply_kraus = quantum._apply_kraus

    def spoiled(ch, m):
        out = apply_kraus(ch, m)
        return spoil(out) if m is states.states[1].matrix else out

    monkeypatch.setattr(blockcode, "_apply_kraus", spoiled)
    with pytest.raises(error) as exc:
        verify_zero_error(code, channel, eps=1e-9)
    field, want = value
    assert getattr(exc.value, field) == pytest.approx(want, rel=1e-6)


def pairwise_overlap(code, channel, eps):
    # Brute-force reference: every codeword pair, the min of the two
    # production probabilities summed over its shared words; the first pair
    # in lexicographic order wins among those of largest mass.  Each
    # codeword's words are listed from its states' outcome tables.
    tables = [outcome_probabilities(channel, s, code.povm) for s in code.source.states]
    supports = [sorted(support_set(p, eps)) for p in tables]
    word_sets = [
        frozenset(itertools.product(*(supports[c] for c in cw))) for cw in code.codewords
    ]

    def prob(cw, w):
        return math.prod(tables[c][x] for c, x in zip(cw, w))

    best, best_mass = None, 0.0
    for a, b in itertools.combinations(range(len(word_sets)), 2):
        common = sorted(word_sets[a] & word_sets[b])
        if not common:
            continue
        ca, cb = code.codewords[a], code.codewords[b]
        mass = sum(min(prob(ca, w), prob(cb, w)) for w in common)
        if best is None or mass > best_mass:
            best, best_mass = (a, b), mass
    return best, best_mass


def classical_code(w, codewords):
    channel, states, povm = embed_classical(np.array(w))
    n = len(codewords[0])
    return channel, QuantumBlockCode(
        block_length=n, codewords=tuple(codewords), source=states, povm=povm
    )


@pytest.mark.parametrize(
    "w,pair,mass",
    [
        # (0,1) share outcome 0 (mass 0.1), (0,2) outcome 2 (0.2) and
        # (1,2) outcome 3 (0.4): the heaviest pair is the last one.
        ([[0.5, 0.3, 0.2, 0.0], [0.1, 0.0, 0.0, 0.9], [0.0, 0.0, 0.6, 0.4]], (1, 2), 0.4),
        # (0,1) carries 0.1; (0,2) and (1,2) tie at 0.5, so (0,2) wins.
        (
            [[0.1, 0.5, 0.0, 0.4, 0.0], [0.1, 0.0, 0.5, 0.0, 0.4], [0.0, 0.5, 0.5, 0.0, 0.0]],
            (0, 2),
            0.5,
        ),
    ],
)
def test_certificate_reports_the_heaviest_confusable_pair(w, pair, mass):
    channel, code = classical_code(w, [(0,), (1,), (2,)])
    rep = verify_zero_error(code, channel, eps=1e-9)
    assert not rep.pairwise_disjoint and not rep.passed
    assert rep.overlap_pair == pair
    assert rep.max_overlap_mass == pytest.approx(mass, abs=1e-12)
    want_pair, want_mass = pairwise_overlap(code, channel, 1e-9)
    assert rep.overlap_pair == want_pair
    assert math.isclose(rep.max_overlap_mass, want_mass, rel_tol=1e-15)


def test_certificate_overlap_matches_the_pairwise_reference():
    rng = np.random.default_rng(2718)
    confusable = 0
    for case in range(40):
        w = rng.random((4, 5)) * (rng.random((4, 5)) < 0.6)
        w[w.sum(axis=1) == 0, 0] = 1.0
        w /= w.sum(axis=1, keepdims=True)
        pool = list(itertools.product(range(4), repeat=2))
        idx = rng.choice(len(pool), size=int(rng.integers(3, 9)), replace=False)
        channel, code = classical_code(w, sorted(pool[i] for i in idx))
        rep = verify_zero_error(code, channel, eps=1e-9)
        want_pair, want_mass = pairwise_overlap(code, channel, 1e-9)
        assert rep.pairwise_disjoint == (want_pair is None), case
        assert rep.overlap_pair == want_pair, case
        assert math.isclose(rep.max_overlap_mass, want_mass, rel_tol=1e-15), case
        confusable += want_pair is not None
    assert confusable >= 20


def entries_at_support(matrix, support, d, n):
    # Reference gather: the entries of a d^n x d^n matrix at every product of
    # n support pairs, position 0 most significant.  Pair k = i d + j is
    # entry (i, j) of a d x d block.
    out = []
    for ks in itertools.product(support.tolist(), repeat=n):
        rows, cols = zip(*(divmod(k, d) for k in ks))
        row, col = (np.ravel_multi_index(index, (d,) * n) for index in (rows, cols))
        out.append(matrix[row, col])
    return np.array(out)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_support_joints_equal_np_kron_at_the_support_pairs_exactly(n):
    # Each codeword's entries are np.kron's chain of its states, bit for bit,
    # at every row and column the support pairs index: for all pairs, the
    # diagonal, and an irregular subset alike.
    rng = np.random.default_rng(5 + n)
    d = 3
    outs = rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))
    codewords = rng.integers(0, 4, size=(6, n))
    supports = [np.arange(d * d), np.arange(0, d * d, d + 1), np.array([1, 2, 4, 6, 8])]
    for stack, support in itertools.product((outs, outs.real.copy()), supports):
        joints = _support_joints(stack.reshape(4, d * d)[:, support], codewords)
        assert joints.shape == (6, len(support) ** n) and joints.dtype == stack.dtype
        for joint, cw in zip(joints, codewords):
            want = stack[cw[0]]
            for c in cw[1:]:
                want = np.kron(want, stack[c])
            assert np.array_equal(joint, entries_at_support(want, support, d, n))


def test_code_constructor_validates_shape_only():
    channel, states, povm = identity_ensemble(2)
    # Duplicate codewords are rejected; confusable ones are not (the
    # decoder and certificate are where zero-error is decided).
    with pytest.raises(DimensionMismatchError):
        QuantumBlockCode(
            block_length=1, codewords=((0,), (0,)), source=states, povm=povm
        )
    with pytest.raises(DimensionMismatchError):
        QuantumBlockCode(
            block_length=2, codewords=((0,),), source=states, povm=povm
        )
    with pytest.raises(DimensionMismatchError):
        QuantumBlockCode(
            block_length=1, codewords=((7,),), source=states, povm=povm
        )


def test_code_stores_integer_indices_as_python_ints():
    channel, states, povm, graph = pentagon_ensemble()
    code = QuantumBlockCode(
        block_length=np.int64(2),
        codewords=tuple(tuple(np.array(cw)) for cw in PENTAGON_CODEWORDS),
        source=states,
        povm=povm,
    )
    assert type(code.block_length) is int
    assert all(type(c) is int for cw in code.codewords for c in cw)
    assert code.codewords == PENTAGON_CODEWORDS
    assert verify_zero_error(code, channel, eps=1e-9).passed
    doc = json.loads(
        dumps_canonical(code_document(code, build_decoder(code, channel, eps=1e-9), None))
    )
    assert doc["codewords"] == [list(cw) for cw in PENTAGON_CODEWORDS]
    # Given order is message order; it is not re-sorted.
    swapped = QuantumBlockCode(1, ((2,), (0,)), states, povm)
    assert swapped.codewords == ((2,), (0,))


@pytest.mark.parametrize(
    "block_length,codewords,match",
    [
        (1, ((1.5,),), r"codeword \(1\.5,\) is not a sequence of integer state indices"),
        (1, ((0,), ((1,),)), r"codeword \(\(1,\),\) is not a sequence"),
        (1, (0, 1), "codeword 0 is not a sequence"),
        (1, (("1",),), "not a sequence of integer state indices"),
        (1.0, ((0,),), "block length 1.0 is not an integer"),
        (1, ((0,), (np.int64(0),)), r"duplicate codeword \(0,\)"),
    ],
)
def test_code_refuses_non_integer_indices(block_length, codewords, match):
    channel, states, povm, graph = pentagon_ensemble()
    with pytest.raises(DimensionMismatchError, match=match):
        QuantumBlockCode(
            block_length=block_length, codewords=codewords, source=states, povm=povm
        )


@pytest.mark.parametrize("check", [build_decoder, verify_zero_error])
def test_an_empty_support_names_its_state(check):
    # Every pentagon state splits its mass evenly over two outcomes, so no
    # probability exceeds 0.9 and state 0 is the first to fail.
    channel, states, povm, graph = pentagon_ensemble()
    code = build_code(graph, states, povm, n=1)
    with pytest.raises(EmptySupportError, match="for state 0 \\(eps = 9.0e-01\\)") as exc:
        check(code, channel, eps=0.9)
    assert exc.value.state_index == 0 and exc.value.eps == 0.9


# ---------------------------------------------------------------------------
# Kronecker path
# ---------------------------------------------------------------------------


def all_words_code(states: StateSet, povm, n: int) -> QuantumBlockCode:
    words = itertools.product(range(len(states.states)), repeat=n)
    return QuantumBlockCode(
        block_length=n, codewords=tuple(words), source=states, povm=povm
    )


def y_basis_ensemble():
    # |+i> and |-i> measured in their own basis: complex entries, so a
    # transposed POVM element (its complex conjugate) swaps the outcomes.
    plus = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    minus = np.array([1.0, -1.0j]) / math.sqrt(2.0)
    states = StateSet(dim=2, states=(pure_state(plus), pure_state(minus)))
    povm = validate_povm([np.outer(v, v.conj()) for v in (plus, minus)])
    return identity_channel(2), states, povm


def trine_ensemble():
    # Three outcomes on a qubit; each state is orthogonal to one trine
    # vector, so its support is the other two outcomes.
    angles = (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
    trine = [np.array([math.cos(a), math.sin(a)]) for a in angles]
    povm = validate_povm([(2.0 / 3.0) * np.outer(v, v) for v in trine])
    perp = [np.array([-v[1], v[0]]) for v in trine[:2]]
    states = StateSet(dim=2, states=tuple(pure_state(v) for v in perp))
    return identity_channel(2), states, povm


def conjugated_by_diag_1_i(channel, states, povm):
    # U = diag(1, i) turns the real off-diagonal entries of every state and
    # element imaginary and leaves each tr(rho E) as it was; the channel is
    # the identity, which commutes with U.
    u = np.diag([1.0, 1.0j])
    states = StateSet(
        dim=2, states=tuple(validate_state(u @ s.matrix @ u.conj().T) for s in states.states)
    )
    return channel, states, validate_povm([u @ e @ u.conj().T for e in povm.elements])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_real_and_complex_arithmetic_give_the_same_certificate(n, monkeypatch):
    dtypes = []

    def recorded(joints, f, n):
        dtypes.append((joints.dtype, f.dtype))
        return _word_probabilities(joints, f, n)

    monkeypatch.setattr(blockcode, "_word_probabilities", recorded)
    results = []
    for ensemble, dtype in [
        (trine_ensemble(), np.dtype(np.float64)),
        (conjugated_by_diag_1_i(*trine_ensemble()), np.dtype(np.complex128)),
    ]:
        channel, states, povm = ensemble
        assert any(np.any(s.matrix.imag) for s in states.states) == (dtype == np.complex128)
        graph = confusability_graph(channel, states, povm)
        code = build_code(graph, states, povm, n=n)
        dtypes.clear()
        results.append(
            (
                [outcome_probabilities(channel, s, povm) for s in states.states],
                build_decoder(code, channel, eps=1e-9),
                verify_zero_error(code, channel, eps=1e-9),
                verify_zero_error(all_words_code(states, povm, n), channel, eps=1e-9),
            )
        )
        assert dtypes and set(dtypes) == {(dtype, dtype)}
    (tables_r, *rest_r), (tables_c, *rest_c) = results
    assert all(np.array_equal(a, b) for a, b in zip(tables_r, tables_c))
    assert rest_r == rest_c
    assert not rest_r[2].passed and rest_r[2].paths_agree is True


@pytest.mark.parametrize("n", [2, 3])
def test_certificate_in_a_complex_basis(n):
    channel, states, povm = y_basis_ensemble()
    rep = verify_zero_error(all_words_code(states, povm, n), channel, eps=1e-9)
    assert rep.passed
    assert rep.support_sizes == (1,) * 2**n
    assert rep.tensor_path_checked
    assert rep.paths_agree is True


@pytest.mark.parametrize("n", [1, 2, 3])
def test_certificate_with_more_outcomes_than_dimensions(n):
    channel, states, povm = trine_ensemble()
    code = all_words_code(states, povm, n)
    rep = verify_zero_error(code, channel, eps=1e-9)
    # Outcome 2 is in both supports, so the code is confusable, but the two
    # support computations still agree word for word.
    assert rep.support_sizes == (2**n,) * 2**n
    assert rep.word_space_size == 3**n
    assert not rep.pairwise_disjoint and not rep.passed
    assert rep.tensor_path_checked
    assert rep.paths_agree is True
    first = QuantumBlockCode(n, code.codewords[:1], states, povm)
    assert build_decoder(first, channel, eps=1e-9).mapping.keys() == set(
        itertools.product((1, 2), repeat=n)
    )


def push_across_eps(monkeypatch, i, changes):
    """Change codeword i's word probabilities on the next Kronecker path.

    ``changes`` maps each word to the value its probability takes.
    """
    seen = [0]

    def pushed(joints, f, n):
        p = _word_probabilities(joints, f, n).copy()
        start = seen[0]
        seen[0] += len(joints)
        if start <= i < start + len(joints):
            for word, value in changes.items():
                p[(i - start,) + word] = value
        return p

    monkeypatch.setattr(blockcode, "_word_probabilities", pushed)


EPS = 1e-9
JUST_ABOVE_EPS = float(np.nextafter(EPS, 1.0))


def test_tensor_path_catches_a_lost_or_a_gained_word(monkeypatch):
    # Trine states reach two outcomes each, so every codeword of the four
    # reaches four words and misses five: a reached word pushed down to eps,
    # or a missed one pushed just above it, is one joint probability across.
    channel, states, povm = trine_ensemble()
    code = all_words_code(states, povm, 2)
    supports = confusability_graph(channel, states, povm).supports
    assert verify_zero_error(code, channel, eps=EPS).paths_agree is True
    for i in (0, code.message_count - 1):
        cw = code.codewords[i]
        lost = {tuple(min(supports[c]) for c in cw): EPS}
        gained = {tuple(min({0, 1, 2} - supports[c]) for c in cw): JUST_ABOVE_EPS}
        for changes in (lost, gained):
            push_across_eps(monkeypatch, i, changes)
            rep = verify_zero_error(code, channel, eps=EPS)
            assert rep.tensor_path_checked and rep.paths_agree is False and not rep.passed


@pytest.mark.parametrize(
    "d,outcomes,n,real",
    [
        pytest.param(d, outcomes, n, real, id=f"{d}-{outcomes}-{n}" + ("-real" if real else ""))
        for real in (False, True)
        for d, outcomes, n in [(2, 3, 1), (3, 5, 1), (2, 3, 2), (3, 5, 2), (2, 4, 3), (3, 3, 3)]
    ],
)
def test_word_probabilities_match_the_trace_of_every_product_element(d, outcomes, n, real):
    # Reference: build each product element and take tr(joint E) directly,
    # in complex arithmetic.  The joint state is a generic mixed state on
    # d^n, so it is entangled.  Its real part and the elements' real parts
    # are again a state and a POVM, and are contracted in float64.
    rng = np.random.default_rng(100 * d + 10 * outcomes + n)
    elements = np.array(random_general_povm(d, outcomes, seed=d + outcomes + n).elements)
    joint = random_density_matrix(d**n, rng).matrix
    if real:
        elements, joint = elements.real.copy(), joint.real.copy()
    f, support = povm_factors(elements)
    got = _word_probabilities(entries_at_support(joint, support, d, n), f, n)
    assert got.shape == (outcomes,) * n
    assert got.dtype == np.float64
    joint = joint.astype(np.complex128)
    for w in itertools.product(range(outcomes), repeat=n):
        e = elements[w[0]].astype(np.complex128)
        for t in range(1, n):
            e = np.kron(e, elements[w[t]])
        want = np.trace(joint @ e).real
        assert abs(got[w] - want) <= 16 * np.finfo(float).eps
    assert got.sum() == pytest.approx(1.0, abs=1e-12)


def povm_factors(elements):
    # f[w, i d + j] = E_w[j, i] at the pairs where some element is nonzero,
    # and those pairs.
    count, d = elements.shape[:2]
    f = elements.transpose(0, 2, 1).reshape(count, d * d)
    support = np.flatnonzero(f.any(axis=0))
    return f[:, support], support


def product_element_probabilities(joint, elements, n):
    # Reference in complex arithmetic: tr(joint (E_w0 x ... x E_wn-1)) for
    # every word, each product element built with np.kron.
    joint = joint.astype(np.complex128)
    p = np.empty((len(elements),) * n)
    for w in itertools.product(range(len(elements)), repeat=n):
        e = elements[w[0]].astype(np.complex128)
        for t in range(1, n):
            e = np.kron(e, elements[w[t]])
        p[w] = np.trace(joint @ e).real
    return p


def block_diagonal_povm(seed: int):
    # A 3-outcome POVM on the first two basis directions and a 2-outcome one
    # on the last two: half of each element's entries are exact zeros.
    top = random_general_povm(2, 3, seed=seed).elements
    bottom = random_general_povm(2, 2, seed=seed + 1).elements
    elements = np.zeros((5, 4, 4), dtype=np.complex128)
    elements[:3, :2, :2] = top
    elements[3:, 2:, 2:] = bottom
    return validate_povm(list(elements))


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize(
    "d,n,povm",
    [
        (2, 3, lambda: random_general_povm(2, 3, seed=4)),
        (3, 2, lambda: random_general_povm(3, 5, seed=5)),
        (3, 2, lambda: computational_povm(3)),
        (2, 3, lambda: computational_povm(2)),
        (4, 2, lambda: block_diagonal_povm(6)),
    ],
    ids=["dense-2-3", "dense-3-2", "basis-3-2", "basis-2-3", "block-4-2"],
)
def test_stacked_joints_match_one_joint_calls_and_the_product_elements(d, n, povm, real):
    # A stack of generic mixed states on d^n, each entangled, through one
    # call: every slice equals its one-joint call and the product-element
    # reference, dense POVMs and POVMs with exact zeros alike.
    rng = np.random.default_rng(10 * d + n)
    elements = povm().elements
    joints = np.array([random_density_matrix(d**n, rng).matrix for _ in range(5)])
    if real:
        elements, joints = elements.real.copy(), joints.real.copy()
    f, support = povm_factors(elements)
    gathered = np.array([entries_at_support(joint, support, d, n) for joint in joints])
    got = _word_probabilities(gathered, f, n)
    assert got.shape == (5,) + (len(elements),) * n
    assert got.dtype == np.float64
    for joint, entries, p in zip(joints, gathered, got):
        one = _word_probabilities(entries, f, n)
        assert np.allclose(p, one, rtol=0.0, atol=16 * np.finfo(float).eps)
        want = product_element_probabilities(joint, elements, n)
        assert np.allclose(p, want, rtol=0.0, atol=16 * np.finfo(float).eps)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("change", ["lost", "gained", "swapped"])
def test_tensor_path_catches_a_changed_word_at_the_end_of_a_later_chunk(change, monkeypatch):
    # Identity channel on d = 4, block length 3, with a Haar-random basis
    # measured in itself: 64 codewords of one word each.  The POVM is dense,
    # so each codeword builds its entries at all 16^3 support pairs and the
    # code spans several chunks.
    u = haar_unitary(4, np.random.default_rng(31))
    states = StateSet(dim=4, states=tuple(pure_state(u[:, k]) for k in range(4)))
    channel, povm = identity_channel(4), _projective_povm(u)
    code = all_words_code(states, povm, 3)
    chunk = blockcode._CHUNK_ENTRIES // 16**3
    assert 1 <= chunk and 2 * chunk < code.message_count
    assert verify_zero_error(code, channel, eps=EPS).passed
    supports = confusability_graph(channel, states, povm).supports
    for i in (2 * chunk - 1, code.message_count - 1):
        (word,) = itertools.product(*(supports[c] for c in code.codewords[i]))
        other = tuple(3 - x for x in word)
        push_across_eps(
            monkeypatch,
            i,
            {
                "lost": {word: EPS},
                "gained": {other: JUST_ABOVE_EPS},
                "swapped": {word: EPS, other: JUST_ABOVE_EPS},
            }[change],
        )
        rep = verify_zero_error(code, channel, eps=EPS)
        assert rep.pairwise_disjoint and rep.paths_agree is False and not rep.passed, i


# ---------------------------------------------------------------------------
# Property suite
# ---------------------------------------------------------------------------


def test_decoder_exists_exactly_for_independent_codeword_sets():
    check_decoder_iff_independent(200)


def check_against_the_oracle(code, channel, eps=EPS):
    """The certificate, and the decoder or its refusal, equal the oracles'.

    Report floats compare by ``float.hex`` and every field by type.  Returns
    whether the code passed and whether its decoder met a collision.
    """
    states = code.source.states
    tables = [outcome_probabilities(channel, s, code.povm) for s in states]
    outputs = [apply_channel(channel, s).matrix for s in states]
    caps = (blockcode.TENSOR_DIM_CAP, blockcode.ENUMERATION_CAP)
    want = certificate_by_words(tables, code.codewords, eps, outputs, code.povm.elements, caps)
    got = dataclasses.asdict(verify_zero_error(code, channel, eps=eps))
    assert got.keys() == want.keys()
    for key, value in got.items():
        assert type(value) is type(want[key]), key
        if isinstance(value, float):
            assert value.hex() == want[key].hex(), key
        else:
            assert value == want[key], key
    mapping, clash = decoder_fill(np.array(tables), code.codewords, eps)
    if clash is None:
        assert list(build_decoder(code, channel, eps=eps).mapping.items()) == list(mapping.items())
    else:
        with pytest.raises(AmbiguousSupportsError) as exc:
            build_decoder(code, channel, eps=eps)
        assert (exc.value.pair, exc.value.word) == clash
    return got["passed"], clash is not None


def random_codewords(rng, m, n, most=8):
    words = list(itertools.product(range(m), repeat=n))
    count = int(rng.integers(1, min(most, len(words)) + 1))
    return tuple(sorted(words[i] for i in rng.choice(len(words), size=count, replace=False)))


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_random_sparse_classical_codes_match_the_word_listing_oracle(seed):
    # Each input reaches one to three of two to five outcomes, so codes of
    # one to eight random codewords pass and fail alike.
    rng = np.random.default_rng(seed)
    passed = collided = 0
    for _ in range(300):
        m_in, n_out, n = int(rng.integers(2, 5)), int(rng.integers(2, 6)), int(rng.integers(1, 4))
        w = np.zeros((m_in, n_out))
        for row in w:
            cols = rng.choice(n_out, size=int(rng.integers(1, min(3, n_out) + 1)), replace=False)
            row[cols] = rng.dirichlet(np.ones(len(cols)))
        channel, states, povm = embed_classical(w)
        code = QuantumBlockCode(n, random_codewords(rng, m_in, n), states, povm)
        ok, clash = check_against_the_oracle(code, channel)
        passed += ok
        collided += clash
    assert 50 <= passed <= 250 and 50 <= collided <= 250


def haar_basis_ensemble(d, seed, measured_in_itself):
    # Haar-random basis states on the identity channel, measured in their own
    # basis (every code passes) or in another Haar basis (supports meet).
    rng = np.random.default_rng(seed)
    u = haar_unitary(d, rng)
    states = StateSet(dim=d, states=tuple(pure_state(u[:, k]) for k in range(d)))
    povm = _projective_povm(u if measured_in_itself else haar_unitary(d, rng))
    return identity_channel(d), states, povm


@pytest.mark.parametrize(
    "ensemble",
    [
        y_basis_ensemble,
        trine_ensemble,
        lambda: conjugated_by_diag_1_i(*trine_ensemble()),
        lambda: haar_basis_ensemble(3, 41, True),
        lambda: haar_basis_ensemble(3, 42, False),
        lambda: haar_basis_ensemble(2, 43, False),
    ],
    ids=[
        "y-basis",
        "trine",
        "trine-complex",
        "haar-basis-3",
        "haar-other-basis-3",
        "haar-other-basis-2",
    ],
)
def test_quantum_ensembles_match_the_word_listing_oracle(ensemble):
    channel, states, povm = ensemble()
    rng = np.random.default_rng(len(povm))
    m = len(states.states)
    for n in (1, 2, 3):
        check_against_the_oracle(all_words_code(states, povm, n), channel)
        for _ in range(5):
            check_against_the_oracle(
                QuantumBlockCode(n, random_codewords(rng, m, n), states, povm), channel
            )


def pentagon_product_code(n):
    # The 5-word C5 x C5 code to the power n/2.
    channel, states, povm, graph = pentagon_ensemble()
    codewords = tuple(sum(ws, ()) for ws in itertools.product(PENTAGON_CODEWORDS, repeat=n // 2))
    return channel, QuantumBlockCode(n, codewords, states, povm)


def test_many_one_word_codewords_are_certified_in_bounded_memory():
    # All 19,683 words of the identity channel on three letters at n = 9:
    # a (K, K) boolean matrix would take 387 MB, listing the words 9 MiB.
    channel, states, povm = embed_classical(np.eye(3))
    code = all_words_code(states, povm, 9)
    tracemalloc.start()
    try:
        rep = verify_zero_error(code, channel, eps=EPS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert rep.passed and rep.total_reachable == 3**9 and rep.support_sizes == (1,) * 3**9
    assert not rep.tensor_path_checked


@pytest.mark.parametrize("n, reachable", [(6, 8_000), (8, 160_000)])
def test_the_pentagon_product_code_is_certified_by_position(n, reachable):
    # Past the Kronecker path's cap (5^n > 4096): the certificate is the
    # positional check alone.  One codeword moved to a confusable word gives
    # the word listing's heaviest pair and mass.
    channel, code = pentagon_product_code(n)
    rep = verify_zero_error(code, channel, eps=EPS)
    assert rep.passed and rep.pairwise_disjoint and rep.overlap_pair is None
    assert rep.support_sizes == (2**n,) * 5 ** (n // 2) and rep.total_reachable == reachable
    assert not rep.tensor_path_checked and rep.paths_agree is None
    j = code.message_count // 2
    *head, last = code.codewords[j]
    moved = code.codewords[:j] + ((*head, (last + 1) % 5),) + code.codewords[j + 1 :]
    spoiled = QuantumBlockCode(n, moved, code.source, code.povm)
    assert check_against_the_oracle(spoiled, channel) == (False, True)
