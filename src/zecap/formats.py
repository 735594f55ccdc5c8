"""File formats: channel specs (builtins included), reports, graph JSON, DOT export.

All documents are plain JSON.  Complex numbers are encoded as two-element
[re, im] arrays, a complex matrix as a row-major nested list of those pairs.
The result blocks of reports (bounds, theta, certificate) are their
dataclasses, written field for field by ``dataclasses.asdict``.
Serialization is canonical (sorted keys, two-space indent, trailing newline,
no timestamps), so identical analyses produce byte-identical files; writes
go through a temp file and rename, so a crashed run never leaves a torn
document behind.
"""

from __future__ import annotations

import json
import os
import stat
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from ._version import __version__
from .blockcode import DecoderTable, QuantumBlockCode, ZeroErrorReport
from .capacity import CapacityBounds
from .channels import (
    bitflip_channel,
    dephasing_channel,
    depolarizing_channel,
    embed_classical,
    identity_channel,
    pentagon_matrix,
)
from .confusability import ConfusabilityGraph, StateSet, non_adjacent_pair_count
from .errors import DimensionMismatchError, SizeLimitError, ValidationError
from .graphs import Graph, _graph
from .quantum import (
    Povm,
    QuantumChannel,
    validate_channel,
    validate_povm,
    validate_state,
)
from .search import SearchResult
from .theta import MAX_SDP_VERTICES

__all__ = [
    "ParsedChannelSpec",
    "complex_matrix_to_json",
    "complex_matrix_from_json",
    "channel_spec_document",
    "builtin_spec",
    "parse_channel_spec",
    "graph_to_json",
    "graph_from_json",
    "graph_to_dot",
    "search_result_document",
    "code_document",
    "report_document",
    "dumps_canonical",
    "write_text_atomic",
]


def complex_matrix_to_json(m: np.ndarray) -> list:
    """Row-major nested list of [re, im] pairs; a stack gives a list of matrices."""
    m = np.asarray(m, dtype=np.complex128)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def complex_matrix_from_json(rows, what: str = "matrix") -> np.ndarray:
    """Inverse of :func:`complex_matrix_to_json`, with shape checking."""
    if not isinstance(rows, list) or not rows:
        raise ValidationError(f"{what}: expected a non-empty list of rows")
    width = None
    out = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise ValidationError(f"{what}: row {r} is not a non-empty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError(f"{what}: ragged rows ({len(row)} != {width})")
        vals = []
        for c, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                # bool is an int subclass, but JSON true/false is not a number.
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in cell)
            ):
                raise ValidationError(
                    f"{what}: entry ({r}, {c}) is not an [re, im] pair"
                )
            vals.append(complex(cell[0], cell[1]))
        out.append(vals)
    return np.array(out, dtype=np.complex128)


def _real_matrix_from_json(rows, what: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ValidationError(f"{what}: expected a non-empty list of rows")
    if any(isinstance(x, bool) for row in rows if isinstance(row, list) for x in row):
        raise ValidationError(f"{what}: entries must be real numbers")
    try:
        m = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"{what}: entries must be real numbers") from None
    if m.ndim != 2:
        raise ValidationError(f"{what}: expected a 2-D array, got shape {m.shape}")
    return m


# ---------------------------------------------------------------------------
# Channel specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParsedChannelSpec:
    """A channel spec after validation.

    ``source`` is "kraus" or "classical_matrix".  ``states``/``povm`` are
    present when the spec carried them explicitly or when the classical
    embedding supplies its canonical ensemble.
    """

    name: str
    channel: QuantumChannel
    source: str
    states: StateSet | None
    povm: Povm | None
    classical_matrix: np.ndarray | None


def channel_spec_document(
    name: str,
    channel: QuantumChannel | None = None,
    classical_matrix: np.ndarray | None = None,
) -> dict:
    """Assemble a spec document from validated objects."""
    if (channel is None) == (classical_matrix is None):
        raise ValidationError("exactly one of channel / classical_matrix is required")
    doc: dict = {"name": str(name)}
    if channel is not None:
        doc["dim"] = channel.dim
        doc["kraus"] = complex_matrix_to_json(channel.kraus)
    else:
        doc["classical_matrix"] = _classical_json(classical_matrix)
    return doc


def _classical_json(w: np.ndarray | None) -> list | None:
    return None if w is None else np.asarray(w, dtype=np.float64).tolist()


def _states_json(states: StateSet) -> list:
    return [complex_matrix_to_json(s.matrix) for s in states.states]


_BUILTIN_HELP = (
    "identity-d{2,3,5} | depolarizing-p{val} | dephasing-p{val} | "
    "bitflip-p{val} | pentagon"
)


def builtin_spec(name: str) -> dict:
    """Channel-spec document (JSON-ready dict) for a named builtin.

    Accepted names: ``identity-d<dim>``, ``depolarizing-p<val>``,
    ``dephasing-p<val>``, ``bitflip-p<val>``, ``pentagon``.

    Raises
    ------
    KeyError
        For an unrecognized name or malformed parameter.
    """
    if name == "pentagon":
        return channel_spec_document(name, classical_matrix=pentagon_matrix())
    if name.startswith("identity-d"):
        dim = _parse_param(name, "identity-d", int)
        if dim < 1:
            raise KeyError(f"identity dimension must be >= 1, got {dim}")
        return channel_spec_document(name, channel=identity_channel(dim))
    for prefix, ctor in (
        ("depolarizing-p", depolarizing_channel),
        ("dephasing-p", dephasing_channel),
        ("bitflip-p", bitflip_channel),
    ):
        if name.startswith(prefix):
            p = _parse_param(name, prefix, float)
            try:
                return channel_spec_document(name, channel=ctor(p))
            except DimensionMismatchError as exc:
                raise KeyError(str(exc)) from None
    raise KeyError(f"unknown builtin {name!r}; expected {_BUILTIN_HELP}")


def _parse_param(name: str, prefix: str, kind):
    raw = name[len(prefix) :]
    try:
        return kind(raw)
    except ValueError:
        raise KeyError(f"cannot parse {kind.__name__} from {name!r}") from None


def parse_channel_spec(doc, allow_overcomplete: bool = False) -> ParsedChannelSpec:
    """Validate a channel-spec document into live objects.

    Exactly one of ``kraus`` / ``classical_matrix`` must be present.
    Classical specs carry their canonical embedding (basis states and
    computational POVM) and may not override it; Kraus specs may bundle
    explicit ``states`` and ``povm`` (both or neither).  An optional
    ``dim`` must equal the channel's dimension, for a classical spec that
    of its embedding.

    Raises
    ------
    ValidationError
        (or a subclass) for every way the document can be malformed or
        mathematically invalid.
    """
    if not isinstance(doc, dict):
        raise ValidationError("spec must be a JSON object")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ValidationError('spec needs a non-empty string "name"')
    has_kraus = "kraus" in doc
    has_classical = "classical_matrix" in doc
    if has_kraus == has_classical:
        raise ValidationError(
            'spec needs exactly one of "kraus" or "classical_matrix"'
        )

    states = povm = classical = None
    if has_classical:
        if "states" in doc or "povm" in doc:
            raise ValidationError(
                "classical specs use their canonical embedding; drop states/povm"
            )
        classical = _real_matrix_from_json(doc["classical_matrix"], "classical_matrix")
        channel, states, povm = embed_classical(classical)
    else:
        kraus_json = doc["kraus"]
        if not isinstance(kraus_json, list) or not kraus_json:
            raise ValidationError('"kraus" must be a non-empty list of matrices')
        kraus = [
            complex_matrix_from_json(k, f"kraus[{i}]") for i, k in enumerate(kraus_json)
        ]
        channel = validate_channel(kraus)
    dim = doc.get("dim", channel.dim)
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:  # JSON true is no integer
        raise ValidationError(f'spec "dim" must be a positive integer, got {dim!r}')
    if dim != channel.dim:
        raise ValidationError(
            f'spec "dim" = {dim} but the channel is {channel.dim}-dimensional'
        )

    if ("states" in doc) != ("povm" in doc):
        raise ValidationError("states and povm must be given together")
    if "states" in doc:
        sj = doc["states"]
        if not isinstance(sj, list) or not sj:
            raise ValidationError('"states" must be a non-empty list of matrices')
        dms = [
            validate_state(complex_matrix_from_json(s, f"states[{i}]"))
            for i, s in enumerate(sj)
        ]
        states = StateSet(
            dim=channel.dim, states=tuple(dms), allow_overcomplete=allow_overcomplete
        )
        pj = doc["povm"]
        if not isinstance(pj, list) or not pj:
            raise ValidationError('"povm" must be a non-empty list of matrices')
        povm = validate_povm(
            [complex_matrix_from_json(e, f"povm[{i}]") for i, e in enumerate(pj)]
        )
        if povm.dim != channel.dim:
            raise ValidationError(
                f"POVM dimension {povm.dim} != channel dimension {channel.dim}"
            )
    return ParsedChannelSpec(
        name=name,
        channel=channel,
        source="classical_matrix" if has_classical else "kraus",
        states=states,
        povm=povm,
        classical_matrix=classical,
    )


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def graph_to_json(g: Graph) -> dict:
    """Adjacency-list document: {"vertex_count": V, "adjacency": [[...], ...]}."""
    rows = [np.flatnonzero(r).tolist() for r in g.adjacency]
    return {"vertex_count": g.vertex_count, "adjacency": rows}


def graph_from_json(doc) -> Graph:
    if not isinstance(doc, dict):
        raise ValidationError("graph must be a JSON object")
    v = doc.get("vertex_count")
    adj = doc.get("adjacency")
    # bool is an int subclass, but JSON true/false is not an integer.
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        raise ValidationError('"vertex_count" must be a positive integer')
    if v > MAX_SDP_VERTICES:  # theta reads graph files; refused before the V x V matrix
        raise SizeLimitError(v, MAX_SDP_VERTICES)
    if not isinstance(adj, list) or len(adj) != v:
        raise ValidationError('"adjacency" must list neighbors for every vertex')
    m = np.zeros((v, v), dtype=bool)
    for a, nbrs in enumerate(adj):
        if not isinstance(nbrs, list):
            raise ValidationError(f"adjacency[{a}] is not a list")
        for b in nbrs:
            if isinstance(b, bool) or not isinstance(b, int) or not 0 <= b < v or b == a:
                raise ValidationError(f"adjacency[{a}] has invalid neighbor {b!r}")
        m[a, nbrs] = True
    one_way = np.argwhere(np.triu(m != m.T)).tolist()
    if one_way:
        raise ValidationError("edge ({}, {}) is not listed symmetrically".format(*one_way[0]))
    return _graph(m)


def graph_to_dot(g: Graph) -> str:
    """Graphviz DOT text; vertices are state indices, edges mean confusable."""
    lines = ["graph confusability {"]
    for v in range(g.vertex_count):
        lines.append(f"  {v};")
    for a, b in sorted(g.edges):
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Result documents
# ---------------------------------------------------------------------------


_DECODER_JSON_CAP = 10_000


def code_document(
    code: QuantumBlockCode,
    decoder: DecoderTable | None,
    certificate: ZeroErrorReport | None,
    decoder_failure: str | None = None,
) -> dict:
    """JSON view of a block code, its decoder, and its certificate."""
    doc: dict = {
        "n": code.block_length,
        "message_count": code.message_count,
        "rate": code.rate,
        "codewords": [list(cw) for cw in code.codewords],
        "decoder": None,
        "decoder_failure": decoder_failure,
        "certificate": asdict(certificate) if certificate else None,
    }
    if decoder is not None:
        word_space = decoder.outcome_count**decoder.block_length
        dd: dict = {
            "outcome_count": decoder.outcome_count,
            "mapped_words": len(decoder.mapping),
            "unreachable_words": word_space - len(decoder.mapping),
        }
        if len(decoder.mapping) <= _DECODER_JSON_CAP:
            dd["table"] = [
                {"word": list(w), "message": msg}
                for w, msg in sorted(decoder.mapping.items())
            ]
        else:
            dd["table"] = None
        doc["decoder"] = dd
    return doc


def search_result_document(res: SearchResult) -> dict:
    """JSON view of a search outcome (full per-restart traces omitted)."""
    return {
        "pair_count": res.pair_count,
        "alpha_1": res.alpha_1,
        "best_restart": res.best_restart,
        "restarts": res.config.restarts,
        "iterations": res.config.iterations,
        "seed": res.config.seed,
        "objective": "pair_count",
        "general_povm": res.config.general_povm,
        "final_objective_per_restart": [
            (trace[-1] if trace else None) for trace in res.history
        ],
        "objective_bound": res.objective_bound,
        "proposals": res.proposals,
        "states": _states_json(res.best_states),
        "povm": complex_matrix_to_json(res.best_povm.elements),
        "graph": graph_to_json(res.graph),
    }


def report_document(
    *,
    spec: ParsedChannelSpec,
    provenance: str,
    states: StateSet,
    povm: Povm,
    graph: ConfusabilityGraph,
    bounds: CapacityBounds,
    seed: int | None,
    code: dict | None,
    code_failure: str | None,
    search: dict | None,
) -> dict:
    """Assemble the full analysis report.

    The report embeds the channel, states, and POVM it analyzed, so rerunning
    the tool on the report's own inputs reproduces its outputs.
    """
    channel_doc: dict = {
        "name": spec.name,
        "dim": spec.channel.dim,
        "source": spec.source,
        "kraus_count": len(spec.channel.kraus),
        "kraus": complex_matrix_to_json(spec.channel.kraus),
        "classical_matrix": _classical_json(spec.classical_matrix),
    }
    pairs = non_adjacent_pair_count(graph)
    return {
        "tool": "zecap",
        "version": __version__,
        "seed": seed,
        "eps_support": graph.eps,
        "n_max": len(bounds.per_n),
        "channel": channel_doc,
        "ensemble": {
            "provenance": provenance,
            "state_count": len(states.states),
            "povm_outcomes": len(povm.elements),
            "states": _states_json(states),
            "povm": complex_matrix_to_json(povm.elements),
        },
        "supports": [sorted(s) for s in graph.supports],
        "fragile_probability_count": graph.fragile_count,
        "graph": graph_to_json(graph),
        "non_adjacent_pairs": pairs,
        "positive_zero_error_capacity": pairs > 0,
        "bounds": asdict(bounds),
        "code": code,
        "code_failure": code_failure,
        "search": search,
    }


# ---------------------------------------------------------------------------
# Canonical serialization and atomic writes
# ---------------------------------------------------------------------------


def dumps_canonical(doc) -> str:
    """Deterministic JSON text: sorted keys, 2-space indent, newline-terminated."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    """Write via temp file + rename so readers never see a torn file.

    The file ends with the mode ``open(path, "w")`` would give it: an
    existing file keeps its mode, a new one gets 0o666 less the umask (the
    temp file itself is created 0o600).
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".zecap-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)  # the umask can only be read by setting it
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
