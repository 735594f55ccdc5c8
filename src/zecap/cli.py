"""Command-line frontend.

Subcommands::

    zecap validate <spec.json>
    zecap analyze  <spec.json> [--eps 1e-9] [--n-max 2] [--out report.json] [--dot graph.dot]
    zecap search   <spec.json> [--M <int>] [--seed 7]
                               [--general-povm] [--allow-overcomplete]
    zecap code     <spec.json> --n <int> [--out code.json]
    zecap theta    <graph.json> [--tol 1e-6]
    zecap builtin  <name>

Environment: ZECAP_SEED overrides the default seed (an explicit --seed still
wins); a value that is not an integer is rejected.  Exit codes: 0 success,
1 validation failure, 2 file errors.  Reports are written atomically and are
byte-identical across reruns with the same inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

from .blockcode import build_code, build_decoder, verify_zero_error
from .capacity import capacity_bounds
from .confusability import DEFAULT_EPS, confusability_graph
from .errors import ZecapError
from .formats import (
    ParsedChannelSpec,
    builtin_spec,
    code_document,
    dumps_canonical,
    graph_from_json,
    graph_to_dot,
    parse_channel_spec,
    report_document,
    search_result_document,
    write_text_atomic,
)
from .search import SearchConfig, optimize_pair
from .theta import lovasz_theta

def _env_seed() -> int:
    raw = os.environ.get("ZECAP_SEED")
    if raw is None:
        return SearchConfig.seed
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"ZECAP_SEED must be an integer, got {raw!r}") from None


def _load_json(path: str):
    """Read a JSON document; file problems exit 2."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not valid JSON: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _emit(doc: dict, out: str | None) -> None:
    text = dumps_canonical(doc)
    if out:
        write_text_atomic(out, text)
    else:
        sys.stdout.write(text)


def _ensure_ensemble(spec: ParsedChannelSpec, seed: int, eps: float):
    """(states, povm, graph, provenance, search_doc), all from a search if the spec has none."""
    if spec.states is not None and spec.povm is not None:
        provenance = "classical-embedding" if spec.source == "classical_matrix" else "given"
        graph = confusability_graph(spec.channel, spec.states, spec.povm, eps=eps)
        return spec.states, spec.povm, graph, provenance, None
    cfg = SearchConfig(num_states=spec.channel.dim, seed=seed, eps_support=eps)
    res = optimize_pair(spec.channel, cfg)
    return res.best_states, res.best_povm, res.graph, "searched", search_result_document(res)


def _cmd_validate(args) -> int:
    doc = _load_json(args.spec)
    spec = parse_channel_spec(doc)
    parts = [f"dim {spec.channel.dim}", f"{len(spec.channel.kraus)} Kraus operators"]
    if spec.states is not None:
        parts.append(f"{len(spec.states.states)} states")
    if spec.povm is not None:
        parts.append(f"{len(spec.povm.elements)}-outcome POVM")
    print(f"OK: {spec.name}: " + ", ".join(parts))
    return 0


def _cmd_analyze(args) -> int:
    doc = _load_json(args.spec)
    spec = parse_channel_spec(doc)
    seed = _env_seed()
    states, povm, graph, provenance, search_doc = _ensure_ensemble(spec, seed, args.eps)
    bounds = capacity_bounds(graph, n_max=args.n_max)

    code_doc = None
    code_failure = None
    # The first block length of the best rate.
    best = max((e for e in bounds.per_n if not e.skipped), key=lambda e: e.rate, default=None)
    if best is None:
        code_failure = "no block length fit the exact-computation cap"
    else:
        try:
            code = build_code(graph, states, povm, n=best.n)
            decoder = build_decoder(code, spec.channel, eps=args.eps)
            certificate = verify_zero_error(code, spec.channel, eps=args.eps)
            code_doc = code_document(code, decoder, certificate)
        except ZecapError as exc:
            code_failure = str(exc)

    report = report_document(
        spec=spec,
        provenance=provenance,
        states=states,
        povm=povm,
        graph=graph,
        bounds=bounds,
        seed=seed if provenance == "searched" else None,
        code=code_doc,
        code_failure=code_failure,
        search=search_doc,
    )
    _emit(report, args.out)
    if args.dot:
        write_text_atomic(args.dot, graph_to_dot(graph))
    return 0


def _cmd_search(args) -> int:
    doc = _load_json(args.spec)
    spec = parse_channel_spec(doc, allow_overcomplete=args.allow_overcomplete)
    m = args.M if args.M is not None else spec.channel.dim
    cfg = SearchConfig(
        num_states=m,
        seed=args.seed if args.seed is not None else _env_seed(),
        general_povm=args.general_povm,
        allow_overcomplete=args.allow_overcomplete,
    )
    res = optimize_pair(spec.channel, cfg)
    _emit(search_result_document(res), None)
    return 0


def _cmd_code(args) -> int:
    doc = _load_json(args.spec)
    spec = parse_channel_spec(doc)
    seed = _env_seed()
    eps = DEFAULT_EPS
    states, povm, graph, _, _ = _ensure_ensemble(spec, seed, eps)
    code = build_code(graph, states, povm, n=args.n)
    decoder = None
    decoder_failure = None
    try:
        decoder = build_decoder(code, spec.channel, eps=eps)
    except ZecapError as exc:
        decoder_failure = str(exc)
    certificate = verify_zero_error(code, spec.channel, eps=eps)
    _emit(code_document(code, decoder, certificate, decoder_failure), args.out)
    return 0


def _cmd_theta(args) -> int:
    doc = _load_json(args.graph)
    g = graph_from_json(doc)
    res = lovasz_theta(g, tol=args.tol)
    _emit({**asdict(res), "theta_upper_bits": math.log2(res.upper)}, None)
    return 0


def _cmd_builtin(args) -> int:
    try:
        doc = builtin_spec(args.name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    _emit(doc, None)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zecap",
        description="Zero-error capacity analysis of quantum channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a channel spec file")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="full pipeline: graph, bounds, code, report")
    p.add_argument("spec")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--n-max", type=int, default=2)
    p.add_argument("--out", default=None)
    p.add_argument("--dot", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("search", help="search for a (states, POVM) pair for the channel")
    p.add_argument("spec")
    p.add_argument("--M", type=int, default=None, help="states to place (default: dim)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--general-povm", action="store_true")
    p.add_argument("--allow-overcomplete", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("code", help="build a zero-error block code")
    p.add_argument("spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_code)

    p = sub.add_parser("theta", help="Lovász theta of a graph JSON file")
    p.add_argument("graph")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("builtin", help="emit a builtin channel spec")
    p.add_argument("name")
    p.set_defaults(func=_cmd_builtin)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ZecapError, ValueError) as exc:
        # The library rejects out-of-range arguments (--n-max 0, --eps 0,
        # --M 1, ...) with ValueError; report them like bad specs.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
