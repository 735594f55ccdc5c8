"""Spans and counters recorded around zecap's public functions.

Tracing works from outside the library: ``install`` replaces the names each
calling module imported (``zecap.cli.optimize_pair``,
``zecap.capacity.independence_number``, ...) with wrappers that open a span,
call the original and record a few counters from the arguments and the
result.  Spans nest, so a layer's self time is its span's duration minus the
time covered by the spans it caused.  Spans stay in memory until ``dump`` or
``aggregate``.

This module must not import zecap at import time: the traced CLI child
imports it first so that it can time ``import zecap.cli`` as a span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from contextlib import contextmanager

# Counters whose aggregate is a maximum; every other counter is summed.
MAX_COUNTERS = ("vertices_max", "gap_max")


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_search(a, res, exc):
    cfg = a["cfg"]
    # Each restart scores 3 initial candidates, 20 calibration probes and
    # one proposal per iteration (zecap.search._run_restart).
    out = {"proposals": cfg.restarts * (3 + 20 + cfg.iterations)}
    if res is not None:
        out["pair_count"] = res.pair_count
    return out


def _count_theta(a, res, exc):
    if res is not None:
        return {"iterations": res.iterations, "gap_max": res.gap,
                "not_converged": int(not res.converged)}
    if exc is not None and type(exc).__name__ == "NotConvergedError":
        return {"iterations": exc.iterations, "gap_max": exc.gap, "not_converged": 1}
    return {}


def _count_alpha(a, res, exc):
    return {"vertices_max": a["g"].vertex_count}


def _count_confusability(a, res, exc):
    return {"fragile": res.fragile_count} if res is not None else {}


def _count_decoder(a, res, exc):
    return {"decoder_words": len(res.mapping)} if res is not None else {}


def _count_verify(a, res, exc):
    if res is None or not res.tensor_path_checked:
        return {}
    code, d = a["code"], a["channel"].dim
    n = code.block_length
    # Computed, not measured: K codewords x N^n product elements x one
    # (d^n)^3 matmul each, the Kronecker path of verify_zero_error.
    flops = code.message_count * len(code.povm) ** n * (d**n) ** 3
    return {"tensor_checked": 1, "tensor_flops_computed": flops}


def _count_report_text(a, res, exc):
    return {"report_bytes": len(res.encode())} if res is not None else {}


# (module, imported name, layer, counter).  Each call site goes through
# exactly one of these names, so no call is recorded twice.
WRAPS = [
    ("zecap.cli", "parse_channel_spec", "formats.parse", None),
    ("zecap.cli", "report_document", "formats.report", None),
    ("zecap.cli", "code_document", "formats.report", None),
    ("zecap.cli", "search_result_document", "formats.report", None),
    ("zecap.cli", "dumps_canonical", "formats.report", _count_report_text),
    ("zecap.cli", "write_text_atomic", "formats.report", None),
    ("zecap.cli", "optimize_pair", "search", _count_search),
    ("zecap.cli", "confusability_graph", "confusability", _count_confusability),
    ("zecap.cli", "capacity_bounds", "capacity", None),
    ("zecap.cli", "build_code", "blockcode.build_code", None),
    ("zecap.cli", "build_decoder", "blockcode.build_decoder", _count_decoder),
    ("zecap.cli", "verify_zero_error", "blockcode.verify", _count_verify),
    ("zecap.search", "confusability_graph", "confusability", _count_confusability),
    ("zecap.search", "independence_number", "graphs.alpha", _count_alpha),
    ("zecap.confusability", "outcome_probabilities", "quantum.outcome_probabilities", None),
    ("zecap.capacity", "strong_power", "graphs.strong_power", None),
    ("zecap.capacity", "independence_number", "graphs.alpha", _count_alpha),
    ("zecap.capacity", "lovasz_theta", "theta", _count_theta),
    ("zecap.blockcode", "strong_power", "graphs.strong_power", None),
    ("zecap.blockcode", "independence_number", "graphs.alpha", _count_alpha),
    ("zecap.blockcode", "outcome_probabilities", "quantum.outcome_probabilities", None),
    # The in-process workloads call these through the package namespace.
    ("zecap", "strong_power", "graphs.strong_power", None),
    ("zecap", "strong_product", "graphs.strong_power", None),
    ("zecap", "independence_number", "graphs.alpha", _count_alpha),
    ("zecap", "lovasz_theta", "theta", _count_theta),
    ("zecap", "confusability_graph", "confusability", _count_confusability),
    ("zecap", "build_code", "blockcode.build_code", None),
    ("zecap", "build_decoder", "blockcode.build_decoder", _count_decoder),
    ("zecap", "verify_zero_error", "blockcode.verify", _count_verify),
]


class Tracer:
    """In-memory span recorder.

    A span is ``[layer, start, end, parent_index, counters]``; parent_index
    is -1 for a span no other recorded span caused.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), None, parent, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, counters: dict | None) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][4] = counters or None
        self._stack.pop()

    @contextmanager
    def span(self, layer: str):
        idx = self._open(layer)
        try:
            yield
        finally:
            self._close(idx, None)

    def wrap(self, fn, layer: str, count=None):
        def traced(*args, **kwargs):
            idx = self._open(layer)
            try:
                res = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, count(_bound(fn, args, kwargs), None, exc) if count else None)
                raise
            self._close(idx, count(_bound(fn, args, kwargs), res, None) if count else None)
            return res

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every name in WRAPS with a traced wrapper."""
        for modname, attr, layer, count in WRAPS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(orig, layer, count))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)

    def adopt(self, spans: list[list]) -> None:
        """Append spans another tracer dumped, keeping their parent links."""
        base = len(self.spans)
        for span in spans:
            if span[3] >= 0:
                span[3] += base
            self.spans.append(span)


def aggregate(spans: list[list]) -> dict[str, dict]:
    """Per layer: calls, inclusive seconds, self seconds and counters."""
    child_time = [0.0] * len(spans)
    for layer, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict[str, dict] = {}
    for i, (layer, t0, t1, _, counters) in enumerate(spans):
        rec = out.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["total_s"] += t1 - t0
        rec["self_s"] += (t1 - t0) - child_time[i]
        for key, value in (counters or {}).items():
            if key in MAX_COUNTERS:
                rec[key] = max(rec.get(key, value), value)
            else:
                rec[key] = rec.get(key, 0) + value
    return out
