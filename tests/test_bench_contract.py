"""What the benchmark harness in ``perfbench/`` reads from the library.

The harness traces zecap from outside: ``perfbench/tracing.py`` replaces the
names listed in its ``WRAPS`` table and its counters read call arguments by
parameter name, and the workloads call the package namespace directly.  A
rename or a dropped import on this side would break the benchmark, not the
library, so these tests pin the names it depends on.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import zecap
import zecap.cli  # noqa: F401  (the harness names zecap.cli and its imports)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = _load_tracing()


def _reads(count) -> set[str]:
    """Argument names a counter reads from its bound arguments ``a``."""
    return set(re.findall(r'\ba\["(\w+)"\]', inspect.getsource(count))) if count else set()


@pytest.mark.parametrize(
    "modname, attr, count",
    [pytest.param(m, a, c, id=f"{m}.{a}") for m, a, _, c in tracing.WRAPS],
)
def test_every_traced_name_resolves_and_binds_the_arguments_its_counter_reads(modname, attr, count):
    fn = getattr(importlib.import_module(modname), attr)
    assert callable(fn)
    assert _reads(count) <= set(inspect.signature(fn).parameters)


def test_the_source_scan_finds_the_arguments_the_counters_read():
    # Guards the scan above against matching nothing: the counters read at
    # least ``cfg`` of optimize_pair, ``g`` of independence_number and
    # ``code`` / ``channel`` of verify_zero_error.
    reads = set().union(*(_reads(c) for _, _, _, c in tracing.WRAPS))
    assert reads >= {"cfg", "g", "code", "channel"}


def test_every_package_name_the_harness_uses_exists():
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        names |= set(re.findall(r"\bzecap\.([A-Za-z_]\w*)", path.read_text()))
    assert names, "the scan found none of the harness's uses"
    missing = sorted(n for n in names if not hasattr(zecap, n))
    assert not missing


def _pentagon_calls() -> dict:
    """Small pentagon arguments for each function a counter is attached to."""
    channel, states, povm = zecap.embed_classical(zecap.pentagon_matrix())
    graph = zecap.confusability_graph(channel, states, povm)
    code = zecap.build_code(graph, states, povm, n=1)
    return {
        "optimize_pair": (channel, zecap.SearchConfig(num_states=5)),
        "confusability_graph": (channel, states, povm),
        "independence_number": (graph,),
        "lovasz_theta": (graph,),
        "build_decoder": (code, channel, zecap.DEFAULT_EPS),
        "verify_zero_error": (code, channel, zecap.DEFAULT_EPS),
        "dumps_canonical": ({"pentagon": 5},),
    }


COUNTED = [(m, a, layer, c) for m, a, layer, c in tracing.WRAPS if c is not None]


@pytest.mark.parametrize(
    "modname, attr, layer, count", [pytest.param(*w, id=f"{w[0]}.{w[1]}") for w in COUNTED]
)
def test_every_counter_runs_on_a_real_call_of_the_function_it_wraps(modname, attr, layer, count):
    # A counter that reads an attribute the library dropped fails here, not
    # only in a traced benchmark run.
    fn = getattr(importlib.import_module(modname), attr)
    tracer = tracing.Tracer()
    tracer.wrap(fn, layer, count)(*_pentagon_calls()[attr])
    ((span_layer, t0, t1, parent, counters),) = tracer.spans
    assert (span_layer, parent) == (layer, -1) and t0 <= t1
    assert counters and all(isinstance(v, (int, float)) for v in counters.values())
