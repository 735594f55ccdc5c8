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
