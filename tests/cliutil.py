"""Subprocess harness for end-to-end CLI tests."""

from __future__ import annotations

import json
import os
import subprocess
import sys


def run_cli(args, env_extra=None, cwd=None) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter with no ZECAP_SEED override."""
    env = os.environ.copy()
    env.pop("ZECAP_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "zecap.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def write_spec(path, name: str) -> str:
    """Materialize a builtin spec into a JSON file, returning its path."""
    from zecap import builtin_spec
    from zecap.formats import dumps_canonical

    p = os.fspath(path)
    with open(p, "w") as f:
        f.write(dumps_canonical(builtin_spec(name)))
    return p


def load_stdout_json(proc: subprocess.CompletedProcess):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)
