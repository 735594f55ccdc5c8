"""The command-line pipeline, end to end, in a temporary directory.

Equivalent shell session:

    zecap builtin pentagon > pentagon.json
    zecap validate pentagon.json
    zecap analyze pentagon.json --out report.json --dot graph.dot
    zecap theta graph.json
    zecap code pentagon.json --n 2 --out code.json

Reports are canonical JSON written atomically: running analyze twice with
the same inputs and seed produces byte-identical files.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def cli(*args, **kw):
    proc = subprocess.run(
        [sys.executable, "-m", "zecap.cli", *args],
        capture_output=True,
        text=True,
        **kw,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"zecap {' '.join(args)} failed:\n{proc.stderr}")
    return proc.stdout


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        spec = tmp / "pentagon.json"
        report_path = tmp / "report.json"
        dot_path = tmp / "graph.dot"

        spec.write_text(cli("builtin", "pentagon"))
        print(cli("validate", str(spec)).strip())

        cli("analyze", str(spec), "--out", str(report_path), "--dot", str(dot_path))
        report = json.loads(report_path.read_text())
        rates = [e["rate"] for e in report["bounds"]["per_n"]]
        print(f"rates per block length: {rates}")
        print(f"theta upper bound:      {report['bounds']['theta_upper']}")
        print(f"code: {report['code']['message_count']} messages at rate {report['code']['rate']:.6f}")
        print()
        print("DOT export for graphviz:")
        print(dot_path.read_text())

        graph_path = tmp / "c5.json"
        graph_path.write_text(json.dumps(report["graph"]))
        theta = json.loads(cli("theta", str(graph_path)))
        print(f"theta of the exported graph: {theta['value']:.9f} (gap {theta['gap']:.1e})")
        print()

        rerun = tmp / "rerun.json"
        cli("analyze", str(spec), "--out", str(rerun))
        identical = report_path.read_bytes() == rerun.read_bytes()
        print(f"rerun report byte-identical: {identical}")


if __name__ == "__main__":
    main()
