"""Traced stand-in for ``python -m zecap.cli``.

Usage: python cli_child.py SPANS_OUT <zecap cli arguments...>

Times ``import zecap.cli`` and ``zecap.cli.main`` as spans, with the layer
wrappers of ``tracing`` installed, and writes the spans to SPANS_OUT as JSON.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402  (must come before zecap, see tracing's docstring)


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    with tracer.span("import"):
        import zecap.cli
    tracer.install()
    try:
        with tracer.span("cli"):
            rc = zecap.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
