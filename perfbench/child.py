"""Traced stand-in for `python -m hqrsim`, used by the traced cli-mix run.

    python -X importtime perfbench/child.py SPANS_JSON OP_INDEX -- ARGV...

Installs the tracer, runs `hqrsim.cli.main(ARGV)` with the same stdout,
stderr and exit status as `python -m hqrsim ARGV`, and writes the spans
and per-function statistics to SPANS_JSON.
"""

import sys

from tracer import Tracer, dump_child


def main() -> int:
    spans_path, op, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py SPANS_JSON OP_INDEX -- ARGV...")
    import hqrsim.cli

    tracer = Tracer()
    tracer.op = int(op)
    tracer.keep_spans = True
    tracer.install()
    try:
        return hqrsim.cli.main(argv)
    finally:
        tracer.uninstall()
        dump_child(spans_path, tracer)


if __name__ == "__main__":
    sys.exit(main())
