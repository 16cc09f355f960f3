"""One cold CLI call: a fresh interpreter runs `epkit.cli.entry` on the given arguments.

Usage: python3 bench/cli_child.py [--trace-out SPANS.npz] <epkit arguments...>

Run from the root of a checkout; epkit is imported from its ``src``.  With
--trace-out the call runs under the span tracer and the spans are written to
that file once, at exit.
"""

import os
import sys


def main() -> None:
    args = sys.argv[1:]
    trace_out = None
    if args[:1] == ["--trace-out"]:
        trace_out, args = args[1], args[2:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.argv = ["epkit", *args]
    from epkit import cli

    if trace_out is None:
        cli.entry()
        return

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import spans

    tracer = spans.Tracer()
    tracer.install()
    span = tracer.begin_op(0, args[0])
    code = 0
    try:
        cli.entry()
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.end_op(span)
        tracer.uninstall()
        tracer.save(trace_out)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
