"""Run one CLI invocation with the layer tracer installed.

Usage: python trace_child.py SPANS_FILE CLI_ARG...

Stdout and the exit code are those of ``python -m obstructor.cli
CLI_ARG...``; the spans are written to SPANS_FILE when the command ends.
"""

import sys

from layers import Tracer


def main() -> None:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from obstructor.cli import main as cli_main

    try:
        tracer.run_root(cli_main, args=argv, prog_name="obstructor")
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    main()
