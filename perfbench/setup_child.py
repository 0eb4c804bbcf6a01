"""Do the set-up of one CLI invocation and stop before its first product.

Usage: python setup_child.py CLI_ARG...

Set-up is what the command does before its fixed point starts: interpreter
start, ``import obstructor.cli``, reading and parsing the input, and
constructing and validating every algebra the command uses. Timing this
process from outside gives the ``setup_s`` share of one instance.
"""

import json
import sys


def main(argv: list[str]) -> None:
    import obstructor.cli  # noqa: F401
    from obstructor.algebra import matrix_algebra, quaternion_for_prime, split_model
    from obstructor.serialize import graph_from_json

    command = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    if command == "obstruction":
        with open(opts["--graph"], encoding="utf-8") as fh:
            graph = graph_from_json(json.load(fh))
        matrix_algebra(graph.base, graph.size(int(opts["--vertex"])))
    elif command == "verify":
        g = int(opts["--g"])
        split_model(g)
        matrix_algebra(quaternion_for_prime(int(opts["--p"])), g)
    elif command == "find-generator":
        matrix_algebra(quaternion_for_prime(int(opts["--p"])), int(opts["--g"]))
    else:
        raise SystemExit(f"no set-up defined for {command!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
