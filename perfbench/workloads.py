"""Deterministic workload generator.

A workload seed expands into a fixed list of CLI instances. Every input file
the program reads is generated here, written under the run's output
directory, and fingerprinted with sha256, so two results can only be compared
when they ran on byte-identical inputs. Generation calls library code
(``build_r3_graph``, ``build_r4_graph``, ``loop_oracle``), which is why the
digests matter: a later change to that code can change the inputs silently.

Each instance carries the exact expectations the checker applies to its
stdout. Nothing here is timed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Witness seeds are drawn from this range; primes stay fixed per slot so the
# workload seed moves the random witnesses, not the size of the structure
# constants, which keeps the cost of a pass close across seeds.
_SEED_RANGE = 10_000

# The loop oracle for the small random graphs stops once this many further
# edge steps add nothing to its span.
_ORACLE_PATIENCE = 2
_ORACLE_MAX_LEN = 12


@dataclass
class Instance:
    """One CLI invocation and what its stdout must say.

    ``argv`` follows ``python -m obstructor.cli``; ``{inputs}`` in an
    argument is replaced by the directory holding the generated files.
    ``expect`` is interpreted by :mod:`check`.
    """

    name: str
    argv: list[str]
    expect: dict
    files: dict[str, str] = field(default_factory=dict)

    def resolved_argv(self, inputs: Path) -> list[str]:
        return [a.replace("{inputs}", str(inputs)) for a in self.argv]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _dump(obj) -> str:
    from obstructor.serialize import dump_json

    return dump_json(obj)


def _graph_text(graph) -> str:
    from obstructor.serialize import graph_to_json

    return _dump(graph_to_json(graph))


def _obstruction_instance(name: str, text: str, expect: dict) -> Instance:
    fname = f"{name}.json"
    return Instance(
        name=name,
        argv=["obstruction", "--graph", "{inputs}/" + fname, "--vertex", "1"],
        expect=expect, files={fname: text})


def _full_instance(kind: str, g: int, p: int, s: int) -> Instance:
    from obstructor.witness import build_r3_graph, build_r4_graph

    build = build_r3_graph if kind == "r3" else build_r4_graph
    text = _graph_text(build(g, p, seed=s))
    return _obstruction_instance(
        f"{kind}-g{g}-p{p}-s{s}", text,
        {"kind": "full", "g": g, "e_dim": 4 * g * g})


def _block_instance(p: int, s: int) -> Instance:
    """The g = 2 r3 graph embedded in the top-left 2x2 block of three size-3
    vertices. Its loop span is the corner of diag(1, 1, 0): dim 16 of 36."""
    from obstructor.serialize import graph_to_json
    from obstructor.witness import build_r3_graph

    payload = graph_to_json(build_r3_graph(2, p, seed=s))
    zero = ["0", "0", "0", "0"]
    for edge in payload["edges"]:
        rows = [row + [zero] for row in edge["matrix"]]
        edge["matrix"] = rows + [[zero] * 3]
    payload["sizes"] = [3, 3, 3]
    idem = []
    for r in range(3):
        for c in range(3):
            idem += ["1" if r == c < 2 else "0", "0", "0", "0"]
    # The corner's canonical basis is the unit vectors of the top-left block.
    support = [(r * 3 + c) * 4 + t for r in range(2) for c in range(2) for t in range(4)]
    return _obstruction_instance(
        f"block-p{p}-s{s}", _dump(payload),
        {"kind": "corner", "e_dim": 16, "factor_dim": 16, "idempotent": idem,
         "support": support})


def _small_instance(p: int, s: int) -> Instance:
    """A seeded random graph with sizes (3, 1, 1) whose loop span at vertex 1
    is not a corner. The expected basis comes from the literal loop oracle,
    which enumerates loops and shares no code with the fixed point."""
    from obstructor.obstruction import loop_oracle
    from obstructor.serialize import graph_from_json

    rng = random.Random(s)

    def entry():
        return [str(rng.randint(-3, 3)) for _ in range(4)]

    payload = {
        "base": {"kind": "quaternion_for_prime", "p": p},
        "r": 3,
        "sizes": [3, 1, 1],
        "edges": [
            {"i": 1, "j": 2, "matrix": [[entry() for _ in range(3)]]},
            {"i": 1, "j": 3, "matrix": [[entry() for _ in range(3)]]},
            {"i": 2, "j": 3, "matrix": [[entry()]]},
        ],
    }
    graph = graph_from_json(payload)
    spans = []
    for length in range(2, _ORACLE_MAX_LEN + 1):
        spans.append(loop_oracle(graph, 1, length))
        tail = spans[-1 - _ORACLE_PATIENCE:]
        if len(tail) > _ORACLE_PATIENCE and all(x == tail[0] for x in tail):
            break
    else:
        raise RuntimeError(f"loop oracle did not settle for p={p} s={s}")
    span = spans[-1]
    basis = [[str(c) for c in v] for v in span.basis]
    return _obstruction_instance(
        f"small-p{p}-s{s}", _dump(payload),
        {"kind": "oracle", "e_dim": span.dim, "basis": basis})


def _obstruct_full(seed: int) -> list[Instance]:
    rng = _rng("obstruct-full", seed)
    return [_full_instance(kind, 3, p, rng.randrange(_SEED_RANGE))
            for kind, p in (("r3", 2), ("r3", 3), ("r4", 5))]


def _obstruct_partial(seed: int) -> list[Instance]:
    rng = _rng("obstruct-partial", seed)
    return [_block_instance(2, rng.randrange(_SEED_RANGE)),
            _small_instance(3, rng.randrange(_SEED_RANGE)),
            _small_instance(5, rng.randrange(_SEED_RANGE))]


def _closure_mix(seed: int) -> list[Instance]:
    rng = _rng("closure-mix", seed)
    s1, s2 = rng.randrange(_SEED_RANGE), rng.randrange(_SEED_RANGE)
    return [
        Instance(f"verify-g3-p3-s{s1}",
                 ["verify", "--g", "3", "--p", "3", "--seed", str(s1)],
                 {"kind": "verify"}),
        Instance(f"find-generator-g4-p2-s{s2}",
                 ["find-generator", "--g", "4", "--p", "2", "--seed", str(s2)],
                 {"kind": "generator", "g": 4}),
    ]


WORKLOADS = {
    "obstruct-full": _obstruct_full,
    "obstruct-partial": _obstruct_partial,
    "closure-mix": _closure_mix,
}


def generate(workload: str, seed: int, inputs: Path) -> tuple[list[Instance], dict]:
    """Write the workload's input files under ``inputs`` and return the
    instances plus a ``{file name: sha256}`` map of everything written."""
    instances = WORKLOADS[workload](seed)
    inputs.mkdir(parents=True, exist_ok=True)
    digests = {}
    for inst in instances:
        for fname, text in inst.files.items():
            data = text.encode()
            (inputs / fname).write_bytes(data)
            digests[fname] = hashlib.sha256(data).hexdigest()
    return instances, digests


def instance_digest(instances: list[Instance], files: dict) -> str:
    """One sha256 over every instance's argv, expectations and input file."""
    blob = json.dumps([[i.name, i.argv, i.expect] for i in instances] + [files],
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()
