"""Per-layer tracing of one CLI invocation, from outside the program.

A layer is a module under ``src/obstructor``. The tracer wraps the public
entry points of each layer, records one span per call (name, start, end,
parent) in memory, and writes the spans out when the invocation ends.
:func:`summarize` turns the spans of a pass into the per-layer metrics.

Functions that other modules import by name (``from .closure import
subrng_closure``) are replaced in every ``obstructor`` module that holds
them, since a caller looks the name up in its own module. Methods are
replaced on the class. Private kernels such as ``_compose_vec`` are not
wrapped: their names are expected to change, and their cost shows up as the
self time of the fixed point that calls them.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time

# (span name, module, attribute); a dotted attribute is a method.
TARGETS = [
    ("serialize.parse", "serialize", "graph_from_json"),
    ("serialize.parse", "serialize", "algebra_from_json"),
    ("serialize.emit", "serialize", "dump_json"),
    ("algebra.build", "algebra", "matrix_algebra"),
    ("algebra.build", "algebra", "split_model"),
    ("algebra.build", "algebra", "quaternion_for_prime"),
    ("algebra.build", "algebra", "quaternion_algebra"),
    ("algebra.mul", "algebra", "StructureAlgebra.mul_coeffs"),
    ("linalg.add", "linalg", "Echelon.add"),
    ("linalg.solve", "linalg", "solve_linear"),
    ("closure.fixpoint", "closure", "subrng_closure"),
    ("closure.fixpoint", "closure", "generates_fully"),
    ("closure.oracle", "closure", "stabilized_word_span"),
    ("closure.oracle", "closure", "word_span_oracle"),
    ("obstruction.fixpoint", "obstruction", "path_span_table"),
    ("obstruction.corner", "obstruction", "corner_detect"),
    ("witness.search", "witness", "random_rosati_generator"),
    ("witness.chain", "witness", "verify_identity_chain"),
]

ROOT = "cli"

# Metrics that count work rather than time it. They repeat exactly for one
# program on one input, so the steadiness check requires them to be identical
# across runs on the same inputs.
COUNTS = (
    "algebra.build_calls", "algebra.mul_calls", "linalg.add_calls",
    "linalg.add_grew_share", "linalg.coeff_bits_max", "closure.fixpoint_calls",
    "obstruction.products", "obstruction.products_grew_share",
    "witness.search_tries",
)


def _bits(v) -> int:
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in v if c), default=0)


class Tracer:
    """Records nested spans of wrapped calls in one process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self.missing: list[str] = []

    def _wrap(self, name: str, fn, extra=None, before=None):
        idx = self._name_index(name)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = before(args) if before else None
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            spans.append((sid, parent, idx, t0, t1,
                          extra(pre, out) if extra else None))
            return out

        return wrapper

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def install(self) -> None:
        """Wrap every target where its callers look it up. A target the
        program no longer has is listed in ``missing`` and skipped."""
        import obstructor.cli  # noqa: F401  (loads every layer)

        modules = [m for key, m in sys.modules.items()
                   if key == "obstructor" or key.startswith("obstructor.")]
        for name, modname, attr in TARGETS:
            extra = before = None
            if attr == "Echelon.add":
                before = lambda args: _bits(args[1])  # noqa: E731
                extra = lambda bits, grew: [bool(grew), bits]  # noqa: E731
            elif attr == "random_rosati_generator":
                extra = lambda _, res: [res.tries]  # noqa: E731
            module = sys.modules.get(f"obstructor.{modname}")
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            if holder is None or not hasattr(holder, leaf):
                self.missing.append(f"{modname}.{attr}")
                continue
            fn = getattr(holder, leaf)
            wrapped = self._wrap(name, fn, extra, before)
            if owner:
                setattr(holder, leaf, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)

    def run_root(self, fn, *args, **kwargs):
        """Call ``fn`` as the root span; record it even when it exits."""
        idx = self._name_index(ROOT)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((0, -1, idx, t0, time.perf_counter(), None))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "missing": self.missing}, fh)


def summarize(traces: list[dict], scales: list[float] | None = None) -> dict:
    """Per-layer metrics over the span dumps of one pass (one per instance).

    A layer's time is the duration of its outermost spans, so a call nested
    in a call of the same layer is not counted twice. Self time is a span's
    duration minus that of its direct child spans. Times from the i-th dump
    are multiplied by ``scales[i]``; counts are not.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    selft: dict[str, float] = {}
    add_grew = add_calls = bits_max = 0
    products = products_grew = tries = 0
    for trace, scale in zip(traces, scales or [1.0] * len(traces)):
        names = trace["names"]
        spans = {s[0]: s for s in trace["spans"]}
        child_time: dict[int, float] = {}
        for sid, parent, idx, t0, t1, _ in spans.values():
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        for sid, parent, idx, t0, t1, extra in spans.values():
            name = names[idx]
            dur = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            selft[name] = selft.get(name, 0.0) + (dur - child_time.get(sid, 0.0)) * scale
            if not _inside(spans, names, parent, name):
                total[name] = total.get(name, 0.0) + dur * scale
            if name == "linalg.add":
                grew, bits = extra
                add_calls += 1
                add_grew += grew
                bits_max = max(bits_max, bits)
                if parent in spans and names[spans[parent][2]] == "obstruction.fixpoint":
                    products += 1
                    products_grew += grew
            elif name == "witness.search":
                tries += extra[0]

    def share(num, den):
        return num / den if den else 0.0

    return {
        "serialize.parse_s": total.get("serialize.parse", 0.0),
        "serialize.emit_s": total.get("serialize.emit", 0.0),
        "algebra.build_calls": calls.get("algebra.build", 0),
        "algebra.build_s": total.get("algebra.build", 0.0),
        "algebra.mul_calls": calls.get("algebra.mul", 0),
        "algebra.mul_s": total.get("algebra.mul", 0.0),
        "linalg.add_calls": add_calls,
        "linalg.add_s": total.get("linalg.add", 0.0),
        "linalg.add_grew_share": share(add_grew, add_calls),
        "linalg.coeff_bits_max": bits_max,
        "linalg.solve_s": total.get("linalg.solve", 0.0),
        "closure.fixpoint_calls": calls.get("closure.fixpoint", 0),
        "closure.fixpoint_s": total.get("closure.fixpoint", 0.0),
        "closure.fixpoint_self_s": selft.get("closure.fixpoint", 0.0),
        "closure.oracle_s": total.get("closure.oracle", 0.0),
        "obstruction.fixpoint_s": total.get("obstruction.fixpoint", 0.0),
        "obstruction.fixpoint_self_s": selft.get("obstruction.fixpoint", 0.0),
        "obstruction.products": products,
        "obstruction.products_grew_share": share(products_grew, products),
        "obstruction.corner_s": total.get("obstruction.corner", 0.0),
        "witness.search_s": total.get("witness.search", 0.0),
        "witness.search_tries": tries,
        "witness.chain_s": total.get("witness.chain", 0.0),
        "cli.self_s": selft.get(ROOT, 0.0),
    }


def _inside(spans: dict, names: list, parent: int, name: str) -> bool:
    """True when some ancestor span (starting at ``parent``) has ``name``."""
    while parent in spans:
        sid, grand, idx = spans[parent][:3]
        if names[idx] == name:
            return True
        parent = grand
    return False
