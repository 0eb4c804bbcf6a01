"""JSON interchange: algebra descriptors, graphs, elements, reports.

Every rational travels as a string ("3", "-3/4"); there are no floats in any
interchange format. Dictionaries are built afresh, in a fixed key order, so
identical inputs serialize byte-identically. No other module knows these
formats.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping

from .algebra import (
    DMatrix,
    StructureAlgebra,
    make_algebra,
    matrix_algebra,
    quaternion_algebra,
    quaternion_for_prime,
    split_model,
)
from .arith import is_prime
from .errors import ObstructorError
from .linalg import Subspace, ratio
from .obstruction import ObstructionGraph


# Levels of "matrix" descriptors one algebra descriptor may nest. Each level
# is built in turn, and the loader recurses once per level.
MAX_MATRIX_NESTING = 8


class SchemaError(ObstructorError, ValueError):
    """Malformed JSON payload; the message names the offending path."""


def parse_rational(s, where: str = "value") -> Fraction:
    try:
        return ratio(s)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise SchemaError(f"{where}: not a rational string: {s!r}") from exc


def _is_int(x) -> bool:
    """An int that is not a bool (JSON true/false load as bools)."""
    return isinstance(x, int) and not isinstance(x, bool)


def coeffs_to_json(coeffs) -> list:
    return [str(ratio(c)) for c in coeffs]


def coeffs_from_json(obj, where: str = "coeffs") -> tuple:
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected a list of rational strings")
    return tuple(parse_rational(c, f"{where}[{t}]") for t, c in enumerate(obj))


# -- algebras -----------------------------------------------------------------


def algebra_to_json(alg: StructureAlgebra, _nesting: int = 0) -> dict:
    """A fresh descriptor of ``alg``: the kind its constructor recorded,
    else its full table as a custom algebra. A matrix algebra nested deeper
    than the loader accepts is written as its table at the last level."""
    if alg.is_split_model:
        return {"kind": "split", "g": alg.matrix_size // 2}
    if alg.matrix_base is not None and _nesting < MAX_MATRIX_NESTING:
        return {"kind": "matrix", "g": alg.matrix_size,
                "base": algebra_to_json(alg.matrix_base, _nesting + 1)}
    if alg.quaternion_params is not None:
        a, b = alg.quaternion_params
        return {"kind": "quaternion", "a": str(a), "b": str(b)}
    consts = [
        [coeffs_to_json(alg.mul_coeffs(alg.basis_vector(i), alg.basis_vector(j)))
         for j in range(alg.dim)]
        for i in range(alg.dim)
    ]
    out = {"kind": "custom", "dim": alg.dim, "consts": consts}
    if alg.unit is not None:
        out["unit"] = coeffs_to_json(alg.unit)
    if alg.involution is not None:
        out["involution"] = [coeffs_to_json(r) for r in alg.involution]
    return out


def algebra_from_json(obj, where: str = "algebra",
                      _nesting: int = 0) -> StructureAlgebra:
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{where}: expected an object")
    kind = obj.get("kind")
    if kind == "quaternion":
        return quaternion_algebra(parse_rational(obj.get("a"), f"{where}.a"),
                                  parse_rational(obj.get("b"), f"{where}.b"))
    if kind == "quaternion_for_prime":
        p = obj.get("p")
        if not _is_int(p) or not is_prime(p):
            raise SchemaError(f"{where}.p: expected an integer prime")
        return quaternion_for_prime(p)
    if kind in ("matrix", "split"):
        g = obj.get("g")
        if not _is_int(g) or g < 1:
            raise SchemaError(f"{where}.g: expected a positive integer")
        if kind == "split":
            return split_model(g)
        if _nesting == MAX_MATRIX_NESTING:
            raise SchemaError(f"{where}: matrix descriptors nested more than "
                              f"{MAX_MATRIX_NESTING} deep")
        base = algebra_from_json(obj.get("base"), f"{where}.base", _nesting + 1)
        return matrix_algebra(base, g)
    if kind == "custom":
        dim = obj.get("dim")
        if not _is_int(dim) or dim < 1:
            raise SchemaError(f"{where}.dim: expected a positive integer")
        consts = obj.get("consts")
        if not isinstance(consts, list) or len(consts) != dim:
            raise SchemaError(f"{where}.consts: expected {dim} rows")
        table = []
        for i, row in enumerate(consts):
            if not isinstance(row, list) or len(row) != dim:
                raise SchemaError(f"{where}.consts[{i}]: expected {dim} entries")
            table.append([coeffs_from_json(cv, f"{where}.consts[{i}][{j}]")
                          for j, cv in enumerate(row)])
        unit = obj.get("unit")
        if unit is not None:
            unit = coeffs_from_json(unit, f"{where}.unit")
        involution = obj.get("involution")
        if involution is not None:
            if not isinstance(involution, list):
                raise SchemaError(f"{where}.involution: expected a list of rows")
            involution = tuple(coeffs_from_json(r, f"{where}.involution[{j}]")
                               for j, r in enumerate(involution))
        return make_algebra(dim, table, unit=unit, involution=involution)
    raise SchemaError(f"{where}.kind: unknown kind {kind!r}")


# -- matrices over the base ----------------------------------------------------


def dmatrix_to_json(m: DMatrix) -> list:
    return [[coeffs_to_json(e.coeffs) for e in row] for row in m.entries]


def dmatrix_from_json(base: StructureAlgebra, obj, rows: int, cols: int,
                      where: str = "matrix") -> DMatrix:
    if not isinstance(obj, list) or len(obj) != rows:
        raise SchemaError(f"{where}: expected {rows} rows")
    flat: list = []
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"{where}[{r}]: expected {cols} entries")
        for c, cv in enumerate(row):
            coeffs = coeffs_from_json(cv, f"{where}[{r}][{c}]")
            if len(coeffs) != base.dim:
                raise SchemaError(
                    f"{where}[{r}][{c}]: expected {base.dim} coefficients")
            flat.extend(coeffs)
    return DMatrix(base, rows, cols, tuple(flat))


# -- graphs ---------------------------------------------------------------------


def graph_to_json(graph: ObstructionGraph) -> dict:
    edges = []
    for (i, j) in sorted(graph.edges):
        edges.append({"i": i, "j": j,
                      "matrix": dmatrix_to_json(graph.edges[(i, j)])})
    return {
        "base": algebra_to_json(graph.base),
        "r": graph.r,
        "sizes": list(graph.sizes),
        "edges": edges,
    }


def graph_from_json(obj) -> ObstructionGraph:
    if not isinstance(obj, Mapping):
        raise SchemaError("graph: expected an object")
    base = algebra_from_json(obj.get("base"), "graph.base")
    sizes = obj.get("sizes")
    if not isinstance(sizes, list) or not all(_is_int(g) for g in sizes):
        raise SchemaError("graph.sizes: expected a list of integers")
    r = obj.get("r", len(sizes))
    if not _is_int(r):
        raise SchemaError("graph.r: expected an integer")
    if r != len(sizes):
        raise SchemaError(f"graph.r: {r} does not match {len(sizes)} sizes")
    edges = {}
    raw_edges = obj.get("edges", [])
    if not isinstance(raw_edges, list):
        raise SchemaError("graph.edges: expected a list")
    for t, e in enumerate(raw_edges):
        if not isinstance(e, Mapping):
            raise SchemaError(f"graph.edges[{t}]: expected an object")
        i, j = e.get("i"), e.get("j")
        if not (_is_int(i) and _is_int(j) and 1 <= i < j <= len(sizes)):
            raise SchemaError(
                f"graph.edges[{t}]: need integer vertices 1 <= i < j <= {len(sizes)}")
        if (i, j) in edges:
            raise SchemaError(f"graph.edges[{t}]: duplicate edge ({i},{j})")
        edges[(i, j)] = dmatrix_from_json(
            base, e.get("matrix"), sizes[j - 1], sizes[i - 1],
            f"graph.edges[{t}].matrix")
    return ObstructionGraph(base, sizes, edges)


# -- reports ---------------------------------------------------------------------


def subspace_basis_json(span: Subspace) -> list:
    return [coeffs_to_json(v) for v in span.basis]


def dump_json(obj) -> str:
    """Canonical textual form: two-space indent, stable key order, newline."""
    return json.dumps(obj, indent=2) + "\n"
