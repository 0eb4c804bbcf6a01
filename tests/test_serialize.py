"""Fuzz of the JSON loaders: whatever the payload, the only exception that
may escape ``graph_from_json`` or ``algebra_from_json`` is an
``ObstructorError`` (exit 2 at the CLI), never a crash.

Sizes and ``g`` stay in -1..2 and matrix bases nest at most one level: a
deeper nest builds algebras of dimension 256 or more, and building one takes
a tenth of a second or more (dimension 256 about 0.13 s, dimension 1024
about 2.7 s), too long for a thousand examples.

A graph over a custom base also makes the round trip through its JSON form,
and the named algebras keep the descriptors they have always been written
with.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from obstructor.algebra import (
    DMatrix,
    make_algebra,
    matrix_algebra,
    quaternion_algebra,
    quaternion_for_prime,
    rationals,
    split_model,
)
from obstructor.errors import ObstructorError
from obstructor.obstruction import ObstructionGraph, compute_obstruction
from obstructor.serialize import (
    MAX_MATRIX_NESTING,
    SchemaError,
    algebra_from_json,
    algebra_to_json,
    dump_json,
    graph_from_json,
    graph_to_json,
)
from obstructor.witness import build_r3_graph

_FUZZ = settings(derandomize=True, max_examples=1000, deadline=None,
                 database=None, suppress_health_check=list(HealthCheck))

# Any JSON value: what a wrong slot may hold.
junk = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=4)


def _mostly(valid, bad):
    """``valid`` in about three draws of four, else ``bad``."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else bad)


rational = _mostly(
    st.one_of(st.integers(-6, 6).map(str),
              st.tuples(st.integers(-6, 6), st.integers(0, 4))
              .map(lambda t: f"{t[0]}/{t[1]}")),
    st.one_of(st.sampled_from(["1.5", "1e3", "+3", " 1", "-", "1/", "/2", "", "x"]),
              st.booleans(), st.floats(), junk))

small_int = _mostly(st.integers(-1, 2), st.one_of(st.booleans(), st.floats(), junk))


def vector(n: int):
    return _mostly(st.lists(rational, min_size=n, max_size=n),
                   st.one_of(st.lists(rational, max_size=n + 1), junk))


def _descriptor(kind: str, **slots):
    """All slots, or any subset of them (each missing slot reads as null)."""
    return _mostly(st.fixed_dictionaries({"kind": st.just(kind), **slots}),
                   st.fixed_dictionaries({"kind": st.just(kind)}, optional=slots))


def _custom(dim: int):
    return _descriptor(
        "custom", dim=_mostly(st.just(dim), small_int),
        consts=st.lists(st.lists(vector(dim), min_size=dim, max_size=dim),
                        min_size=dim, max_size=dim),
        unit=vector(dim),
        involution=st.lists(vector(dim), min_size=dim, max_size=dim))


leaf_algebra = st.one_of(
    _descriptor("quaternion", a=rational, b=rational),
    _descriptor("quaternion_for_prime",
                p=_mostly(st.sampled_from([2, 3, 5, 7, 11, 13]),
                          st.one_of(st.integers(-2, 14), st.booleans(), junk))),
    _descriptor("split", g=small_int),
    st.integers(1, 2).flatmap(_custom),
    st.fixed_dictionaries({"kind": junk | st.sampled_from(["", "Matrix"])}),
    junk)

algebra = st.one_of(leaf_algebra, _descriptor("matrix", g=small_int, base=leaf_algebra))


def _matrix(shape):
    """Entries of four coefficients, the dimension of every quaternion base."""
    rows, cols = shape
    return st.lists(st.lists(vector(4), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


edge = _mostly(
    st.tuples(_mostly(st.sampled_from([(1, 2), (1, 3), (2, 3)]),
                      st.tuples(st.integers(0, 3), st.integers(0, 3))),
              st.tuples(st.integers(0, 2), st.integers(0, 2)).flatmap(_matrix))
    .map(lambda t: {"i": t[0][0], "j": t[0][1], "matrix": t[1]}),
    st.fixed_dictionaries({}, optional={"i": junk, "j": junk, "matrix": junk}))

quaternion_base = st.sampled_from([{"kind": "quaternion_for_prime", "p": p}
                                   for p in (2, 3, 5)])

graph = _mostly(
    st.fixed_dictionaries(
        {"base": _mostly(quaternion_base, algebra),
         "sizes": _mostly(st.lists(st.integers(-1, 2), min_size=2, max_size=3),
                          st.lists(small_int, max_size=3)),
         "edges": st.lists(edge, max_size=2)},
        optional={"r": st.integers(-1, 3)}),
    st.fixed_dictionaries({}, optional={
        "base": junk, "r": junk, "sizes": junk, "edges": junk}) | junk)


@_FUZZ
@given(algebra)
def test_algebra_from_json_raises_only_obstructor_errors(payload):
    try:
        algebra_from_json(payload)
    except ObstructorError:
        pass


@_FUZZ
@given(graph)
def test_graph_from_json_raises_only_obstructor_errors(payload):
    try:
        graph_from_json(payload)
    except ObstructorError:
        pass


def test_matrix_nesting_cap():
    desc = {"kind": "quaternion_for_prime", "p": 2}
    for _ in range(MAX_MATRIX_NESTING):
        desc = {"kind": "matrix", "g": 1, "base": desc}
    assert algebra_from_json(desc).dim == 4
    with pytest.raises(SchemaError, match="nested more than"):
        algebra_from_json({"kind": "matrix", "g": 1, "base": desc})


@pytest.mark.parametrize("depth", [MAX_MATRIX_NESTING, MAX_MATRIX_NESTING + 1])
def test_the_writer_nests_no_deeper_than_the_loader_reads(depth):
    # M_1 applied ``depth`` times over D: dimension 4 at every depth.
    alg = quaternion_for_prime(2)
    for _ in range(depth):
        alg = matrix_algebra(alg, 1)
    desc = algebra_to_json(alg)
    node, levels = desc, 0
    while node["kind"] == "matrix":
        node, levels = node["base"], levels + 1
    assert levels == MAX_MATRIX_NESTING
    assert node["kind"] == ("quaternion" if depth == MAX_MATRIX_NESTING else "custom")
    back = algebra_from_json(json.loads(dump_json(desc)))
    if depth == MAX_MATRIX_NESTING:
        assert back is alg
    assert (back.rule, back.scale, back.unit, back.inv_terms) == (
        alg.rule, alg.scale, alg.unit, alg.inv_terms)
    assert algebra_to_json(back) == desc


# Q(t) with t^2 = c and the involution t -> -t: c = -1 is Q(i) with
# conjugation, and c = 1/2 leaves a denominator in the structure constants.
@pytest.mark.parametrize("square", ["-1", "1/2"])
def test_graph_over_a_custom_base_round_trips(square):
    base = make_algebra(2, [[(1, 0), (0, 1)], [(0, 1), (square, 0)]],
                        unit=(1, 0), involution=((1, 0), (0, -1)))
    # Rational entries keep every loop span partial.
    edges = {(1, 2): DMatrix.from_entries(base, [[("1/2", 0)], [(3, 0)]]),
             (2, 3): DMatrix.from_entries(base, [[(2, 0), (-1, 0)]]),
             (1, 3): DMatrix.from_entries(base, [[("-3/2", 0)]])}
    graph = ObstructionGraph(base, [1, 2, 1], edges)
    text = dump_json(graph_to_json(graph))
    assert '"kind": "custom"' in text
    back = graph_from_json(json.loads(text))
    assert dump_json(graph_to_json(back)) == text
    spans = [compute_obstruction(graph, v) for v in (1, 2, 3)]
    assert [span.dim for span in spans] == [1, 4, 1]
    assert [compute_obstruction(back, v) for v in (1, 2, 3)] == spans


_RATIONALS = ('{"kind": "custom", "dim": 1, "consts": [[["1"]]], "unit": ["1"], '
              '"involution": [["1"]]}')


# The descriptors as written before the algebras stopped carrying them.
@pytest.mark.parametrize("build, text", [
    (rationals, _RATIONALS),
    (lambda: quaternion_algebra("-1/2", 3),
     '{"kind": "quaternion", "a": "-1/2", "b": "3"}'),
    (lambda: quaternion_for_prime(2), '{"kind": "quaternion", "a": "-1", "b": "-1"}'),
    (lambda: quaternion_for_prime(3), '{"kind": "quaternion", "a": "-1", "b": "-3"}'),
    (lambda: quaternion_for_prime(5), '{"kind": "quaternion", "a": "-2", "b": "-5"}'),
    (lambda: matrix_algebra(rationals(), 2),
     '{"kind": "matrix", "g": 2, "base": ' + _RATIONALS + '}'),
    (lambda: matrix_algebra(quaternion_for_prime(2), 2),
     '{"kind": "matrix", "g": 2, "base": {"kind": "quaternion", "a": "-1", "b": "-1"}}'),
    (lambda: split_model(1), '{"kind": "split", "g": 1}'),
    (lambda: split_model(2), '{"kind": "split", "g": 2}'),
    (lambda: matrix_algebra(split_model(1), 2),
     '{"kind": "matrix", "g": 2, "base": {"kind": "split", "g": 1}}'),
], ids=["Q", "quaternion", "D2", "D3", "D5", "M2(Q)", "M2(D2)", "split1", "split2",
        "M2(split1)"])
def test_named_algebra_descriptors(build, text):
    assert json.dumps(algebra_to_json(build())) == text


def test_editing_a_descriptor_leaves_the_algebra_alone():
    d2 = quaternion_for_prime(2)
    algebra_to_json(d2)["a"] = "5"
    algebra_to_json(matrix_algebra(d2, 2))["base"]["b"] = "7"
    graph_to_json(build_r3_graph(2, 3, seed=0))["base"]["a"] = "5"
    assert algebra_to_json(d2) == {"kind": "quaternion", "a": "-1", "b": "-1"}
    assert algebra_to_json(matrix_algebra(d2, 2))["base"] == algebra_to_json(d2)
    assert algebra_to_json(quaternion_for_prime(3)) == {
        "kind": "quaternion", "a": "-1", "b": "-3"}


def test_matrix_algebra_over_a_custom_base_round_trips():
    # Q x Q with the swap involution, a base no named constructor records.
    base = make_algebra(2, [[(1, 0), (0, 0)], [(0, 0), (0, 1)]],
                        unit=(1, 1), involution=((0, 1), (1, 0)))
    alg = matrix_algebra(base, 2)
    desc = algebra_to_json(alg)
    assert desc["kind"] == "matrix" and desc["g"] == 2
    assert desc["base"]["kind"] == "custom"
    back = algebra_from_json(json.loads(dump_json(desc)))
    assert (back.rule, back.scale, back.unit, back.inv_terms) == (
        alg.rule, alg.scale, alg.unit, alg.inv_terms)
    assert dump_json(algebra_to_json(back)) == dump_json(desc)
