import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstructor.algebra import (
    matrix_algebra,
    matrix_unit,
    quaternion_algebra,
    quaternion_for_prime,
    rationals,
    split_model,
)
from obstructor.closure import (
    generates_fully,
    stabilized_word_span,
    subrng_closure,
)
from obstructor.errors import AlgebraValidationError
from obstructor.linalg import echelonize
from obstructor.witness import shift_witness


def test_matrix_units_generate_m2q():
    M2 = matrix_algebra(rationals(), 2)
    res = subrng_closure(M2, [matrix_unit(M2, 1, 2), matrix_unit(M2, 2, 1)])
    assert res.span.dim == 4


def test_zero_generator_gives_zero_subrng():
    M2 = matrix_algebra(rationals(), 2)
    res = subrng_closure(M2, [M2.zero()])
    assert res.span.dim == 0


def test_empty_generators_need_flag():
    D = quaternion_algebra(-1, -1)
    with pytest.raises(AlgebraValidationError):
        subrng_closure(D, [])
    res = subrng_closure(D, [], allow_empty=True)
    assert res.span.dim == 0 and res.rounds == 0


def test_hamilton_i_and_conjugate_close_to_plane():
    # i and dagger(i) = -i span a line; i*i = -1 brings in the scalars, and
    # the closure stabilizes at span{1, i}: dimension 2 < 4.
    D = quaternion_algebra(-1, -1)
    i = D.basis_element(1)
    res = subrng_closure(D, [i, i.dagger()])
    assert res.span.dim == 2
    assert res.span.contains(D.one().coeffs)
    assert res.span.contains(i.coeffs)


def test_generates_fully_split_witness():
    M = split_model(2)
    x = shift_witness(2)
    assert generates_fully(M, [x, x.dagger()])
    assert subrng_closure(M, [x, x.dagger()]).span.dim == 16


def test_rosati_pair_never_generates_quaternion():
    D = quaternion_for_prime(2)
    rng = random.Random(0)
    for _ in range(10):
        x = D.element(tuple(rng.randint(-9, 9) for _ in range(4)))
        assert not generates_fully(D, [x, x.dagger()])


def test_unit_alone_generates_line():
    M2 = matrix_algebra(rationals(), 2)
    res = subrng_closure(M2, [M2.one()])
    assert res.span.dim == 1
    assert not generates_fully(M2, [M2.one()])


def test_word_oracle_length_one_is_generator_span():
    M2 = matrix_algebra(rationals(), 2)
    gens = [matrix_unit(M2, 1, 2), matrix_unit(M2, 2, 1)]
    s = stabilized_word_span(M2, gens, max_len=1)[0]
    assert s == echelonize([g.coeffs for g in gens], ambient_dim=4)


def test_word_oracle_stabilizes_in_m2q():
    M2 = matrix_algebra(rationals(), 2)
    gens = [matrix_unit(M2, 1, 2), matrix_unit(M2, 2, 1)]
    assert (stabilized_word_span(M2, gens, max_len=4)[0]
            == stabilized_word_span(M2, gens, max_len=5)[0])


def test_word_oracle_monotone():
    M = split_model(2)
    x = shift_witness(2)
    dims = [stabilized_word_span(M, [x, x.dagger()], max_len=L)[0].dim
            for L in range(1, 8)]
    assert dims == sorted(dims)


def _random_gens(alg, rng, count, bound=3):
    return [alg.element(tuple(rng.randint(-bound, bound) for _ in range(alg.dim)))
            for _ in range(count)]


def test_oracle_equals_closure_seeded():
    rng = random.Random(42)
    arenas = [
        quaternion_algebra(-1, -1),
        matrix_algebra(rationals(), 2),
        matrix_algebra(rationals(), 3),
        matrix_algebra(quaternion_for_prime(2), 2),
    ]
    for trial in range(50):
        alg = arenas[trial % len(arenas)]
        gens = _random_gens(alg, rng, 1 + trial % 2)
        res = subrng_closure(alg, gens)
        oracle, _ = stabilized_word_span(alg, gens)
        assert oracle == res.span, trial


def test_closure_monotone_in_generators():
    rng = random.Random(7)
    M2 = matrix_algebra(rationals(), 2)
    for _ in range(15):
        gens = _random_gens(M2, rng, 3)
        small = subrng_closure(M2, gens[:2]).span
        big = subrng_closure(M2, gens).span
        for v in small.basis:
            assert big.contains(v)


def test_closure_idempotent():
    M = split_model(2)
    x = shift_witness(2)
    res = subrng_closure(M, [x, x.dagger()])
    again = subrng_closure(M, [M.element(v) for v in res.span.basis])
    assert again.span == res.span


def test_closure_order_independent():
    rng = random.Random(13)
    D = quaternion_for_prime(3)
    M = matrix_algebra(D, 2)
    gens = _random_gens(M, rng, 3, bound=2)
    seen = {subrng_closure(M, perm).span
            for perm in ([gens[0], gens[1], gens[2]],
                         [gens[2], gens[0], gens[1]],
                         [gens[1], gens[2], gens[0]])}
    assert len(seen) == 1


def test_closedness_certificate():
    rng = random.Random(99)
    M = matrix_algebra(quaternion_for_prime(2), 2)
    gens = _random_gens(M, rng, 2, bound=2)
    span = subrng_closure(M, gens).span
    for u in span.basis:
        for v in span.basis:
            assert span.contains(M.mul_coeffs(u, v))


def test_generator_outside_algebra_rejected():
    D = quaternion_algebra(-1, -1)
    E = quaternion_algebra(-1, -3)
    with pytest.raises(AlgebraValidationError):
        subrng_closure(D, [E.one()])


_small_coeffs = st.lists(
    st.tuples(*[st.integers(min_value=-2, max_value=2)] * 4),
    min_size=1, max_size=2)


@given(_small_coeffs)
@settings(max_examples=40, deadline=None)
def test_oracle_equivalence_property_m2q(gen_coeffs):
    M2 = matrix_algebra(rationals(), 2)
    gens = [M2.element(c) for c in gen_coeffs]
    res = subrng_closure(M2, gens)
    oracle, _ = stabilized_word_span(M2, gens)
    assert oracle == res.span


@given(_small_coeffs)
@settings(max_examples=40, deadline=None)
def test_closure_contains_generators_and_products(gen_coeffs):
    D = quaternion_algebra(-1, -1)
    gens = [D.element(c) for c in gen_coeffs]
    span = subrng_closure(D, gens).span
    for g in gens:
        assert span.contains(g.coeffs)
        for h in gens:
            assert span.contains((g * h).coeffs)
