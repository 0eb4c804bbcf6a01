import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstructor.algebra import (
    DMatrix,
    make_algebra,
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
from obstructor.obstruction import ObstructionGraph, loop_oracle, path_span_table
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
    # The returned length is the first length that grew nothing, or 1 when
    # there is no nonzero generator, or max_len.
    units = [matrix_unit(M2, i, j) for i in (1, 2) for j in (1, 2)]
    for case, want in [([], 1), ([M2.zero(), M2.zero()], 1),
                       ([matrix_unit(M2, 1, 2)], 2), (units, 2)]:
        assert stabilized_word_span(M2, case)[1] == want, case
    assert stabilized_word_span(M2, gens, max_len=1)[1] == 1


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


# -- the engine over an algebra whose structure constants have denominators ---


def _rescaled(alg, scales):
    """A custom copy of ``alg`` on the basis s_t * b_t: the constant of
    b_i b_j at b_k becomes c * s_i * s_j / s_k, so it has denominators."""
    n = alg.dim
    consts = [[tuple(c * scales[i] * scales[j] / scales[k]
                     for k, c in enumerate(alg.mul_coeffs(alg.basis_vector(i),
                                                          alg.basis_vector(j))))
               for j in range(n)] for i in range(n)]
    unit = tuple(c / s for c, s in zip(alg.unit, scales))
    inv = tuple(tuple(scales[j] * c / scales[k] for k, c in enumerate(row))
                for j, row in enumerate(alg.involution))
    return make_algebra(n, consts, unit=unit, involution=inv)


def _rational_element(alg, rng, density=1.0):
    return alg.element(tuple(
        F(rng.randint(-3, 3), rng.choice((1, 2, 3))) if rng.random() < density else 0
        for _ in range(alg.dim)))


def test_closure_on_non_integral_algebra_matches_word_span():
    A = _rescaled(matrix_algebra(rationals(), 3),
                  [F(1, 2), 3, F(2, 5), F(7, 3), F(-1, 6), 1, F(5, 4), F(3, 7), 2])
    assert A.scale > 1
    assert all(isinstance(c, int) for bucket in A.rule for _, _, c in bucket)
    rng = random.Random(5)
    seen = []
    for t in range(6):
        gens = [_rational_element(A, rng) for _ in range(1 + t % 2)]
        if t % 3 == 2:
            gens = [A.element(tuple(c if k in (0, 1, 2, 4) else 0
                                    for k, c in enumerate(g.coeffs))) for g in gens]
        res = subrng_closure(A, gens)
        assert res.span == stabilized_word_span(A, gens)[0], t
        seen.append((res.span.dim, res.rounds))
    # Dimensions and rounds of the same iteration run over Fraction vectors.
    assert seen == [(3, 2), (9, 2), (2, 1), (9, 2), (3, 2), (4, 1)]


def test_path_table_on_non_integral_base_matches_loop_oracle():
    H = _rescaled(quaternion_algebra(1, 1), [F(1, 2), F(3, 5), 2, F(-7, 3)])
    rng = random.Random(0)

    def entry():
        return _rational_element(H, rng, density=0.5)

    g = ObstructionGraph(H, (1, 2, 1), {
        (1, 2): DMatrix.from_entries(H, [[entry()], [entry()]]),
        (2, 3): DMatrix.from_entries(H, [[entry(), entry()]]),
        (1, 3): DMatrix.from_entries(H, [[entry()]]),
    })
    table = path_span_table(g)
    assert table.rounds == 2
    assert [table.spans[(a, b)].dim for a in (1, 2, 3) for b in (1, 2, 3)] == \
        [2, 4, 2, 4, 8, 4, 2, 4, 2]
    for v in (1, 2, 3):
        assert loop_oracle(g, v, 8) == table.spans[(v, v)], v


# -- spinning against literal enumeration ----------------------------------------


def test_word_span_matches_literal_words_seeded():
    # M_3(Q) and M_2(D_2) keep growing past length 2, so the frozen levels
    # are tested at every length.
    rng = random.Random(31)
    arenas = [rationals(), quaternion_for_prime(2), matrix_algebra(rationals(), 2),
              matrix_algebra(rationals(), 3),
              matrix_algebra(quaternion_for_prime(2), 2)]
    for trial in range(80):
        alg = arenas[trial % len(arenas)]
        gens = _random_gens(alg, rng, 1 + trial % 2, bound=2)
        words = []
        for L in range(1, 5):
            for word in itertools.product(gens, repeat=L):
                val = word[0]
                for letter in word[1:]:
                    val = val * letter
                words.append(val.coeffs)
            literal = echelonize(words, ambient_dim=alg.dim)
            assert stabilized_word_span(alg, gens, max_len=L)[0] == literal, (trial, L)


def test_loop_oracle_matches_literal_loops_seeded():
    rng = random.Random(32)
    bases = [rationals(), quaternion_for_prime(2)]
    for trial in range(60):
        base = bases[trial % len(bases)]
        r = 2 + trial % 3
        sizes = [rng.randint(1, 2) for _ in range(r)]
        edges = {}
        for i in range(1, r + 1):
            for j in range(i + 1, r + 1):
                if rng.random() < 0.7:
                    edges[(i, j)] = DMatrix.from_entries(base, [
                        [_random_gens(base, rng, 1, bound=2)[0]
                         for _ in range(sizes[i - 1])]
                        for _ in range(sizes[j - 1])])
        g = ObstructionGraph(base, sizes, edges)
        v = rng.randint(1, r)
        loops = []
        for L in range(2, 6):
            for inner in itertools.product(range(1, r + 1), repeat=L - 1):
                seq = (v, *inner, v)
                if any(a == b for a, b in zip(seq, seq[1:])):
                    continue
                val = g.hom_map(seq[0], seq[1])
                for a, b in zip(seq[1:], seq[2:]):
                    val = val @ g.hom_map(a, b)
                loops.append(val.flatten())
            literal = echelonize(loops, ambient_dim=g.hom_ambient(v, v))
            assert loop_oracle(g, v, L) == literal, (trial, L)
