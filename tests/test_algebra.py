import itertools
import random
from fractions import Fraction as F

import pytest

from obstructor.algebra import (
    INF,
    DMatrix,
    dagger_transpose,
    element_to_dmatrix,
    dmatrix_to_element,
    hilbert_symbol,
    invert_element,
    make_algebra,
    matrix_algebra,
    matrix_unit,
    quaternion_algebra,
    quaternion_for_prime,
    ramified_places,
    rationals,
    reduced_norm,
    reduced_trace,
    split_model,
)
from obstructor.arith import MR_EXACT_BELOW, factorint, is_prime
from obstructor.errors import (
    AlgebraValidationError,
    AssociativityError,
    FactoringError,
    InvolutionError,
    UnitError,
)


def test_make_algebra_rationals():
    q = make_algebra(1, [[(1,)]], unit=(1,))
    assert q.dim == 1
    assert (q.one() * q.one()).coeffs == (F(1),)


def test_make_algebra_rejects_nonassociative():
    # b0*b0 = b1, b0*b1 = b0, rest zero: (b0 b0) b0 = 0 but b0 (b0 b0) = b0.
    consts = [[(0, 1), (1, 0)], [(0, 0), (0, 0)]]
    with pytest.raises(AssociativityError) as exc:
        make_algebra(2, consts)
    assert exc.value.triple == ("b0", "b0", "b0")


def test_make_algebra_swap_involution_on_q_times_q():
    consts = [[(1, 0), (0, 0)], [(0, 0), (0, 1)]]
    alg = make_algebra(2, consts, unit=(1, 1), involution=((0, 1), (1, 0)))
    e1 = alg.basis_element(0)
    assert e1.dagger().coeffs == (F(0), F(1))


def test_make_algebra_rejects_false_unit():
    consts = [[(1, 0), (0, 0)], [(0, 0), (0, 1)]]
    with pytest.raises(UnitError):
        make_algebra(2, consts, unit=(1, 0))


def test_make_algebra_rejects_bad_involution():
    consts = [[(1, 0), (0, 0)], [(0, 0), (0, 1)]]
    # Not an involution: sends both idempotents to e1.
    with pytest.raises(InvolutionError):
        make_algebra(2, consts, unit=(1, 1), involution=((1, 0), (1, 0)))


def test_make_algebra_rejects_non_antimultiplicative_involution():
    D = quaternion_algebra(-1, -1)
    rows = list(D.involution)
    rows[3] = (0, 0, 0, 1)  # fix k, keep i,j negated: breaks sigma(ij)
    with pytest.raises(InvolutionError):
        make_algebra(4, dict(D._sc), unit=D.unit, involution=tuple(rows))


def test_quaternion_hamilton_table():
    D = quaternion_algebra(-1, -1)
    one, i, j, k = (D.basis_element(t) for t in range(4))
    assert (k * k).coeffs == (F(-1), 0, 0, 0)
    assert (i * j) == k and (j * i) == -k
    assert (D.element((1, 1, 0, 0)) * D.element((1, -1, 0, 0))).coeffs == (F(2), 0, 0, 0)


def test_quaternion_rejects_zero_parameter():
    with pytest.raises(AlgebraValidationError):
        quaternion_algebra(0, -1)


def test_quaternion_main_involution_and_trace():
    D = quaternion_algebra(-1, -1)
    x = D.element((5, 1, 2, 3))
    assert x.dagger().coeffs == (F(5), F(-1), F(-2), F(-3))
    assert reduced_trace(x) == 10
    # dagger is Trd(x) - x
    assert x.dagger() == D.one() * reduced_trace(x) - x


def test_quaternion_reduced_norm_by_expansion():
    D = quaternion_algebra(-1, -1)
    x = D.element((1, 1, 1, 1))
    prod = x * x.dagger()
    assert prod.coeffs == (F(4), 0, 0, 0)
    assert reduced_norm(x) == 4


def test_quaternion_inverse():
    D = quaternion_algebra(-1, -1)
    x = D.element((1, 2, 0, -1))
    inv = invert_element(x)
    assert (x * inv) == D.one() and (inv * x) == D.one()
    assert invert_element(D.zero()) is None


def test_hilbert_symbol_examples():
    assert hilbert_symbol(-1, -1, INF) == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    for ell in (3, 5, 7, 11):
        assert hilbert_symbol(-1, -1, ell) == 1
    for place in (2, 3, 5, INF):
        assert hilbert_symbol(1, -7, place) == 1


def test_hilbert_symbol_rejects_zero_and_bad_place():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 1, 2)
    with pytest.raises(ValueError):
        hilbert_symbol(1, 1, 4)


def test_hilbert_product_formula_seeded():
    rng = random.Random(11)
    for _ in range(50):
        a = F(rng.choice([n for n in range(-30, 31) if n]))
        b = F(rng.choice([n for n in range(-30, 31) if n]),
              rng.choice([n for n in range(1, 12)]))
        places = set([2, INF])
        for q in (a, b):
            for n in (q.numerator, q.denominator):
                n = abs(n)
                f = 2
                while f * f <= n:
                    while n % f == 0:
                        places.add(f)
                        n //= f
                    f += 1
                if n > 1:
                    places.add(n)
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)


def test_factorint_within_the_pollard_rho_budget():
    assert factorint(-8 * 9999991 * 9999973 * 10000019) == {
        2: 3, 9999991: 1, 9999973: 1, 10000019: 1}
    # (10^24 + 7)(3 * 10^24 + 7): each factor needs about 10^12 rho steps.
    with pytest.raises(FactoringError):
        factorint(3000000000000000000000028000000000000000000000049)


def test_is_prime_exact_below_the_base_41_bound():
    # The least strong pseudoprime to the bases 2..37 (Sorenson & Webster).
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)
    assert is_prime(399165290221) and is_prime(798330580441)
    assert is_prime(41) and not is_prime(41 * 43)
    assert factorint(2 ** 61 - 1) == {2 ** 61 - 1: 1}
    # The least one to the bases 2..41 passes, so it bounds exactness: at and
    # above it a pass is no proof, while a failure still is.
    assert not is_prime((2 ** 61 - 1) * (2 ** 31 - 1))
    for n in (MR_EXACT_BELOW, 2 ** 89 - 1):
        with pytest.raises(FactoringError, match="cannot prove"):
            is_prime(n)
        with pytest.raises(FactoringError, match="cannot prove"):
            hilbert_symbol(1, 1, n)
    for n in (MR_EXACT_BELOW, 2 ** 89 - 1, 6 * (2 ** 89 - 1)):
        with pytest.raises(FactoringError, match="cannot prove"):
            factorint(n)


@pytest.mark.parametrize("p,params", [
    (2, (-1, -1)), (3, (-1, -3)), (5, (-2, -5)),
])
def test_quaternion_for_prime_standard_parameters(p, params):
    alg = quaternion_for_prime(p)
    assert alg.quaternion_params == (F(params[0]), F(params[1]))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17])
def test_quaternion_for_prime_ramified_exactly_there(p):
    alg = quaternion_for_prime(p)
    a, b = alg.quaternion_params
    assert ramified_places(a, b) == [p, INF]


def test_quaternion_for_prime_rejects_composite():
    with pytest.raises(ValueError):
        quaternion_for_prime(6)


def test_matrix_algebra_m1_is_base():
    D = quaternion_algebra(-1, -1)
    M1 = matrix_algebra(D, 1)
    assert M1.dim == 4
    x = M1.element((1, 2, 3, 4))
    y = M1.element((0, 1, 0, 0))
    assert (x * y).coeffs == D.mul_coeffs((1, 2, 3, 4), (0, 1, 0, 0))
    assert x.dagger().coeffs == (F(1), F(-2), F(-3), F(-4))


def test_matrix_algebra_transpose_involution_over_q():
    M2 = matrix_algebra(rationals(), 2)
    e12 = matrix_unit(M2, 1, 2)
    assert e12.dagger() == matrix_unit(M2, 2, 1)


def test_matrix_algebra_dimension():
    D = quaternion_for_prime(2)
    assert matrix_algebra(D, 3).dim == 36


def test_matrix_algebra_requires_involution():
    bare = make_algebra(1, [[(1,)]], unit=(1,))
    with pytest.raises(AlgebraValidationError):
        matrix_algebra(bare, 2)


def test_split_model_g1_involution_formula():
    M = split_model(1)
    m = M.element((1, 2, 3, 4))  # (a b; c d) row-major
    assert m.dagger().coeffs == (F(4), F(-2), F(-3), F(1))
    # x + dagger(x) is the trace scalar
    assert (m + m.dagger()) == M.one() * 5


def test_split_model_involution_properties_random():
    rng = random.Random(3)
    M = split_model(2)
    for _ in range(10):
        x = M.element(tuple(rng.randint(-4, 4) for _ in range(16)))
        y = M.element(tuple(rng.randint(-4, 4) for _ in range(16)))
        assert x.dagger().dagger() == x
        assert (x * y).dagger() == y.dagger() * x.dagger()


def test_dmatrix_dagger_transpose_examples():
    D = quaternion_algebra(-1, -1)
    ident = DMatrix.identity(D, 3)
    assert dagger_transpose(ident).flatten() == ident.flatten()
    i, j = D.basis_element(1), D.basis_element(2)
    m = DMatrix.from_entries(D, [[i, D.zero()], [j, D.zero()]])
    md = dagger_transpose(m)
    assert md.entries[0][0] == -i and md.entries[0][1] == -j
    assert md.entries[1][0].is_zero() and md.entries[1][1].is_zero()
    assert dagger_transpose(md).flatten() == m.flatten()


def test_dmatrix_flatten_roundtrip():
    D = quaternion_for_prime(3)
    rng = random.Random(5)
    m = DMatrix.from_entries(D, [
        [D.element(tuple(rng.randint(-3, 3) for _ in range(4))) for _ in range(3)]
        for _ in range(2)])
    again = DMatrix.from_flat(D, 2, 3, m.flatten())
    assert again.flatten() == m.flatten()
    assert (m.rows, m.cols) == (2, 3)


def test_dmatrix_inverse():
    D = quaternion_for_prime(2)
    rng = random.Random(9)
    for _ in range(5):
        m = DMatrix.from_entries(D, [
            [D.element(tuple(rng.randint(-3, 3) for _ in range(4))) for _ in range(2)]
            for _ in range(2)])
        try:
            inv = m.inverse()
        except ZeroDivisionError:
            continue
        prod = m @ inv
        assert prod.flatten() == DMatrix.identity(D, 2).flatten()


def test_element_dmatrix_reshape_consistency():
    D = quaternion_for_prime(2)
    M2 = matrix_algebra(D, 2)
    rng = random.Random(1)
    x = M2.element(tuple(rng.randint(-3, 3) for _ in range(16)))
    y = M2.element(tuple(rng.randint(-3, 3) for _ in range(16)))
    # algebra product and matrix composition agree entry for entry
    assert (x * y).coeffs == (element_to_dmatrix(x) @ element_to_dmatrix(y)).flatten()
    assert dmatrix_to_element(M2, element_to_dmatrix(x)) == x
    # the matrix-algebra involution is the dagger-transpose
    assert x.dagger().coeffs == element_to_dmatrix(x).dagger_transpose().flatten()


def test_rectangular_compose_matches_entrywise_product():
    # DMatrix.compose and the fixed-point engine share matrix_rule, so check
    # every rectangular shape against products taken entry by entry.
    D = quaternion_for_prime(3)
    d = D.dim
    rng = random.Random(11)
    for a, c, b in itertools.product((1, 2, 3), repeat=3):
        m = DMatrix.from_flat(D, a, c, [rng.randint(-3, 3) for _ in range(a * c * d)])
        n = DMatrix.from_flat(D, c, b, [rng.randint(-3, 3) for _ in range(c * b * d)])
        mv, nv = m.flatten(), n.flatten()
        want = []
        for r in range(a):
            for col in range(b):
                acc = [F(0)] * d
                for k in range(c):
                    at, bt = (r * c + k) * d, (k * b + col) * d
                    prod = D.mul_coeffs(mv[at:at + d], nv[bt:bt + d])
                    acc = [x + y for x, y in zip(acc, prod)]
                want.extend(acc)
        assert (m @ n).flatten() == tuple(want), (a, c, b)
