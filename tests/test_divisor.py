import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstructor.divisor import (
    MultiHomogPoly,
    contains_double_fiber,
    parse_poly,
    substitute_powers,
    verify_factorization,
)
from obstructor.errors import (
    DimensionMismatchError,
    InhomogeneousTermError,
    PolynomialError,
    PolynomialSyntaxError,
)

EXAMPLE = "x1*x2*x3 - y1*y2*y3"


def test_parse_example():
    f = parse_poly(EXAMPLE, 3)
    assert f.degrees == (1, 1, 1)
    assert len(f.terms) == 2
    assert f.to_string() == "x1*x2*x3 - y1*y2*y3"


def test_parse_rejects_inhomogeneous():
    with pytest.raises(InhomogeneousTermError) as exc:
        parse_poly("x1^2 + y1", 1)
    assert "y1" in str(exc.value)


def test_parse_zero():
    f = parse_poly("0", 2)
    assert f.is_zero() and f.degrees == (0, 0)


def test_parse_syntax_error_has_position():
    with pytest.raises(PolynomialSyntaxError) as exc:
        parse_poly("x1 + + x1", 1)
    assert exc.value.position == 5
    with pytest.raises(PolynomialSyntaxError):
        parse_poly("x1 $ y1", 1)
    with pytest.raises(PolynomialSyntaxError):
        parse_poly("", 1)


def test_parse_variable_out_of_range():
    with pytest.raises(PolynomialSyntaxError):
        parse_poly("x4", 3)


def test_parse_rejects_zero_exponent():
    with pytest.raises(PolynomialSyntaxError, match="positive integer"):
        parse_poly("x1^0*y1", 1)


@pytest.mark.parametrize("text, pos", [
    ("x1^" + "1" * 5000, 3),
    ("1" * 5000 + "*x1", 0),
    ("y1 + x" + "1" * 5000, 5),
    ("2/0*x1", 0),
], ids=["long-exponent", "long-coefficient", "long-variable", "zero-denominator"])
def test_parse_rejects_oversized_or_zero_denominator_numbers(text, pos):
    with pytest.raises(PolynomialSyntaxError) as exc:
        parse_poly(text, 1)
    assert exc.value.position == pos


def test_parse_coefficients_and_powers():
    f = parse_poly("3/2*x1^2 - 2*x1*y1 + y1^2", 1)
    assert f.degrees == (2,)
    assert f.terms[((2, 0),)] == F(3, 2)
    assert f.terms[((1, 1),)] == F(-2)
    assert f.terms[((0, 2),)] == F(1)


def test_parse_cancellation_still_checks_degrees():
    with pytest.raises(InhomogeneousTermError):
        parse_poly("x1 - x1 + y1^2", 1)
    f = parse_poly("x1 - x1", 1)
    assert f.is_zero() and f.degrees == (0,)


def test_substitute_powers_square_cover():
    f = parse_poly(EXAMPLE, 3)
    g = substitute_powers(f, (2, 2, 2))
    assert g.degrees == (2, 2, 2)
    assert g == parse_poly("x1^2*x2^2*x3^2 - y1^2*y2^2*y3^2", 3)


def test_substitute_powers_identity():
    f = parse_poly(EXAMPLE, 3)
    assert substitute_powers(f, (1, 1, 1)) == f


def test_substitute_powers_additive():
    f = parse_poly("x1*x2 - y1*y2", 2)
    g = parse_poly("x1*y2 + y1*x2", 2)
    e = (2, 3)
    assert substitute_powers(f + g, e) == substitute_powers(f, e) + substitute_powers(g, e)


def test_substitute_powers_multiplicative_random():
    rng = random.Random(2)
    for _ in range(10):
        f = parse_poly(f"{rng.randint(1,5)}*x1*x2 - {rng.randint(1,5)}*y1*y2", 2)
        g = parse_poly(f"x1*y2 - {rng.randint(1,4)}*y1*x2", 2)
        e = (rng.randint(1, 3), rng.randint(1, 3))
        assert substitute_powers(f * g, e) == substitute_powers(f, e) * substitute_powers(g, e)


def test_substitute_powers_validates():
    f = parse_poly(EXAMPLE, 3)
    with pytest.raises(DimensionMismatchError):
        substitute_powers(f, (2, 2))
    with pytest.raises(PolynomialError):
        substitute_powers(f, (2, 2, 0))


def test_verify_factorization_example():
    f = parse_poly(EXAMPLE, 3)
    lifted = substitute_powers(f, (2, 2, 2))
    plus = parse_poly("x1*x2*x3 + y1*y2*y3", 3)
    assert verify_factorization(lifted, [f, plus])


def test_verify_factorization_wrong_pair():
    f = parse_poly(EXAMPLE, 3)
    lifted = substitute_powers(f, (2, 2, 2))
    assert not verify_factorization(lifted, [f, f])


def test_verify_factorization_with_constant_one():
    f = parse_poly(EXAMPLE, 3)
    one = MultiHomogPoly.constant(3, 1)
    assert verify_factorization(f, [f, one])


def test_verify_factorization_degree_bookkeeping():
    f = parse_poly(EXAMPLE, 3)
    with pytest.raises(InhomogeneousTermError):
        verify_factorization(f, [f, f])


def test_double_fiber_example():
    f = parse_poly(EXAMPLE, 3)
    assert contains_double_fiber(f, 1, ("0", "1"), 2, ("1", "0"))


def test_double_fiber_generic_point_not_contained():
    f = parse_poly(EXAMPLE, 3)
    # substituting [1:1] twice leaves x3 - y3, which is not identically zero
    assert not contains_double_fiber(f, 1, ("1", "1"), 2, ("1", "1"))


def test_double_fiber_zero_poly():
    z = MultiHomogPoly.zero(3)
    assert contains_double_fiber(z, 1, ("0", "1"), 3, ("1", "0"))


def test_double_fiber_rejects_bad_point():
    f = parse_poly(EXAMPLE, 3)
    with pytest.raises(PolynomialError):
        contains_double_fiber(f, 1, ("0", "0"), 2, ("1", "0"))
    with pytest.raises(PolynomialError):
        contains_double_fiber(f, 1, ("0", "1"), 1, ("1", "0"))


def test_double_fiber_projective_rescaling():
    f = parse_poly(EXAMPLE, 3)
    for i, pt_i, j, pt_j in [
        (1, ("0", "1"), 2, ("1", "0")),
        (1, ("0", "7"), 2, ("3/2", "0")),
        (2, ("5", "5"), 3, ("-2", "-2")),
    ]:
        scaled_i = tuple(F(c) * 3 for c in pt_i)
        scaled_j = tuple(F(c) * F(1, 2) for c in pt_j)
        assert contains_double_fiber(f, i, pt_i, j, pt_j) == \
            contains_double_fiber(f, i, scaled_i, j, scaled_j)


_points = st.tuples(
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
).filter(lambda p: p[0] or p[1])

_scales = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)


@given(_points, _points, _scales, _scales)
@settings(max_examples=60, deadline=None)
def test_double_fiber_rescaling_property(pt_i, pt_j, s, t):
    f = parse_poly(EXAMPLE, 3)
    scaled_i = (pt_i[0] * s, pt_i[1] * s)
    scaled_j = (pt_j[0] * t, pt_j[1] * t)
    assert contains_double_fiber(f, 1, pt_i, 3, pt_j) == \
        contains_double_fiber(f, 1, scaled_i, 3, scaled_j)


def test_end_to_end_example_checks():
    # smooth-looking hypersurface violates the double-fiber condition and
    # splits exactly under the coordinate squaring cover
    f = parse_poly(EXAMPLE, 3)
    assert contains_double_fiber(f, 1, ("0", "1"), 2, ("1", "0"))
    lifted = substitute_powers(f, (2, 2, 2))
    plus = parse_poly("x1*x2*x3 + y1*y2*y3", 3)
    assert verify_factorization(lifted, [f, plus])


# The parser's whole contract on a fixed table: each input maps either to its
# exception (exact type, message, position) or to its terms and multidegree.
_SYN, _INH, _POLY = PolynomialSyntaxError, InhomogeneousTermError, PolynomialError

_PARSE_TABLE = [
    ("x1 $ y1", 1, (_SYN, "unexpected character '$'", 3)),
    ("x 1", 1, (_SYN, "unexpected character 'x'", 0)),
    ("(x1)", 1, (_SYN, "parentheses are not supported", 0)),
    ("x1 + + $", 1, (_SYN, "unexpected character '$'", 7)),
    ("x1 y1 ^ )", 1, (_SYN, "parentheses are not supported", 8)),
    ("", 1, (_SYN, "empty polynomial", 0)),
    ("   ", 1, (_SYN, "empty polynomial", 0)),
    ("-", 1, (_SYN, "dangling sign", 0)),
    ("  +  ", 1, (_SYN, "dangling sign", 2)),
    ("x1*", 1, (_SYN, "dangling operator", 2)),
    ("x1 +", 1, (_SYN, "dangling operator", 3)),
    ("x1 - ", 1, (_SYN, "dangling operator", 3)),
    ("x1 + + x1", 1, (_SYN, "expected a factor, got '+'", 5)),
    ("- - x1", 1, (_SYN, "expected a factor, got '-'", 2)),
    ("x1 * * x1", 1, (_SYN, "expected a factor, got '*'", 5)),
    ("x1*+y1", 1, (_SYN, "expected a factor, got '+'", 3)),
    ("^2", 1, (_SYN, "expected a factor, got '^'", 0)),
    ("x1 y1", 1, (_SYN, "expected an operator, got 'y1'", 3)),
    ("x1 2", 1, (_SYN, "expected an operator, got '2'", 3)),
    ("2^2", 1, (_SYN, "'^' only follows a variable", 1)),
    ("x1^2^3", 1, (_SYN, "'^' only follows a variable", 4)),
    ("x1^0*y1", 1, (_SYN, "exponent must be a positive integer", 2)),
    ("x1^", 1, (_SYN, "exponent must be a positive integer", 2)),
    ("x1^1/2", 1, (_SYN, "exponent must be a positive integer", 2)),
    ("x1^y1", 1, (_SYN, "exponent must be a positive integer", 2)),
    ("x0", 1, (_SYN, "variable x0 outside 1..1", 0)),
    ("x4", 3, (_SYN, "variable x4 outside 1..3", 0)),
    ("y9 + x1", 3, (_SYN, "variable y9 outside 1..3", 0)),
    ("2/0*x1", 1, (_SYN, "zero denominator", 0)),
    ("x1^2 + 3 * y1", 1, (_INH, "term 3 * y1 breaks multihomogeneity: "
                                "degrees (1,) vs (2,)", None)),
    ("1 + x1", 1, (_INH, "term x1 breaks multihomogeneity: "
                         "degrees (1,) vs (0,)", None)),
    ("x1 - x1 + y1^2", 1, (_INH, "term y1^2 breaks multihomogeneity: "
                                 "degrees (2,) vs (1,)", None)),
    ("x1 + 2 * y1^2 - y1", 1, (_INH, "term 2 * y1^2 breaks multihomogeneity: "
                                     "degrees (2,) vs (1,)", None)),
    ("x1", 0, (_POLY, "need at least one projective-line factor", None)),
    ("-x1*y2 + 3/2*y1*x2", 2, ({((1, 0), (0, 1)): F(-1), ((0, 1), (1, 0)): F(3, 2)},
                               (1, 1))),
    ("+x1", 1, ({((1, 0),): F(1)}, (1,))),
    ("0", 2, ({}, (0, 0))),
    ("x1 - x1", 1, ({}, (0,))),
    ("x1^2*x1 - 2*y1^ 3", 1, ({((3, 0),): F(1), ((0, 3),): F(-2)}, (3,))),
    ("x1 + 0*y1^5", 1, ({((1, 0),): F(1)}, (1,))),
    ("2*3/4*x1*x2*x3 - y1*y2*y3", 3,
     ({((1, 0), (1, 0), (1, 0)): F(3, 2), ((0, 1), (0, 1), (0, 1)): F(-1)},
      (1, 1, 1))),
]


@pytest.mark.parametrize("text, r, want", _PARSE_TABLE,
                         ids=[f"{t!r}-r{r}" for t, r, _ in _PARSE_TABLE])
def test_parse_table(text, r, want):
    if isinstance(want[0], dict):
        f = parse_poly(text, r)
        assert (f.terms, f.degrees) == want
        return
    exc_type, message, position = want
    with pytest.raises(exc_type) as exc:
        parse_poly(text, r)
    assert type(exc.value) is exc_type
    if position is None:
        assert str(exc.value) == message
    else:
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position


def test_factor_count_is_capped():
    assert parse_poly("x1", 64).r == 64
    for make in (lambda: parse_poly("x1", 65), lambda: MultiHomogPoly.zero(65),
                 lambda: parse_poly("x1", 10 ** 9)):
        with pytest.raises(PolynomialError, match="exceed the cap 64"):
            make()


def test_double_fiber_bit_budget():
    # [3:1] costs bit_length(2) = 2 bits per degree; [1:-1] and [0:1] cost none
    at = parse_poly(f"x1^{2 ** 19}*x2 - y1^{2 ** 19}*y2", 2)
    over = parse_poly(f"x1^{2 ** 19 + 1}*x2 - y1^{2 ** 19 + 1}*y2", 2)
    assert not contains_double_fiber(at, 1, (3, 1), 2, (1, 1))
    with pytest.raises(PolynomialError, match="budget"):
        contains_double_fiber(over, 1, (3, 1), 2, (1, 1))
    # the budget is judged on the coprime integer form of each point
    assert contains_double_fiber(over, 1, ("2/3", "2/3"), 2, ("-2/7", "-2/7"))
