import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstructor.arith import is_prime
from obstructor.closure import MODULUS
from obstructor.errors import DimensionMismatchError
from obstructor.linalg import (
    MAX_DIGITS,
    Echelon,
    EchelonModP,
    Subspace,
    echelonize,
    integral,
    ratio,
    solve_linear,
    vector,
)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)


def vecs(dim, rows):
    return st.lists(st.tuples(*[rationals] * dim), min_size=0, max_size=rows)


def test_echelonize_dependent_rows():
    s = echelonize([(1, 2), (2, 4)])
    assert s.dim == 1
    assert s.basis == ((F(1), F(2)),)


def test_echelonize_empty_needs_ambient():
    s = echelonize([], ambient_dim=3)
    assert s.dim == 0 and s.ambient_dim == 3
    with pytest.raises(DimensionMismatchError):
        echelonize([])


def test_echelonize_canonical_order():
    s = echelonize([(0, 1), (1, 0)])
    assert s.basis == ((F(1), F(0)), (F(0), F(1)))


def test_echelonize_rejects_ragged_rows():
    with pytest.raises(DimensionMismatchError):
        echelonize([(1, 2), (1, 2, 3)])


@given(vecs(3, 6))
@settings(deadline=None)
def test_echelonize_idempotent(rows):
    s = echelonize(rows, ambient_dim=3)
    assert echelonize(s.basis, ambient_dim=3) == s


def test_contains_basic():
    s = echelonize([(1, 0)])
    assert s.contains(vector((3, 0)))
    assert not s.contains(vector((0, 1)))


def test_contains_solved_by_hand():
    # (5,11) = 5*(1,2) + 1*(0,1)
    s = echelonize([(1, 2), (0, 1)])
    assert s.contains(vector((5, 11)))


def test_contains_dimension_mismatch():
    s = echelonize([(1, 0)])
    with pytest.raises(DimensionMismatchError):
        s.contains(vector((1, 0, 0)))


@given(vecs(4, 5), st.tuples(*[rationals] * 4))
@settings(max_examples=60, deadline=None)
def test_contains_iff_sum_dim_unchanged(rows, v):
    s = echelonize(rows, ambient_dim=4)
    grown = Subspace(4, s.basis + (v,))
    assert s.contains(v) == (grown.dim == s.dim)


def test_subspace_sum_plane():
    s = Subspace(2, echelonize([(1, 0)]).basis + echelonize([(0, 1)]).basis)
    assert s.dim == 2


def test_subspace_sum_idempotent():
    s = echelonize([(1, 1), (2, 3)])
    assert Subspace(2, s.basis + s.basis) == s


def test_subspace_sum_independent_lines():
    assert Subspace(2, echelonize([(1, 1)]).basis + echelonize([(1, -1)]).basis).dim == 2


def test_subspace_sum_ambient_mismatch():
    with pytest.raises(DimensionMismatchError):
        Subspace(2, echelonize([(1, 0)]).basis + echelonize([(1, 0, 0)]).basis)
    assert echelonize([(1, 0)]) != echelonize([(1, 0, 0)])


def test_subspace_equal_is_canonical_identity():
    a = echelonize([(1, 2), (3, 4)])
    b = echelonize([(3, 4), (1, 2)])
    assert a.basis == b.basis
    assert a == b and hash(a) == hash(b)


def test_subspaces_refuse_assignment():
    # Spans are shared (engine tables, Subspace.full), so none may change.
    for span in (echelonize([(1, 2, 3)]), Subspace.full(2), echelonize([], ambient_dim=2)):
        before = (span.ambient_dim, span.basis, span.pivots)
        for name in Subspace.__slots__:
            with pytest.raises(AttributeError, match="Subspace is immutable"):
                setattr(span, name, ())
            with pytest.raises(AttributeError, match="Subspace is immutable"):
                delattr(span, name)
        with pytest.raises(AttributeError):
            span.extra = 1
        assert (span.ambient_dim, span.basis, span.pivots) == before


def test_solve_identity():
    a = ((1, 0), (0, 1))
    assert solve_linear(a, vector((7, -2))) == vector((7, -2))


def test_solve_inconsistent():
    assert solve_linear(((0, 0),), vector((1,))) is None


def test_solve_back_substitution():
    a = ((1, 1), (0, 1))
    assert solve_linear(a, vector((3, 1))) == vector((2, 1))


def test_solve_underdetermined_free_vars_zero():
    a = ((1, 2, 0),)
    assert solve_linear(a, vector((4,))) == vector((4, 0, 0))


def test_solve_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        solve_linear(((1, 0),), vector((1, 2)))


def test_solve_rejects_ragged_rows():
    with pytest.raises(DimensionMismatchError, match="unequal lengths"):
        solve_linear(((1, 0), (1, 0, 0)), vector((1, 2)))


def test_echelonize_rejects_a_negative_ambient():
    with pytest.raises(DimensionMismatchError, match="ambient dimension"):
        echelonize([(1, 0)], ambient_dim=-1)


@given(st.lists(st.tuples(*[rationals] * 3), min_size=1, max_size=4),
       st.tuples(*[rationals] * 3))
@settings(max_examples=60, deadline=None)
def test_solve_exactness_roundtrip(rows, x):
    a = tuple(rows)
    b = tuple(sum((r * c for r, c in zip(row, x)), F(0)) for row in a)
    sol = solve_linear(a, b)
    assert sol is not None
    again = tuple(sum((r * c for r, c in zip(row, sol)), F(0)) for row in a)
    assert again == b


def test_ratio_rejects_floats():
    with pytest.raises(TypeError):
        ratio(0.5)
    assert ratio("3/4") == F(3, 4)
    assert ratio(-2) == F(-2)


@pytest.mark.parametrize("text", ["1.5", "1e5000", "+3", " 3", "3 ", "3/-4", "",
                                  "1/", "0x10", "\u0663", "1" * (MAX_DIGITS + 1),
                                  "1/" + "1" * (MAX_DIGITS + 1)],
                         ids=["decimal", "exponent", "plus", "leading-space",
                              "trailing-space", "negative-denominator", "empty",
                              "no-denominator", "hex", "arabic-indic-digit",
                              "long-numerator", "long-denominator"])
def test_ratio_rejects_strings_outside_the_grammar(text):
    with pytest.raises(ValueError):
        ratio(text)


def test_ratio_grammar_edges():
    with pytest.raises(ZeroDivisionError):
        ratio("7/00")
    with pytest.raises(TypeError):
        ratio(True)
    assert ratio("-007/010") == F(-7, 10)
    assert ratio("9" * MAX_DIGITS) == 10 ** MAX_DIGITS - 1


def test_ratio_of_a_string_matches_fraction_seeded():
    """``ratio`` builds the Fraction from its own match; ``Fraction(s)``
    parses the string again, and both must give the same reduced value."""
    rng = random.Random(0)

    def part(low=0):
        return "0" * rng.randrange(3) + str(rng.randrange(low, 10 ** rng.randrange(1, 30)))

    texts = ["0", "-0", "-000", "0/7", "-0/7", "-6/4", "12/18", "-007/010",
             "9" * MAX_DIGITS, "1/" + "7" * MAX_DIGITS,
             "-" + "9" * MAX_DIGITS + "/" + "0" * (MAX_DIGITS - 1) + "6"]
    for _ in range(2000):
        text = "-" * rng.randrange(2) + part()
        texts.append(text + "/" + part(low=1) if rng.randrange(2) else text)
    for text in texts:
        got, want = ratio(text), F(text)
        assert type(got) is F and (got.numerator, got.denominator) == (
            want.numerator, want.denominator), text


# -- differential test of Echelon against plain Gauss-Jordan -------------------


class _GaussJordan:
    """Reference span: dense Fraction rows in reduced row-echelon form, each
    new pivot column cleared from every other row at once."""

    def __init__(self, n):
        self.n = n
        self.rows = []

    @staticmethod
    def _pivot(row):
        return next(k for k, x in enumerate(row) if x)

    def _reduce(self, v):
        w = [F(x) for x in v]
        for row in self.rows:
            c = w[self._pivot(row)]
            if c:
                w = [a - c * b for a, b in zip(w, row)]
        return w

    def contains(self, v):
        return not any(self._reduce(v))

    def add(self, v):
        w = self._reduce(v)
        if not any(w):
            return False
        p = self._pivot(w)
        w = [x / w[p] for x in w]
        self.rows = [[a - r[p] * b for a, b in zip(r, w)] for r in self.rows]
        self.rows.append(w)
        self.rows.sort(key=self._pivot)
        return True

    def pivots(self):
        return tuple(self._pivot(r) for r in self.rows)

    def basis(self):
        return tuple(tuple(r) for r in self.rows)


def _reference_solve(a, b):
    n = len(a[0])
    ref = _GaussJordan(n + 1)
    for row, rhs in zip(a, b):
        ref.add(tuple(row) + (rhs,))
    if n in ref.pivots():
        return None
    x = [F(0)] * n
    for p, row in zip(ref.pivots(), ref.rows):
        x[p] = row[n]
    return tuple(x)


def _random_entry(rng, big):
    num = rng.randint(-10 ** 6, 10 ** 6) if big else rng.randint(-4, 4)
    return F(num, rng.choice((1, 1, 1, 2, 3, 7)))


def _random_vectors(rng, n):
    """A full or rank-deficient list, with denominators, zero vectors and
    repeated (rescaled) vectors mixed in."""
    rank = rng.randint(0, n)
    big = rng.random() < 0.3
    gens = [[_random_entry(rng, big) for _ in range(n)] for _ in range(rank)]
    out = []
    for _ in range(rng.randint(0, n + 3)):
        coeffs = [_random_entry(rng, False) for _ in gens]
        out.append(tuple(sum((c * g[k] for c, g in zip(coeffs, gens)), F(0))
                         for k in range(n)))
    out.extend(tuple(g) for g in gens)
    out.append((F(0),) * n)
    if out:
        out.append(tuple(x * rng.choice((-3, F(1, 2), 5)) for x in rng.choice(out)))
    rng.shuffle(out)
    return out


def test_echelon_matches_gauss_jordan_seeded():
    rng = random.Random(2024)
    for trial in range(300):
        n = rng.randint(1, 7)
        vecs = _random_vectors(rng, n)
        probes = _random_vectors(rng, n) + vecs[:2]
        bases = set()
        for order in range(3):
            if order:
                rng.shuffle(vecs)
            ech, ref = Echelon(n), _GaussJordan(n)
            for v in vecs:
                grew = ech.add(integral(v)[0])
                assert grew == ref.add(v), trial
                assert ech.dim == len(ref.rows)
                assert ech.basis_vectors() == ref.basis(), trial
            sub = ech.to_subspace()
            for p in probes:
                assert sub.contains(p) == ref.contains(p), trial
            assert tuple(ech.piv_cols) == ref.pivots()
            assert sub.basis == ref.basis() and sub.pivots == ref.pivots()
            bases.add(sub.basis)
        assert len(bases) == 1, trial


def test_solve_linear_matches_gauss_jordan_seeded():
    rng = random.Random(77)
    for trial in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = _random_vectors(rng, n)[:m] or [(F(0),) * n]
        if rng.random() < 0.5:
            x = [_random_entry(rng, False) for _ in range(n)]
            b = tuple(sum((r * c for r, c in zip(row, x)), F(0)) for row in rows)
        else:
            b = tuple(_random_entry(rng, False) for _ in rows)
        assert solve_linear(tuple(rows), b) == _reference_solve(rows, b), trial


def test_echelon_full_rank_basis_is_identity():
    ech = Echelon(3)
    for v in [(2, 7, 1), (1, 0, 15), (0, 8, -9)]:
        assert ech.add(v)
    assert ech.is_full() and not ech.add((5, 5, 5))
    assert ech.basis_vectors() == tuple(
        tuple(F(int(i == k)) for k in range(3)) for i in range(3))


def test_full_spans_share_one_identity_basis():
    a, b = Subspace.full(5), Subspace.full(5)
    assert a.basis is b.basis
    assert a.basis == tuple(tuple(F(int(i == k)) for k in range(5)) for i in range(5))
    assert a.pivots == tuple(range(5)) and a.is_full()


def _dense_rows(ech):
    """The integer rows of ``ech`` with the pivot entries filled in."""
    out = []
    for i, pc in enumerate(ech.piv_cols):
        row = [0] * ech.ambient
        row[pc] = ech.den
        for k, x in zip(ech.free, ech.rows[i]):
            row[k] = x
        out.append(row)
    return out


def _abs_det(m):
    m = [[F(x) for x in row] for row in m]
    det = F(1)
    for i in range(len(m)):
        p = next((r for r in range(i, len(m)) if m[r][i]), None)
        if p is None:
            return 0
        m[i], m[p] = m[p], m[i]
        det *= m[i][i]
        for r in range(i + 1, len(m)):
            f = m[r][i] / m[i][i]
            m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    return abs(det)


def _primitive(v):
    den = 1
    for x in v:
        den = den * F(x).denominator // gcd(den, F(x).denominator)
    w = [int(F(x) * den) for x in v]
    g = gcd(*w)
    return [x // g for x in w] if g else w


def _assert_gauss_jordan(ech, grown):
    rows = _dense_rows(ech)
    assert sorted(ech.piv_cols) == ech.piv_cols
    assert sorted(ech.free + ech.piv_cols) == list(range(ech.ambient))
    for row, pc in zip(rows, ech.piv_cols):
        assert all(type(x) is int for x in row)
        assert row[pc] == ech.den > 0
        assert not any(row[:pc])
        assert not any(row[other] for other in ech.piv_cols if other != pc)
    if ech.sylvester:
        # Catches a // that silently floors in the Sylvester update.
        assert ech.den == _abs_det([[w[pc] for pc in ech.piv_cols] for w in grown])
    else:
        # den is the least common denominator of the reduced basis.
        assert gcd(ech.den, *(x for row in rows for x in row)) == 1
    return ech.sylvester


def test_echelon_rows_are_fraction_free_gauss_jordan():
    ech = Echelon(3)
    ech.add((6, 4, 0))
    assert _assert_gauss_jordan(ech, [[3, 2, 0]])
    assert _dense_rows(ech) == [[3, 2, 0]] and ech.den == 3
    ech.add((0, -6, 9))
    # The determinant 6 shares the factor 3 with every row: it is divided out.
    assert not _assert_gauss_jordan(ech, [[3, 2, 0], [0, -2, 3]])
    assert _dense_rows(ech) == [[2, 0, 2], [0, 2, -3]] and ech.den == 2
    assert ech.basis_vectors() == ((F(1), F(0), F(1)), (F(0), F(1), F(-3, 2)))
    rng = random.Random(6)
    forms = []
    for trial in range(200):
        if trial % 2:
            n = rng.randint(1, 7)
            vecs = _random_vectors(rng, n)
        else:
            n = rng.randint(3, 8)
            # Large combinations of a small basis, then unit vectors: the
            # determinant outgrows the reduced basis, and later growth runs
            # on the least common denominator.
            small = [[rng.randint(-2, 2) for _ in range(n)]
                     for _ in range(rng.randint(1, n - 2))]
            vecs = []
            for _ in range(len(small) + 1):
                coeffs = [rng.randint(-10 ** 4, 10 ** 4) for _ in small]
                vecs.append([sum(c * b[k] for c, b in zip(coeffs, small))
                             for k in range(n)])
            vecs += [[int(k == t) for k in range(n)] for t in range(n)]
        ech, grown = Echelon(n), []
        for v in vecs:
            grew = ech.add(integral(v)[0])
            if grew:
                grown.append(_primitive(v))
            forms.append((_assert_gauss_jordan(ech, grown),
                          grew and not ech.is_full()))
    assert forms.count((True, True)) > 200 and forms.count((False, True)) > 100


# -- the mod-p accumulator -------------------------------------------------------


def test_echelon_mod_p_rank_matches_echelon_seeded():
    rng = random.Random(61)
    p = 2**61 - 1
    for trial in range(200):
        n = rng.randint(1, 8)
        # Dependent rows (sums of earlier ones) and huge entries mixed in.
        rows = []
        for _ in range(rng.randint(0, n + 2)):
            if rows and rng.random() < 0.3:
                row = tuple(sum(c) for c in zip(*rng.sample(rows, min(2, len(rows)))))
            else:
                big = 10**30 if rng.random() < 0.2 else 5
                row = tuple(rng.randint(-big, big) if rng.random() < 0.6 else 0
                            for _ in range(n))
            rows.append(row)
        exact, modp = Echelon(n), EchelonModP(n, p)
        for row in rows:
            assert modp.add(row) == exact.add(row), trial
        assert modp.dim == exact.dim and modp.is_full() == exact.is_full(), trial
        for q, row in modp.unpacked_rows():
            assert row[q] == 1 and all(0 <= x < p for x in row)
            assert not any(row[:q]), trial


def test_echelon_mod_p_rank_drops_on_a_matrix_singular_mod_p():
    rows = [(1, 1, 0), (1, -1, 0), (0, 0, 3)]  # determinant -6
    exact = Echelon(3)
    assert all(exact.add(r) for r in rows)
    for p, want in [(2, 2), (3, 2), (5, 3)]:
        ech = EchelonModP(3, p)
        assert [ech.add(r) for r in rows].count(True) == want, p
        assert ech.is_full() == (want == 3)


def test_echelon_mod_p_edges():
    assert EchelonModP(0, 7).is_full()
    ech = EchelonModP(2, 7)
    assert not ech.add((0, 14)) and ech.dim == 0
    with pytest.raises(DimensionMismatchError):
        ech.add((1, 2, 3))


def test_echelon_mod_p_coordinates_combine_to_every_non_growth():
    rng = random.Random(67)
    non_growths = 0
    for trial in range(150):
        p = (5, 7, 2**61 - 1, MODULUS)[trial % 4]
        n = rng.randint(1, 9)
        ech, grown = EchelonModP(n, p, coordinates=True), []
        for _ in range(rng.randint(1, 2 * n + 2)):
            if grown and rng.random() < 0.5:
                # A combination of earlier growth vectors, or a vector that
                # only agrees with one mod p.
                v = [sum(rng.randint(-3, 3) * s[k] for s in grown) for k in range(n)]
                if rng.random() < 0.3:
                    v[rng.randrange(n)] += p
            else:
                v = [rng.randint(-10**20, 10**20) if rng.random() < 0.6 else 0
                     for _ in range(n)]
            solved = ech.solve(v)
            x = ech.insert(v)
            assert solved == x, trial
            if x is None:
                grown.append(v)
                continue
            non_growths += 1
            assert len(x) == len(grown) and all(0 <= c < p for c in x), trial
            assert all((sum(c * s[k] for c, s in zip(x, grown)) - v[k]) % p == 0
                       for k in range(n)), trial
        assert ech.dim == len(grown), trial
    assert non_growths >= 200, non_growths


def test_echelon_mod_p_zero_test_reads_every_slot():
    # With X = 2^(slot width), the vector (-X mod p, 1) packs to a multiple
    # of p, but its second entry is 1: it must grow the span. The zero test
    # sees this only because it also bounds every slot of the quotient by p.
    for p in (2, 3, 5, 7, 2**61 - 1):
        for n in range(2, 6):
            ech = EchelonModP(n, p)
            x = 1 << 8 * ech.nbytes
            assert ech.add([-x % p, 1] + [0] * (n - 2)), (p, n)
            assert ech.add([0, 0] + [1] * (n - 2)) == (n > 2), (p, n)


def test_echelon_mod_p_slots_never_carry_at_ambient_1024():
    # Row i is 1 at i and p - 1 right of it. Reducing v with v_k = 1 - k
    # (mod p) against all 1024 rows takes coefficient 1 from every row, so
    # each of the 1023 updates adds (p - 1)^2 to every later slot: the last
    # slot reaches 1023 * (p - 1)^2 + p, the worst case the slot width is
    # sized for. A carry into a neighbour would break the zero residual or
    # the coordinates. The coordinates of (-1, ..., -1) are -2^k.
    n = 1024
    for p in (2**61 - 1, MODULUS):
        ech = EchelonModP(n, p, coordinates=True)
        for i in range(n):
            assert ech.add([0] * i + [1] + [p - 1] * (n - i - 1))
        assert ech.is_full()
        assert ech.solve([(1 - k) % p for k in range(n)]) == [1] * n
        assert ech.solve([p - 1] * n) == [-pow(2, k, p) % p for k in range(n)]
        assert all(q == i and row[i] == 1
                   for i, (q, row) in enumerate(ech.unpacked_rows()))


# -- folding packed slots ---------------------------------------------------------

# A prime near 2^61 that is not Mersenne: delta = 2^62 - p is about 2^61,
# the largest delta relative to 2^e that a prime can have.
_NEAR_2_61 = next(q for q in range(2**61 + 1, 2**61 + 10**4, 2) if is_prime(q))
_FOLD_PRIMES = (2, 3, 5, 7, 31, 2**31 - 1, 2**61 - 1, _NEAR_2_61)


def _pack(slots, nb):
    return int.from_bytes(b"".join(x.to_bytes(nb, "little") for x in slots), "little")


def _unpack(w, nb, width):
    b = w.to_bytes(nb * width, "little")
    return [int.from_bytes(b[i:i + nb], "little") for i in range(0, nb * width, nb)]


def _residual_slots(rng, p, n, width):
    """Slots below the residual bound (n + 1) * p^2, mixing its edge values,
    small residues and values anywhere below it."""
    edges = (0, p - 1, p, (1 << p.bit_length()) - 1, (n + 1) * p * p - 1)
    out = []
    for _ in range(width):
        r = rng.random()
        out.append(rng.choice(edges) if r < 0.3 else rng.randrange(p) if r < 0.5
                   else rng.randrange((n + 1) * p * p))
    return out


def test_echelon_mod_p_fold_matches_per_slot_reduction():
    rng = random.Random(71)
    for p in _FOLD_PRIMES:
        edges = (0, p - 1, p, (1 << p.bit_length()) - 1)
        for n in (1, 36, 1024):
            for coordinates in (False, True):
                ech = EchelonModP(n, p, coordinates)
                nb, width = ech.nbytes, 2 * n if coordinates else n
                cases = [[x] * width for x in edges + ((n + 1) * p * p - 1,)]
                cases += [_residual_slots(rng, p, n, width)
                          for _ in range(2 if n == 1024 else 20)]
                for slots in cases:
                    folded = _unpack(ech._fold(_pack(slots, nb)), nb, width)
                    assert folded == [x % p for x in slots], (p, n, coordinates)


def test_echelon_mod_p_grown_row_matches_per_slot_reference():
    # A residual is grown on an echelon holding k unit rows at the right
    # end, so that with coordinates it has n + k + 1 slots; the row must be
    # the per-slot residues times the inverse of the first nonzero entry,
    # with its nonzero entry and coordinate slots as right and spread.
    rng = random.Random(73)
    for p in _FOLD_PRIMES:
        for n in (1, 36, 1024):
            for coordinates in (False, True):
                for _ in range(2 if n == 1024 else 8):
                    k = rng.randrange(min(n, 40))
                    ech = EchelonModP(n, p, coordinates)
                    for i in range(k):
                        assert ech.add([0] * (n - 1 - i) + [1] + [0] * i)
                    nb, width = ech.nbytes, n + k + 1 if coordinates else n
                    slots = _residual_slots(rng, p, n, width)
                    if not any(x % p for x in slots[:n - k]):
                        slots[rng.randrange(n - k)] = 1
                    res = [x % p for x in slots]
                    q = next(j for j in range(n) if res[j])
                    inv = pow(res[q], -1, p)
                    want = [x * inv % p for x in res]
                    ech._grow(_pack(slots, nb))
                    row = _unpack(ech.rows[q], nb, width)
                    assert ech.pivots[-1] == q and ech.pivot_bits >> q & 1
                    assert row == want and row[q] == 1, (p, n, coordinates, k)
                    assert ech.right[q] == sum(1 << j for j in range(n)
                                               if want[j] and j != q)
                    assert ech.spread[q] == sum(1 << j for j, x in enumerate(want[n:])
                                                if x)


class _CountedDelta(int):
    """A fold's delta that counts the rounds that multiply by it."""

    rounds = 0

    def __mul__(self, other):
        type(self).rounds += 1
        return int(self) * other


def test_modulus_is_a_prime_below_2_30_and_folds_a_worst_residual_in_three_rounds():
    # Below 2^30 a residue is one digit of a CPython int, and a slot at
    # ambient 1024 takes 9 bytes. Every growth folds twice; a prime with a
    # large delta, or a small one, would make each fold take many more rounds.
    p, n = MODULUS, 1024
    assert is_prime(p) and p < 2**30 and p.bit_length() == 30
    ech = EchelonModP(n, p, coordinates=True)
    assert ech.delta == 2**30 - p < 64 and ech.nbytes == 9
    ech.delta = _CountedDelta(ech.delta)
    rng = random.Random(79)
    worst = (n + 1) * p * p - 1
    for slots in ([worst] * 2 * n, [worst - rng.randrange(p * p) for _ in range(2 * n)],
                  _residual_slots(rng, p, n, 2 * n)):
        _CountedDelta.rounds = 0
        folded = _unpack(ech._fold(_pack(slots, ech.nbytes)), ech.nbytes, 2 * n)
        assert folded == [x % p for x in slots]
        assert 1 <= _CountedDelta.rounds <= 3, _CountedDelta.rounds
