import itertools
import random
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstructor import closure, obstruction
from obstructor.algebra import (
    DMatrix,
    make_algebra,
    matrix_algebra,
    matrix_rule,
    matrix_unit,
    quaternion_algebra,
    quaternion_for_prime,
    rationals,
    rule_product,
    split_model,
)
from obstructor.closure import (
    generates_fully,
    stabilized_word_span,
    subrng_closure,
)
from obstructor.errors import AlgebraValidationError
from obstructor.linalg import Echelon, EchelonModP, Subspace, echelonize, primitive
from obstructor.obstruction import ObstructionGraph, loop_oracle, path_span_table
from obstructor.witness import build_r3_graph, build_r4_graph, shift_witness


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
                loops.append(val.coeffs)
            literal = echelonize(loops, ambient_dim=g.hom_ambient(v, v))
            assert loop_oracle(g, v, L) == literal, (trial, L)


# -- the engine's final-dimension caps against the plain engine -------------------


def _plain_fixed_point(cells, seeds, rule, counter):
    """The engine with no caps but fullness: the reference the caps must not
    change. ``counter[0]`` counts the products it evaluates."""
    ech, spanning = {}, {}
    for cell, ambient in cells.items():
        ech[cell] = target = Echelon(ambient)
        spanning[cell] = [s for s in map(primitive, seeds.get(cell, ())) if target.add(s)]
    triples = [(a, c, b) for (a, c) in cells for (c2, b) in cells
               if c2 == c and (a, b) in cells]
    marks, rounds, changed = {}, 0, True
    while changed:
        changed = False
        for a, c, b in triples:
            us, vs = spanning[(a, c)], spanning[(c, b)]
            n1, n2 = len(us), len(vs)
            m1, m2 = marks.get((a, c, b), (0, 0))
            if n1 == m1 and n2 == m2:
                continue
            marks[(a, c, b)] = (n1, n2)
            target = ech[(a, b)]
            if target.is_full() or not n1 or not n2:
                continue
            r = rule(a, c, b)
            for x in range(n1):
                for y in range(m2 if x < m1 else 0, n2):
                    counter[0] += 1
                    prod = rule_product(r, us[x], vs[y], target.ambient)
                    if target.add(prod):
                        spanning[(a, b)].append(primitive(prod))
                        changed = True
                        if target.is_full():
                            break
                if target.is_full():
                    break
        rounds += changed
    return ech, rounds


def _random_edge(base, rng, rows, cols, dense):
    """Dense: every coefficient in -2..2. Sparse: a few entries, each a small
    multiple of one basis element, which often keeps the spans partial."""
    if dense:
        return DMatrix.from_entries(base, [[_random_gens(base, rng, 1, bound=2)[0]
                                            for _ in range(cols)] for _ in range(rows)])
    entries = [[base.zero() for _ in range(cols)] for _ in range(rows)]
    for _ in range(rng.randint(1, 2)):
        t = 0 if rng.random() < 0.6 else rng.randrange(base.dim)
        entries[rng.randrange(rows)][rng.randrange(cols)] = \
            base.basis_element(t) * rng.choice((-2, -1, 1, 2))
    return DMatrix.from_entries(base, entries)


def test_caps_keep_spans_and_rounds_of_the_plain_engine(monkeypatch):
    fired, below, products = [], [], [0]
    real_spin, real_product = closure.spin, closure.rule_product

    def watched_spin(cells, seeds, letters, rule, max_len=None, modulus=None):
        out = real_spin(cells, seeds, letters, rule, max_len, modulus)
        fired.append(True)
        below.append(any(len(seeds[c]) < e.dim for c, e in out[0].items()))
        return out

    def counted_product(*args):
        products[0] += 1
        return real_product(*args)

    monkeypatch.setattr(closure, "spin", watched_spin)
    monkeypatch.setattr(closure, "rule_product", counted_product)
    rng = random.Random(41)
    bases = [quaternion_for_prime(p) for p in (2, 3, 5)]
    plain = [0]
    cases = 0
    for trial in range(240):
        base = bases[trial % 3]
        r = 2 + trial % 3
        sizes = [rng.randint(1, 3 if r < 4 else 2) for _ in range(r)]
        dense = trial % 4 == 0
        edges = {(i, j): _random_edge(base, rng, sizes[j - 1], sizes[i - 1], dense)
                 for i in range(1, r + 1) for j in range(i + 1, r + 1)
                 if rng.random() < 0.7}
        g = ObstructionGraph(base, sizes, edges)
        cells = {(a, b): g.hom_ambient(a, b) for a in range(1, r + 1)
                 for b in range(1, r + 1)}
        seeds = {(a, b): [g.hom_map(a, b).coeffs] for (a, b) in cells if a != b}
        ech, rounds = _plain_fixed_point(cells, seeds, lambda a, c, b: matrix_rule(
            base, sizes[a - 1], sizes[c - 1], sizes[b - 1]), plain)
        table = path_span_table(g)
        assert table.rounds == rounds, trial
        assert table.spans == {k: e.to_subspace() for k, e in ech.items()}, trial
        cases += 1
    for trial in range(80):
        base = bases[trial % 3]
        if trial % 4 == 3:
            alg = base
            gens = [_rational_element(base, rng, 0.3) for _ in range(1 + trial % 3)]
        else:
            alg = matrix_algebra(base, 2)
            gens = [alg.element(_random_edge(base, rng, 2, 2, trial % 8 == 0).coeffs)
                    for _ in range(2 + trial % 3)]
        ech, rounds = _plain_fixed_point({(0, 0): alg.dim}, {(0, 0): [x.coeffs for x in gens]},
                                         lambda a, c, b: alg.rule, plain)
        res = subrng_closure(alg, gens, allow_empty=True)
        assert (res.span, res.rounds) == (ech[(0, 0)].to_subspace(), rounds), trial
        cases += 1
    assert cases >= 300
    # The spin fires, before the engine reaches the final spans, on a good
    # share of the inputs, and the caps save products overall.
    assert sum(below) >= 60, (len(fired), sum(below))
    assert products[0] < plain[0] / 2, (products[0], plain[0])


def test_whole_table_spin_matches_the_engine_from_any_partial_start():
    # The caps rest on this: from any spans between the seeds and the
    # closure, stepping on the left by the edges reaches the closure.
    rng = random.Random(47)
    bases = [quaternion_for_prime(p) for p in (2, 3, 5)]
    partial = 0
    for trial in range(120):
        base = bases[trial % 3]
        r = 2 + trial % 3
        sizes = [rng.randint(1, 3 if r < 4 else 2) for _ in range(r)]
        edges = {(i, j): _random_edge(base, rng, sizes[j - 1], sizes[i - 1],
                                      trial % 4 == 0)
                 for i in range(1, r + 1) for j in range(i + 1, r + 1)
                 if rng.random() < 0.7}
        g = ObstructionGraph(base, sizes, edges)
        want = path_span_table(g).spans
        cells, seeds, rule = obstruction._table(g)
        ech, _ = closure.spin(cells, seeds, seeds, rule)
        assert {k: e.to_subspace() for k, e in ech.items()} == want, trial
        start = {k: [*seeds.get(k, ()), *want[k].basis[:rng.randint(1, 3)]]
                 for k in cells}
        ech, _ = closure.spin(cells, start, seeds, rule)
        assert {k: e.to_subspace() for k, e in ech.items()} == want, trial
        partial += any(0 < echelonize(vs, ambient_dim=cells[k]).dim < want[k].dim
                       for k, vs in start.items())
    # 60 of the 120 starts lie strictly between the seeds and the closure.
    assert partial >= 50, partial


def _block_graph(g, size):
    """``g`` with every vertex padded by zero rows and columns to ``size``:
    its spans stay in the top-left blocks, so they are partial."""
    d = g.base.dim

    def pad(m):
        return DMatrix.from_flat(g.base, size, size, [
            m.coeffs[((r * m.cols + c) * d) + t] if r < m.rows and c < m.cols else 0
            for r in range(size) for c in range(size) for t in range(d)])

    return ObstructionGraph(g.base, [size] * g.r,
                            {k: pad(m) for k, m in g.edges.items()})


def test_caps_stay_silent_on_full_tables_and_cut_a_block_table(monkeypatch):
    graphs = {"r3": build_r3_graph(3, 2, seed=0), "r4": build_r4_graph(3, 5, seed=0),
              "block": _block_graph(build_r3_graph(2, 2, seed=0), 3)}
    real_product = closure.rule_product
    products = [0]

    def counted_product(*args):
        products[0] += 1
        return real_product(*args)

    monkeypatch.setattr(closure, "rule_product", counted_product)
    counts = {}
    for name, g in graphs.items():
        products[0] = 0
        path_span_table(g)
        counts[name] = products[0]
    # 446 and 733 are the plain engine's counts on the full tables; the
    # block table took 6912 products without the caps.
    assert counts["r3"] == 446 and counts["r4"] == 733, counts
    assert counts["block"] < 1000, counts
    assert path_span_table(graphs["block"]).spans[(1, 1)].dim == 16


# -- the caps' final table, guessed mod p and proven, against the exact spin --------


def test_the_proven_closure_matches_the_exact_spin_seeded():
    rng = random.Random(61)
    D2, split = quaternion_for_prime(2), split_model(2)
    custom = _rescaled(matrix_algebra(rationals(), 2), [F(1, 2), 3, F(2, 5), 1])
    proven = fallback = between = 0
    for trial in range(80):
        base = (D2, rationals(), split, custom)[trial % 4]
        r = 2 + trial % 2
        sizes = [rng.randint(1, 2 if base is split else 3) for _ in range(r)]
        edges = {(i, j): _random_edge(base, rng, sizes[j - 1], sizes[i - 1],
                                      trial % 3 == 0)
                 for i in range(1, r + 1) for j in range(i + 1, r + 1)
                 if rng.random() < 0.8}
        cells, seeds, rule = obstruction._table(ObstructionGraph(base, sizes, edges))
        letters = {k: [primitive(v) for v in seeds.get(k, ())] for k in cells}
        ech, _ = closure.spin(cells, seeds, letters, rule)
        want = {k: e.to_subspace() for k, e in ech.items()}
        # From the seeds, and from spans strictly between them and the closure.
        start = {k: [*seeds.get(k, ()), *want[k].basis[:rng.randint(1, 3)]]
                 for k in cells}
        for spans in (seeds, start):
            got = closure._proven_closure(cells, spans, letters, rule)
            if got is None:
                fallback += 1
                continue
            assert got == want, trial
            proven += 1
            between += spans is start and any(
                0 < echelonize(vs, ambient_dim=cells[k]).dim < want[k].dim
                for k, vs in start.items())
    # Most guesses are proven; a few have entries beyond one prime's reach.
    assert proven >= 120 and between >= 15 and fallback >= 1, (proven, between, fallback)


def test_every_branch_of_the_proven_closure_keeps_spans_and_rounds(monkeypatch):
    # Mod 5 only 0 and +-1 reconstruct and the prime misses dimensions, so
    # every way a guess can fail occurs, and the exact spin decides there.
    seen = dict.fromkeys(("no reconstruction", "seed outside", "maps out", "full cell",
                          "proven", "fallback"), 0)
    letter_ids = set()
    real_proven, real_guess, real_outside = (closure._proven_closure, closure._guess,
                                             closure._outside)

    def proven(cells, spans, letters, rule):
        letter_ids.clear()
        letter_ids.update(id(x) for xs in letters.values() for x in xs)
        out = real_proven(cells, spans, letters, rule)
        seen["fallback" if out is None else "proven"] += 1
        seen["full cell"] += out is not None and any(s.is_full() for s in out.values())
        return out

    def guess(span):
        out = real_guess(span)
        seen["no reconstruction"] += out is None
        return out

    def outside(v, den, basis):
        out = real_outside(v, den, basis)
        if out:
            seen["seed outside" if id(v) in letter_ids else "maps out"] += 1
        return out

    monkeypatch.setattr(closure, "MODULUS", 5)
    monkeypatch.setattr(closure, "_proven_closure", proven)
    monkeypatch.setattr(closure, "_guess", guess)
    monkeypatch.setattr(closure, "_outside", outside)
    rng = random.Random(67)
    Q = rationals()

    def congruent_edge(rows, cols):
        # Entries 4, -4 and 6 are +-1 mod 5: a guess that reconstructs them
        # as +-1 is wrong, and a seed can fall outside it.
        return DMatrix.from_entries(Q, [[Q.element((rng.choice((0, 1, 4, -4, 6)),))
                                         for _ in range(cols)] for _ in range(rows)])

    bases = [quaternion_for_prime(p) for p in (2, 3, 5)] + [Q]
    for trial in range(80):
        base = bases[trial % 4]
        r = 2 + trial % 3
        sizes = [rng.randint(1, 3 if r < 4 else 2) for _ in range(r)]
        edges = {(i, j): congruent_edge(sizes[j - 1], sizes[i - 1]) if base is Q else
                 _random_edge(base, rng, sizes[j - 1], sizes[i - 1], trial % 4 == 0)
                 for i in range(1, r + 1) for j in range(i + 1, r + 1)
                 if rng.random() < 0.7}
        cells, seeds, rule = obstruction._table(ObstructionGraph(base, sizes, edges))
        ech, rounds = _plain_fixed_point(cells, seeds, rule, [0])
        spans, got_rounds = closure.fixed_point(cells, seeds, rule)
        assert got_rounds == rounds, trial
        assert spans == {k: e.to_subspace() for k, e in ech.items()}, trial
    assert all(seen.values()), seen


def _one_edge_graph(n):
    """Two size-n vertices over D_2 and one edge, its coefficients from
    random.Random(0) in -2..2, row by row."""
    base, rng = quaternion_for_prime(2), random.Random(0)
    entries = [[base.element(tuple(rng.randint(-2, 2) for _ in range(4)))
                for _ in range(n)] for _ in range(n)]
    return ObstructionGraph(base, [n, n], {(1, 2): DMatrix.from_entries(base, entries)})


def test_the_caps_prove_block_tables_with_no_exact_echelon(monkeypatch):
    spins, adds = [], [0]
    real_spin, real_add = closure.spin, Echelon.add

    def watched_spin(cells, seeds, letters, rule, max_len=None, modulus=None):
        spins.append(modulus)
        return real_spin(cells, seeds, letters, rule, max_len, modulus)

    def counted_add(self, w):
        adds[0] += 1
        return real_add(self, w)

    monkeypatch.setattr(closure, "spin", watched_spin)
    monkeypatch.setattr(Echelon, "add", counted_add)
    for g, size in ((2, 3), (3, 5)):
        graph = _block_graph(build_r3_graph(g, 2, seed=0), size)
        spins.clear()
        adds[0] = 0
        table = path_span_table(graph)
        assert table.spans[(1, 1)].dim == 4 * g * g
        assert spins == [closure.MODULUS] and adds[0] == 0, (g, spins, adds)
    # The loop span of a one-edge [4, 4] table has RREF entries beyond one
    # prime's reach: the guess fails, and the exact spin decides.
    graph = _one_edge_graph(4)
    ech, rounds = _plain_fixed_point(*obstruction._table(graph), [0])
    spins.clear()
    table = path_span_table(graph)
    assert spins == [closure.MODULUS, None]
    assert table.rounds == rounds
    assert table.spans == {k: e.to_subspace() for k, e in ech.items()}


# -- the mod-p fullness certificate against the exact path -----------------------


def _sparse_element(alg, rng, terms):
    """A sum of a few small multiples of basis elements."""
    coeffs = [0] * alg.dim
    for _ in range(terms):
        coeffs[rng.randrange(alg.dim)] = rng.choice((-2, -1, 1, 2))
    return alg.element(tuple(coeffs))


def test_certificate_agrees_with_the_exact_path_seeded(monkeypatch):
    exact_closure = closure.subrng_closure
    exact_table = obstruction.path_span_table
    fallbacks = [0]

    def counted(real):
        def run(*args, **kwargs):
            fallbacks[0] += 1
            return real(*args, **kwargs)
        return run

    monkeypatch.setattr(closure, "subrng_closure", counted(exact_closure))
    monkeypatch.setattr(obstruction, "path_span_table", counted(exact_table))
    rng = random.Random(43)
    D2, D3 = quaternion_for_prime(2), quaternion_for_prime(3)
    # Constants with denominators: the certificate holds for any scale.
    half = quaternion_algebra(F(-1, 2), -3)
    m2q = _rescaled(matrix_algebra(rationals(), 2), [F(1, 2), 3, F(2, 5), 1])
    arenas = [D2, D3, matrix_algebra(D2, 2), matrix_algebra(D3, 2), split_model(2),
              m2q]
    full = 0
    for trial in range(300):
        alg = arenas[trial % len(arenas)]
        gens = [_sparse_element(alg, rng, rng.randint(1, 4))
                for _ in range(1 + trial % 3)]
        if trial % 4 == 0:
            gens = [gens[0], gens[0].dagger()]
        want = exact_closure(alg, gens, allow_empty=True).span.is_full()
        fallbacks[0] = 0
        assert generates_fully(alg, gens) == want, trial
        # A full span is certified mod p; a partial one runs the exact path.
        assert fallbacks[0] == (not want), trial
        full += want
    assert 60 <= full <= 240, full  # 100 of the 300 closures are full
    cells = full_cells = 0
    for trial in range(90):
        base = (D2, D3, half)[trial // 3 % 3]
        r = 2 + trial % 3
        sizes = [rng.randint(1, 3 if r < 4 else 2) for _ in range(r)]
        edges = {(i, j): _random_edge(base, rng, sizes[j - 1], sizes[i - 1],
                                      trial % 4 != 3)
                 for i in range(1, r + 1) for j in range(i + 1, r + 1)
                 if rng.random() < 0.7}
        want = exact_table(ObstructionGraph(base, sizes, edges)).spans
        for v in range(1, r + 1):
            fallbacks[0] = 0
            span = obstruction.compute_obstruction(
                ObstructionGraph(base, sizes, edges), v)
            assert span == want[(v, v)], (trial, v)
            assert fallbacks[0] == (not span.is_full()), (trial, v)
            cells += 1
            full_cells += span.is_full()
    # Both branches are well exercised: 81 of the 270 loop cells are full.
    assert cells == 270 and 50 <= full_cells <= 220, full_cells


def test_a_prime_that_misses_a_full_span_falls_back(monkeypatch):
    # Mod 2 neither the generator pair of the r3 graph at g = 2 nor its loop
    # cell at vertex 1 is full (7 and 8 of 16), though both are full over Q.
    g = build_r3_graph(2, 2, seed=0)
    end_alg = matrix_algebra(g.base, 2)
    x = g.edges[(1, 2)]
    gens = [end_alg.element(x.coeffs),
            end_alg.element(x.dagger_transpose().coeffs)]
    calls = []

    def spy(real):
        def run(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return run

    monkeypatch.setattr(closure, "MODULUS", 2)
    monkeypatch.setattr(closure, "subrng_closure", spy(closure.subrng_closure))
    monkeypatch.setattr(obstruction, "path_span_table",
                        spy(obstruction.path_span_table))
    assert generates_fully(end_alg, gens)
    span = obstruction.compute_obstruction(g, 1)
    assert calls == ["subrng_closure", "path_span_table"]
    assert span == Subspace.full(16)
    assert span.basis == tuple(tuple(F(int(i == k)) for k in range(16))
                               for i in range(16))


# -- the certified mod-p trajectory of the engine against the plain engine --------


def test_every_certification_path_keeps_spans_and_rounds(monkeypatch):
    # Mod 5 the coordinates of a non-growth rarely reconstruct, and the prime
    # misses growths, so the p-adic lift, the exact fallback and the
    # demotion all fire; every decision must still be the exact one.
    calls = {"lift": 0, "lifted": 0, "exact": 0, "demoted": 0}
    real_lift, real_exact = closure._Cell._lift, closure._Cell._exact

    def lift(cell, s, x):
        out = real_lift(cell, s, x)
        calls["lift"] += 1
        calls["lifted"] += out
        return out

    def exact(cell, s):
        was = cell.modp is not None
        out = real_exact(cell, s)
        calls["exact"] += was
        calls["demoted"] += was and out
        return out

    monkeypatch.setattr(closure, "MODULUS", 5)
    monkeypatch.setattr(closure._Cell, "_lift", lift)
    monkeypatch.setattr(closure._Cell, "_exact", exact)
    rng = random.Random(53)
    bases = [quaternion_for_prime(p) for p in (2, 3, 5)]
    for trial in range(40):
        base = bases[trial % 3]
        r = 2 + trial % 3
        sizes = [rng.randint(1, 3 if r < 4 else 2) for _ in range(r)]
        edges = {(i, j): _random_edge(base, rng, sizes[j - 1], sizes[i - 1],
                                      trial % 4 == 0)
                 for i in range(1, r + 1) for j in range(i + 1, r + 1)
                 if rng.random() < 0.7}
        g = ObstructionGraph(base, sizes, edges)
        cells, seeds, rule = obstruction._table(g)
        ech, rounds = _plain_fixed_point(cells, seeds, rule, [0])
        table = path_span_table(g)
        assert table.rounds == rounds, trial
        assert table.spans == {k: e.to_subspace() for k, e in ech.items()}, trial
    for trial in range(30):
        base = bases[trial % 3]
        alg = matrix_algebra(base, 2) if trial % 2 else split_model(2)
        gens = [alg.element(tuple(rng.choice((-2, -1, 0, 0, 1, 2))
                                  for _ in range(alg.dim)))
                for _ in range(1 + trial % 2)]
        ech, rounds = _plain_fixed_point({(0, 0): alg.dim},
                                         {(0, 0): [x.coeffs for x in gens]},
                                         lambda a, c, b: alg.rule, [0])
        res = subrng_closure(alg, gens, allow_empty=True)
        assert (res.span, res.rounds) == (ech[(0, 0)].to_subspace(), rounds), trial
    assert calls["lifted"] >= 1 and calls["lift"] > calls["lifted"], calls
    assert calls["exact"] > calls["demoted"] >= 1, calls


@pytest.mark.parametrize("m", [10007, 101 ** 2])
def test_rational_reconstruction_matches_a_brute_force_search(m):
    # Every residue, at a prime and at a p^2 modulus, as _Cell._lift uses
    # both: n/d with n = d*x (mod m) and |n|, d <= bound is unique when it
    # exists, since 2 * bound^2 < m.
    bound = isqrt(m // 2)
    assert 2 * bound * bound < m
    for x in range(m):
        want = None
        for d in range(1, bound + 1):
            n = d * x % m
            n = n - m if n > m // 2 else n
            if abs(n) <= bound:
                want = F(n, d)
                break
        got = closure._rational(x, m, bound)
        if got is not None:
            n, d = got
            assert abs(n) <= bound and 0 < d <= bound and (n - d * x) % m == 0, x
            got = F(n, d)
        assert got == want, x


def test_full_tables_certify_every_non_growth_mod_p(monkeypatch):
    # On a full table every non-growth is certified from its coordinates
    # mod p or a p-adic lift, so the exact echelon never runs: a silent fall back
    # to the exact path fails here rather than only slowing the benchmark.
    exact_adds, claims = [0], [0]
    real_add, real_insert = Echelon.add, closure.EchelonModP.insert

    def counted_add(self, v):
        exact_adds[0] += 1
        return real_add(self, v)

    def counted_insert(self, v):
        out = real_insert(self, v)
        claims[0] += out is not None
        return out

    monkeypatch.setattr(Echelon, "add", counted_add)
    monkeypatch.setattr(closure.EchelonModP, "insert", counted_insert)
    table = path_span_table(build_r4_graph(3, 5, seed=0))
    assert all(s.is_full() for s in table.spans.values())
    assert exact_adds[0] == 0 and claims[0] >= 100, (exact_adds, claims)


def test_a_full_cell_keeps_neither_echelon(monkeypatch):
    cell = closure._Cell(3, closure.MODULUS)
    assert cell.add((1, 2, 3)) and cell.add((0, 1, 0)) and not cell.add((2, 4, 6))
    assert cell.modp is not None and cell.exact is not None
    assert cell.add((0, 0, 5))
    assert cell.modp is None and cell.exact is None
    assert not cell.add((1, 1, 1)) and cell.dim == 3
    assert cell.span() == Subspace.full(3)
    # In the engine: every cell of a full table drops both echelons, and
    # every cell of a block table is partial and keeps them.
    seen = []
    real_span = closure._Cell.span

    def span(cell, final=None):
        seen.append(cell)
        return real_span(cell, final)

    monkeypatch.setattr(closure._Cell, "span", span)
    table = path_span_table(build_r3_graph(3, 2, seed=0))
    assert all(s == Subspace.full(36) for s in table.spans.values())
    assert len(seen) == 9 and all(c.modp is c.exact is None for c in seen)
    seen.clear()
    table = path_span_table(_block_graph(build_r3_graph(2, 2, seed=0), 3))
    assert table.spans[(1, 1)].dim == 16
    assert len(seen) == 9 and all(c.dim < c.ambient and c.modp is not None
                                  for c in seen)


def test_the_lift_certifies_a_non_growth_on_its_third_digit(monkeypatch):
    # s = (n/d) * (d, 0, 0) + (0, 1, 0) with d = 3^30 ~ 2^47.5 and n ~ 2^50:
    # its coordinates reconstruct mod p^4 ~ 2^120, not mod p^3 ~ 2^90.
    p = closure.MODULUS
    tried, exact = [], []
    real_combines = closure._combines

    def combines(s, grown, x, m):
        out = real_combines(s, grown, x, m)
        tried.append((m, out))
        return out

    monkeypatch.setattr(closure, "_combines", combines)
    monkeypatch.setattr(closure._Cell, "_exact", lambda cell, s: exact.append(s))
    cell = closure._Cell(3, p)
    assert cell.add((3**30, 0, 0)) and cell.add((0, 1, 0))
    assert not cell.add((2**50 + 1, 1, 0))
    assert tried == [(p, False), (p**2, False), (p**3, False), (p**4, True)]
    assert exact == [] and cell.dim == 2


def test_a_synced_exact_echelon_decides_without_the_lift(monkeypatch):
    lifts = []
    real_lift = closure._Cell._lift

    def lift(cell, s, x):
        out = real_lift(cell, s, x)
        lifts.append(out)
        return out

    monkeypatch.setattr(closure._Cell, "_lift", lift)
    cell = closure._Cell(4, closure.MODULUS)
    assert cell.add((1, 0, 0, 0)) and cell.add((0, 1, 0, 0))
    # Coordinates of 200 bits: no lift reconstructs them, so the exact
    # echelon catches up with S and decides.
    big = (2**200 + 1, 2**200 + 3, 0, 0)
    assert not cell.add(big)
    assert lifts == [False] and cell.synced == 2
    assert not cell.add((2**201 + 1, 5, 0, 0)) and not cell.add(big)
    assert lifts == [False]
    # A growth mod p leaves the exact echelon behind S, and the lift returns.
    assert cell.add((0, 0, 1, 0))
    assert not cell.add(big)
    assert lifts == [False, False] and cell.synced == 3


# -- the packed mod-p spin against one product at a time --------------------------


def _reference_spin_mod_p(cells, seeds, letters, rule, p):
    """The mod-p spin with one rule_product and one EchelonModP.add per
    product: the reference for the packed letter matrices."""
    seeds = {cell: [primitive(v) for v in vs] for cell, vs in seeds.items()}
    steps = [((a, b), (c, b), rule(a, c, b), primitive(x))
             for a, c, b in closure._triples(letters, cells) for x in letters[(a, c)]]
    ech = {cell: EchelonModP(ambient, p) for cell, ambient in cells.items()}
    fresh = {cell: [[x % p for x in v] for v in seeds.get(cell, ()) if ech[cell].add(v)]
             for cell in cells}
    length = 1
    while any(fresh.values()):
        grown = {cell: [] for cell in cells}
        for target, source, r, x in steps:
            span = ech[target]
            for w in fresh[source]:
                if span.is_full():
                    break
                prod = rule_product(r, x, w, span.ambient)
                if span.add(prod):
                    grown[target].append([c % p for c in prod])
        fresh = grown
        length += 1
    return ech, length


def _spun_alike(table, p):
    """Spin ``table`` mod p packed and by the reference, with the seeds as
    letters, as full_mod_p does; return the cells' fullness once both
    agree on every cell's pivots, rows and fullness and on the length."""
    cells, seeds, rule = table
    got, length = closure.spin(cells, seeds, seeds, rule, modulus=p)
    want, want_length = _reference_spin_mod_p(cells, seeds, seeds, rule, p)
    assert length == want_length
    for cell in cells:
        assert got[cell].pivots == want[cell].pivots, cell
        assert got[cell].rows == want[cell].rows, cell
        assert got[cell].is_full() == want[cell].is_full(), cell
    return [got[cell].is_full() for cell in cells]


def test_packed_mod_p_spin_matches_the_reference_seeded():
    rng = random.Random(47)
    D2 = quaternion_for_prime(2)
    custom = _rescaled(matrix_algebra(rationals(), 2), [F(1, 2), 3, F(2, 5), 1])
    split = split_model(2)
    full = []
    for trial in range(48):
        base = (D2, rationals(), split, custom)[trial % 4]
        p = (closure.MODULUS, 5)[trial // 4 % 2]
        if trial % 3 == 2:  # a one-cell word table
            alg = base if base.dim == 16 else matrix_algebra(base, 2)
            x = _sparse_element(alg, rng, rng.randint(1, alg.dim))
            full += _spun_alike(closure._word_table(alg, [x, x.dagger()]), p)
            continue
        # Vertices of sizes 1 and up to 4 (2 over the split base) make
        # steps from a source cell wider than the target.
        r = 2 + trial % 2
        sizes = [1] + [rng.randint(1, 2 if base is split else 4) for _ in range(r - 1)]
        edges = {(i, j): _random_edge(base, rng, sizes[j - 1], sizes[i - 1],
                                      trial % 4 != 1)
                 for i in range(1, r + 1) for j in range(i + 1, r + 1)
                 if rng.random() < 0.8}
        graph = ObstructionGraph(base, sizes, edges)
        column = None if trial % 5 == 0 else rng.randint(1, r)
        full += _spun_alike(obstruction._table(graph, column), p)
    # Both outcomes occur: some cells end full, others partial.
    assert 0 < sum(full) < len(full), (sum(full), len(full))


def test_a_step_from_a_wider_source_does_not_carry_between_slots():
    # The target (0, 1) has ambient 2 and 8-byte slots, which hold
    # (2 + 1) * p^2 and no more, while the source (2, 1) has 40 columns:
    # with every residue p - 1, a product slot sums to 40 * (p - 1)^2.
    p, n = closure.MODULUS, 40
    rule = (tuple((j, 0, 1) for j in range(n)) + ((0, 1, 1),),)
    table = ({(0, 1): 2, (2, 1): n, (0, 2): 1}, {(2, 1): [(-1,) * n]},
             {(0, 2): [(-1,)]}, lambda a, c, b: rule)
    ech, _ = closure.spin(*table, modulus=p)
    target = ech[(0, 1)]
    assert n * (p - 1) ** 2 >= 1 << 8 * target.nbytes
    # The product is (40, 1), so the row is (1, 1/40) mod p.
    assert target.rows == {0: 1 + (pow(n, -1, p) << 8 * target.nbytes)}
    want, _ = _reference_spin_mod_p(*table, p)
    assert target.rows == want[(0, 1)].rows


def test_the_mod_p_spin_forms_no_product_and_the_exact_spin_does(monkeypatch):
    products = []
    real_product = closure.rule_product

    def counted_product(*args):
        products.append(args)
        return real_product(*args)

    monkeypatch.setattr(closure, "rule_product", counted_product)
    g = build_r3_graph(2, 2, seed=0)
    x = g.edges[(1, 2)]
    end_alg = matrix_algebra(g.base, 2)
    gens = [end_alg.element(x.coeffs), end_alg.element(x.dagger_transpose().coeffs)]
    assert closure.full_mod_p(*obstruction._table(g, 1), (1, 1))
    assert generates_fully(end_alg, gens)
    assert products == []
    assert loop_oracle(g, 1, 4).dim and products
    products.clear()
    assert stabilized_word_span(end_alg, gens, max_len=2)[0].dim and products
