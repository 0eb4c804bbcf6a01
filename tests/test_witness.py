import hashlib

import pytest

from obstructor.algebra import (
    matrix_algebra,
    matrix_unit,
    quaternion_for_prime,
    split_model,
)
from obstructor.closure import stabilized_word_span, subrng_closure
from obstructor.errors import AlgebraValidationError
from obstructor.obstruction import (
    compute_obstruction,
    corner_detect,
    flag_nonliftable,
)
from obstructor.witness import (
    build_r3_graph,
    build_r4_graph,
    random_rosati_generator,
    random_two_generators,
    shift_witness,
    verify_identity_chain,
)


def test_shift_witness_g2_entries():
    M = split_model(2)
    x = shift_witness(2)
    assert x == matrix_unit(M, 1, 2) + matrix_unit(M, 2, 3) + matrix_unit(M, 3, 4)


def test_shift_witness_rejects_g1():
    with pytest.raises(AlgebraValidationError):
        shift_witness(1)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_shift_witness_nilpotency_and_top_power(g):
    M = split_model(g)
    x = shift_witness(g)
    assert (x ** (2 * g)).is_zero()
    assert x ** (2 * g - 1) == matrix_unit(M, 1, 2 * g)
    assert x.dagger().dagger() == x


def test_chain_report_g2():
    rep = verify_identity_chain(2)
    by_name = {i.name: i for i in rep.identities}
    assert by_name["x_pow_2g_minus_1"].holds
    assert by_name["x_pow_2g_minus_3"].holds
    assert by_name["dagger_pow_2g_minus_3"].holds
    assert by_name["ab"].holds
    # documented sign discrepancy: reported with both values, not hidden
    assert not by_name["bab"].holds
    assert by_name["bab"].computed == "1*e[4,1]"
    assert by_name["bab"].stated == "-1*e[4,1]"
    assert not by_name["x_minus_bab_is_rotation"].holds
    assert by_name["x_plus_bab_is_rotation"].holds
    assert rep.discrepancies == ("bab", "x_minus_bab_is_rotation")
    assert rep.generation_ok and rep.generation_dim == 16


@pytest.mark.parametrize("g,dim", [(3, 36), (4, 64), (5, 100)])
def test_chain_generation_dims(g, dim):
    rep = verify_identity_chain(g)
    assert rep.generation_dim == dim and rep.generation_ok
    names = {i.name for i in rep.identities if not i.holds}
    assert names == {"bab", "x_minus_bab_is_rotation"}


def test_generation_cross_checked_by_word_oracle():
    M = split_model(2)
    x = shift_witness(2)
    closure = subrng_closure(M, [x, x.dagger()])
    oracle, _ = stabilized_word_span(M, [x, x.dagger()])
    assert oracle == closure.span


def test_random_generator_found_quickly():
    alg = matrix_algebra(quaternion_for_prime(2), 2)
    search = random_rosati_generator(alg, seed=0, max_tries=100, coeff_bound=5)
    assert search.found and search.tries <= 10


def test_random_generator_deterministic():
    alg = matrix_algebra(quaternion_for_prime(2), 2)
    a = random_rosati_generator(alg, seed=12)
    b = random_rosati_generator(alg, seed=12)
    assert a.element == b.element and a.tries == b.tries


def test_random_generator_verified_independently():
    alg = matrix_algebra(quaternion_for_prime(3), 2)
    search = random_rosati_generator(alg, seed=4, coeff_bound=5)
    x = search.element
    oracle, _ = stabilized_word_span(alg, [x, x.dagger()])
    assert oracle.dim == alg.dim


def test_random_generator_g1_never_succeeds():
    D = quaternion_for_prime(2)
    search = random_rosati_generator(matrix_algebra(D, 1), seed=0, max_tries=40)
    assert not search.found and search.tries == 40


def test_generation_verdict_scale_invariant():
    alg = matrix_algebra(quaternion_for_prime(2), 2)
    x = random_rosati_generator(alg, seed=1).element
    from obstructor.closure import generates_fully
    for c in ("2", "-1", "5/3"):
        y = x * c
        assert generates_fully(alg, [y, y.dagger()])


def test_build_r3_graph_full_obstruction():
    g = build_r3_graph(2, 2, seed=0)
    span = compute_obstruction(g, 1)
    assert span.dim == 16
    end_alg = matrix_algebra(g.base, 2)
    rep = corner_detect(span, end_alg.rule, end_alg.scale, end_alg.unit)
    assert rep.is_full
    assert flag_nonliftable(rep, True).verdict == "OBSTRUCTED"


def test_build_r3_graph_span_equals_generator_closure():
    g = build_r3_graph(2, 3, seed=0)
    end_alg = matrix_algebra(g.base, 2)
    x = g.edges[(1, 2)]
    closure = subrng_closure(end_alg, [end_alg.element(x.coeffs),
                                       end_alg.element(x.dagger_transpose().coeffs)])
    assert closure.span == compute_obstruction(g, 1)


def test_build_r3_graph_other_vertices():
    # no stated values for the loop spans at vertices 2 and 3; computed once
    # and frozen here: both come out full for the seed-0 generator.
    g = build_r3_graph(2, 2, seed=0)
    assert compute_obstruction(g, 2).dim == 16
    assert compute_obstruction(g, 3).dim == 16


def test_build_r4_graph_full_for_g2():
    g = build_r4_graph(2, 2, seed=0)
    span = compute_obstruction(g, 1)
    assert span.dim == 16
    alg = matrix_algebra(g.base, 2)
    rep = corner_detect(span, alg.rule, alg.scale, alg.unit)
    assert rep.is_full


def test_build_r4_graph_quaternion_case():
    g = build_r4_graph(1, 3, seed=0)
    assert compute_obstruction(g, 1).dim == 4


def test_build_r4_graph_deterministic():
    a = build_r4_graph(2, 2, seed=5)
    b = build_r4_graph(2, 2, seed=5)
    assert a.edges[(2, 4)].coeffs == b.edges[(2, 4)].coeffs
    assert a.edges[(3, 4)].coeffs == b.edges[(3, 4)].coeffs


def test_two_generator_search_includes_unit():
    alg = matrix_algebra(quaternion_for_prime(2), 1)
    search, y = random_two_generators(alg, seed=0)
    assert search.found
    from obstructor.closure import generates_fully
    assert generates_fully(alg, [alg.one(), search.element, y])


# (g, coeff_bound): the tries of random_rosati_generator and of
# random_two_generators over M_g(D_p) at seeds 0..9 with max_tries 20, and a
# sha256 prefix of every element they found, x before y. Every D_p here gives
# the same row: the draws depend only on the seed and the dimension.
DRAWS = {
    (1, 10): ((20,) * 10, (1,) * 10, "6ca61108faf091e1"),
    (1, 1): ((20,) * 10, (2, 2, 2) + (1,) * 7, "e72225ff1255b33f"),
    (2, 10): ((1,) * 10, (1,) * 10, "fcacdd7a91828c79"),
    (2, 1): ((1,) * 10, (1,) * 10, "169f35f298b8bb68"),
}

# g: (name, holds, sha256 prefix of computed, of stated) per chain identity.
CHAIN = {
    2: (
        ("x_pow_2g_minus_1", True, "d80e5ce4e6b9ec4a", "d80e5ce4e6b9ec4a"),
        ("x_pow_2g_is_zero", True, "5feceb66ffc86f38", "5feceb66ffc86f38"),
        ("x_pow_2g_minus_3", True, "e4f69166226c9d2d", "e4f69166226c9d2d"),
        ("dagger_pow_2g_minus_3", True, "34419210e59ed107", "34419210e59ed107"),
        ("ab", True, "3362d271730a77fa", "3362d271730a77fa"),
        ("bab", False, "ac1a72cb7837adf8", "28fb785c063fc43d"),
        ("x_minus_bab_is_rotation", False, "4a36a8ce56115ae1", "2b984cfdc2602e65"),
        ("x_plus_bab_is_rotation", True, "2b984cfdc2602e65", "2b984cfdc2602e65"),
    ),
    3: (
        ("x_pow_2g_minus_1", True, "6ce4407e14c5bab6", "6ce4407e14c5bab6"),
        ("x_pow_2g_is_zero", True, "5feceb66ffc86f38", "5feceb66ffc86f38"),
        ("x_pow_2g_minus_3", True, "51dc2778fe39a124", "51dc2778fe39a124"),
        ("dagger_pow_2g_minus_3", True, "1e03fe9f1ce88400", "1e03fe9f1ce88400"),
        ("ab", True, "3362d271730a77fa", "3362d271730a77fa"),
        ("bab", False, "b75db16065f425b1", "5407fd5624a1f106"),
        ("x_minus_bab_is_rotation", False, "0507df39ade1dcef", "06f272ce90b2925d"),
        ("x_plus_bab_is_rotation", True, "06f272ce90b2925d", "06f272ce90b2925d"),
    ),
    4: (
        ("x_pow_2g_minus_1", True, "e745f9134bd8fab4", "e745f9134bd8fab4"),
        ("x_pow_2g_is_zero", True, "5feceb66ffc86f38", "5feceb66ffc86f38"),
        ("x_pow_2g_minus_3", True, "35ccb327c1dafabe", "35ccb327c1dafabe"),
        ("dagger_pow_2g_minus_3", True, "45f822517635dd21", "45f822517635dd21"),
        ("ab", True, "3362d271730a77fa", "3362d271730a77fa"),
        ("bab", False, "7950f7c74fa0970e", "3428c9122713be1e"),
        ("x_minus_bab_is_rotation", False, "0713fa3589ad37c4", "7abcfcfc6156cd6e"),
        ("x_plus_bab_is_rotation", True, "7abcfcfc6156cd6e", "7abcfcfc6156cd6e"),
    ),
    5: (
        ("x_pow_2g_minus_1", True, "3f33c0aba13bd7da", "3f33c0aba13bd7da"),
        ("x_pow_2g_is_zero", True, "5feceb66ffc86f38", "5feceb66ffc86f38"),
        ("x_pow_2g_minus_3", True, "87a7dc0422d46cca", "87a7dc0422d46cca"),
        ("dagger_pow_2g_minus_3", True, "8d15798a608751e3", "8d15798a608751e3"),
        ("ab", True, "3362d271730a77fa", "3362d271730a77fa"),
        ("bab", False, "0c57a1f93bef2025", "38d816c1789d86d5"),
        ("x_minus_bab_is_rotation", False, "1c48c305f0d938f1", "b38cf32544b0f557"),
        ("x_plus_bab_is_rotation", True, "b38cf32544b0f557", "b38cf32544b0f557"),
    ),
    6: (
        ("x_pow_2g_minus_1", True, "96253f71afb5eda4", "96253f71afb5eda4"),
        ("x_pow_2g_is_zero", True, "5feceb66ffc86f38", "5feceb66ffc86f38"),
        ("x_pow_2g_minus_3", True, "c03e8f0e32c8d14b", "c03e8f0e32c8d14b"),
        ("dagger_pow_2g_minus_3", True, "fb86378c334ce231", "fb86378c334ce231"),
        ("ab", True, "3362d271730a77fa", "3362d271730a77fa"),
        ("bab", False, "0e5e876b446ae390", "c52a97bd75b1e1de"),
        ("x_minus_bab_is_rotation", False, "3d1f6ed8114df3b4", "df8f6ec8d0c3fcaf"),
        ("x_plus_bab_is_rotation", True, "df8f6ec8d0c3fcaf", "df8f6ec8d0c3fcaf"),
    ),
}

CHAIN_NOTES = {
    "bab": "documented value; exact computation gives the opposite sign",
    "x_minus_bab_is_rotation": "depends on the sign of bab; see the bab entry",
    "x_plus_bab_is_rotation": "rotation identity with the computed sign of bab",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("g,bound", sorted(DRAWS))
def test_seeded_searches_match_the_recorded_draws(p, g, bound):
    alg = matrix_algebra(quaternion_for_prime(p), g)
    rosati_tries, two_tries, found = [], [], []
    for seed in range(10):
        s = random_rosati_generator(alg, seed=seed, max_tries=20, coeff_bound=bound)
        pair, y = random_two_generators(alg, seed=seed, max_tries=20, coeff_bound=bound)
        rosati_tries.append(s.tries)
        two_tries.append(pair.tries)
        found.append(repr([None if e is None else [str(c) for c in e.coeffs]
                           for e in (s.element, pair.element, y)]))
    assert (tuple(rosati_tries), tuple(two_tries), _sha("".join(found))) == DRAWS[g, bound]


@pytest.mark.parametrize("g", sorted(CHAIN))
def test_identity_chain_matches_the_recorded_table(g):
    rep = verify_identity_chain(g)
    assert tuple((i.name, i.holds, _sha(i.computed), _sha(i.stated))
                 for i in rep.identities) == CHAIN[g]
    assert all(i.note == CHAIN_NOTES.get(i.name, "") for i in rep.identities)
    assert rep.generation_ok and rep.generation_dim == 4 * g * g
