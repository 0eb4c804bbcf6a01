"""Byte-level regression of fixed CLI invocations.

Each case runs one invocation through click's ``CliRunner`` and compares the
sha256 of its stdout, and of every input file it reads, with digests recorded
from a known-good build. Identical invocations must print identical bytes, so
a refactor of the engines behind the CLI has to keep every digest.
"""

import hashlib
import json
import random

import pytest
from click.testing import CliRunner

from obstructor.algebra import split_model
from obstructor.cli import main
from obstructor.closure import subrng_closure
from obstructor.serialize import dump_json, graph_to_json
from obstructor.witness import build_r3_graph, build_r4_graph, shift_witness


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _small_graph() -> str:
    """Seeded random graph with sizes (3, 1, 1); its loop span at vertex 1 is
    partial and not a corner."""
    rng = random.Random(7)

    def entry():
        return [str(rng.randint(-3, 3)) for _ in range(4)]

    return json.dumps({
        "base": {"kind": "quaternion_for_prime", "p": 3},
        "r": 3,
        "sizes": [3, 1, 1],
        "edges": [
            {"i": 1, "j": 2, "matrix": [[entry() for _ in range(3)]]},
            {"i": 1, "j": 3, "matrix": [[entry() for _ in range(3)]]},
            {"i": 2, "j": 3, "matrix": [[entry()]]},
        ],
    })


def _block_corner() -> tuple[str, str]:
    """M_3 over the prime-2 quaternions and the unit vectors of its top-left
    2x2 block: the corner of diag(1, 1, 0)."""
    alg = json.dumps({"kind": "matrix", "g": 3,
                      "base": {"kind": "quaternion_for_prime", "p": 2}})
    elems = []
    for r in range(2):
        for c in range(2):
            for t in range(4):
                v = ["0"] * 36
                v[(r * 3 + c) * 4 + t] = "1"
                elems.append(v)
    return alg, json.dumps(elems)


def _half_integral_graph() -> str:
    """Seeded random graph with sizes (2, 1, 1) over (-1/2, -3 / Q), whose
    constants have denominator 2, with some half-integer entries."""
    rng = random.Random(11)

    def entry():
        return [str(rng.randint(-3, 3)) if rng.random() < 0.5
                else f"{2 * rng.randint(-3, 3) + 1}/2" for _ in range(4)]

    return json.dumps({
        "base": {"kind": "quaternion", "a": "-1/2", "b": "-3"},
        "r": 3,
        "sizes": [2, 1, 1],
        "edges": [
            {"i": 1, "j": 2, "matrix": [[entry() for _ in range(2)]]},
            {"i": 1, "j": 3, "matrix": [[entry() for _ in range(2)]]},
            {"i": 2, "j": 3, "matrix": [[entry()]]},
        ],
    })


def _scaled_m2_corner() -> tuple[str, str]:
    """M_2(Q) on the basis e11, e12/2, e21, e22, whose constants have
    denominator 2, and the idempotent e11 + e12 spanning its own corner."""
    def b(k, c="1"):
        v = ["0"] * 4
        v[k] = c
        return v

    z = ["0"] * 4
    consts = [[b(0), b(1), z, z],
              [z, z, b(0, "1/2"), b(1)],
              [b(2), b(3, "1/2"), z, z],
              [z, z, b(2), b(3)]]
    alg = json.dumps({"kind": "custom", "dim": 4, "consts": consts,
                      "unit": ["1", "0", "0", "1"],
                      "involution": [b(0), b(2, "1/2"), b(1, "2"), b(3)]})
    return alg, json.dumps([["1", "2", "0", "0"]])


def _r3_graph() -> str:
    return dump_json(graph_to_json(build_r3_graph(2, 2, 0)))


def _r4_graph() -> str:
    return dump_json(graph_to_json(build_r4_graph(2, 3, 1)))


def _r3_graph_g4() -> str:
    return dump_json(graph_to_json(build_r3_graph(4, 2, 0)))


def _r4_graph_g3() -> str:
    return dump_json(graph_to_json(build_r4_graph(3, 5, 0)))


# name -> (argv with {file} placeholders, {file: (builder, input sha256)},
#          stdout sha256)
CASES = {
    "verify-g2-p3": (
        ["verify", "--g", "2", "--p", "3"], {},
        "bb71e968d943dfae00e9e0c867cea49c1fcd8962694a9fafc0cc3238595fa435"),
    "verify-g1-p3": (
        ["verify", "--g", "1", "--p", "3", "--trials", "20"], {},
        "e10d0fbf55b0f10191bfd91756241b3686bfa4330c3cf3e50590d8d50e78c4a8"),
    "obstruction-r3": (
        ["obstruction", "--graph", "{graph}", "--vertex", "1"],
        {"graph": (_r3_graph, "a06cca193863d6c041b693799d381fc4"
                              "425116195c31a8baef577b8b5e6667e0")},
        "a0f6039ce088fb5aec039a77853669e49712b60b97f9eab474709321650a020f"),
    "obstruction-r4": (
        ["obstruction", "--graph", "{graph}", "--vertex", "1"],
        {"graph": (_r4_graph, "b80cb56123cc001140cb5754531bb6c0"
                              "a9952cf0a6125c9b5a0780b0dab0b0ab")},
        "a0f6039ce088fb5aec039a77853669e49712b60b97f9eab474709321650a020f"),
    # g = 4 and g = 3: the sizes where coefficient swell makes the engine's
    # trajectory matter.
    "obstruction-r3-g4": (
        ["obstruction", "--graph", "{graph}", "--vertex", "1"],
        {"graph": (_r3_graph_g4, "35d648c2fec29d1b5206a21e57a1d106"
                                 "c220dd1b21becd3b945bdc5b30cfa750")},
        "34090be732fab2dc8eddb9240eb7a177c47b9af571e024a4e442bdcaa3f61291"),
    "obstruction-r4-g3": (
        ["obstruction", "--graph", "{graph}", "--vertex", "1"],
        {"graph": (_r4_graph_g3, "b989a9c3d1133eeac9855bf5be74f689"
                                 "b9af4b3f2a53180795fcda2f2fa9fddf")},
        "e09321aeeba2bb0f43a1d4ec1e4c002b38ad36a8fe3b50bd888b791a94e435be"),
    "obstruction-small-oracle": (
        ["obstruction", "--graph", "{graph}", "--vertex", "1",
         "--oracle-len", "6"],
        {"graph": (_small_graph, "e5296e7b606a2be0c43a38458889fddf"
                                 "c8a5b7e3a56a8a6a8a3d833724f9da36")},
        "2f94a1d06114e2f6570b035df1728d5befe0b3dcd00d23fafc455ebfd996292c"),
    "obstruction-half-integral-oracle": (
        ["obstruction", "--graph", "{graph}", "--vertex", "1",
         "--oracle-len", "6"],
        {"graph": (_half_integral_graph, "4fcb35348125f1083c0a342722cd9a4f"
                                         "ed6739a72ce0a3da60c8c48d5150a1d4")},
        "a89f07aede00851d0bd92c3dc2d2842f6769ef77a2589ee81617e68ab507d46f"),
    "find-generator-g2-p2": (
        ["find-generator", "--g", "2", "--p", "2"], {},
        "1324d2567050e18f215156abab1661b83cd73fa283ffb4b018441a0acc62d57a"),
    "find-generator-g3-p3": (
        ["find-generator", "--g", "3", "--p", "3"], {},
        "9cfc66042aa82d5536447326f571a45f7e6dfefe82fe5126de800fc0ff13b61d"),
    "find-generator-g5-p2": (
        ["find-generator", "--g", "5", "--p", "2"], {},
        "fdbd78e5b8f368f5a37f2e6b8088b7c07c438c9be764ac9672bc8dd3b9c686a5"),
    "verify-g4-p2": (
        ["verify", "--g", "4", "--p", "2"], {},
        "2a943c4cf06794e4b6e3740a6de1b4fb38d54ef464a96b2b8bd9331728e0a4fb"),
    "corner-block": (
        ["corner", "--algebra", "{algebra}", "--elements", "{elements}"],
        {"algebra": (lambda: _block_corner()[0],
                     "e80b9e64a7419cea24d4620386b736dd"
                     "4191f152e7f13fa63c21341e39752f61"),
         "elements": (lambda: _block_corner()[1],
                      "7533ca6303fb69eaa7cea7b6ee04c363"
                      "deb95e8a0d4bbafc9e98b222981c1421")},
        "fddd258b0d0ba1714d2f4cbc67fd1b46d9d231767726b1c5dfe82ab0b1b7d012"),
    "corner-scaled-custom": (
        ["corner", "--algebra", "{algebra}", "--elements", "{elements}"],
        {"algebra": (lambda: _scaled_m2_corner()[0],
                     "af8c795f88c248babfcb8de06729339e"
                     "5e87ceac618b4aa1122ee340d33e8c97"),
         "elements": (lambda: _scaled_m2_corner()[1],
                      "10f01fc397ad755ab4a1b6a23d2ced62"
                      "e514980c2cfb668cb1289296dbdffa64")},
        "98cb2ae7262991de7edc84e68cec015dfaaa890788fbf3eae86c1b8f307165a5"),
    "verify-all-g2-p2": (
        ["verify", "--g", "2", "--p", "2", "--all"], {},
        "a0135a0ed92a2fdfc8a8654bdf098f4322dd2e9d08e45d32d9ac04319fb1c43b"),
    "hilbert-definite": (
        ["hilbert", "--a", "-1", "--b", "-1"], {},
        "d094faf8ad3b67b2afed98000e529621a2551964d942d339c07d5c91a13b30f1"),
    "hilbert-6-m15": (
        ["hilbert", "--a", "6", "--b", "-15"], {},
        "341ba1c3905b9907d999651073d3ac7e03385431c6a7cb2d53b89681f6ccc996"),
    "divisor-readme": (
        ["divisor", "--poly", "x1*x2*x3 - y1*y2*y3", "--r", "3",
         "--fiber", "1:[0:1]", "--fiber", "2:[1:0]", "--subst", "2,2,2",
         "--factors", "x1*x2*x3 - y1*y2*y3",
         "--factors", "x1*x2*x3 + y1*y2*y3"], {},
        "c3429b3a22bd44b362d1d43ef3e0d7a3cb5c7c8ede5ed6991cd2e77b0d4a447e"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, tmp_path):
    argv, inputs, want = CASES[name]
    paths = {}
    for key, (build, digest) in inputs.items():
        text = build()
        assert _sha(text) == digest, f"{name}: input {key} changed"
        path = tmp_path / f"{key}.json"
        path.write_text(text, encoding="utf-8")
        paths[key] = str(path)
    args = [a.format(**paths) for a in argv]
    res = CliRunner().invoke(main, args, env={"OBSTRUCTOR_SEED": None})
    assert res.exit_code == 0, res.output
    assert _sha(res.stdout) == want, res.stdout


def test_shift_witness_closure_rounds():
    rounds = []
    for g in range(2, 6):
        x = shift_witness(g)
        rounds.append(subrng_closure(split_model(g), [x, x.dagger()]).rounds)
    assert tuple(rounds) == (3, 3, 4, 4)
