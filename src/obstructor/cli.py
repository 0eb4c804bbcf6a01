"""Command-line front end.

Subcommands: verify, obstruction, find-generator, corner, hilbert, divisor.
All output is JSON on stdout with rationals as strings; identical invocations
produce byte-identical output. Exit codes: 0 success, 1 verification failure,
2 usage, parse or input error (every library ``ObstructorError``), 3 internal
error. An error ends with one ``Error:`` line on stderr, never a traceback. The
environment variable OBSTRUCTOR_SEED overrides the default seed wherever a
seed applies.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from itertools import islice

import click

from .algebra import (
    INF,
    DMatrix,
    element_to_dmatrix,
    hilbert_symbol,
    is_definite_rational_quaternion,
    matrix_algebra,
    quaternion_for_prime,
    ramified_places,
    relevant_places,
    split_model,
)
from .arith import is_prime
from .closure import stabilized_word_span, subrng_closure
from .divisor import contains_double_fiber, parse_poly, substitute_powers, verify_factorization
from .errors import ObstructorError
from .linalg import echelonize, ratio
from .obstruction import (
    CornerReport,
    compute_obstruction,
    corner_detect,
    flag_nonliftable,
    loop_oracle,
    path_span_table,
)
from .serialize import (
    algebra_from_json,
    coeffs_from_json,
    coeffs_to_json,
    dmatrix_to_json,
    dump_json,
    graph_from_json,
    subspace_basis_json,
)
from .witness import (
    DOCUMENTED_DISCREPANCIES,
    MAX_TRIES,
    ChainReport,
    build_r3_graph,
    random_elements,
    random_rosati_generator,
    verify_identity_chain,
)


def _default_seed() -> int:
    env = os.environ.get("OBSTRUCTOR_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise click.UsageError(f"OBSTRUCTOR_SEED must be an integer, got {env!r}")


def _emit(obj) -> None:
    sys.stdout.write(dump_json(obj))


def _parse_rat_flag(value: str, name: str) -> Fraction:
    try:
        return ratio(value)
    except (ValueError, TypeError, ZeroDivisionError):
        raise click.UsageError(f"--{name} must be a rational like -3 or 3/4")


def _load_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:  # missing, a directory, unreadable
        raise click.UsageError(f"{what} file {path}: {exc.strerror or exc}")
    except ValueError as exc:  # JSONDecodeError, or an int over the digit limit
        raise click.UsageError(f"{what} file {path}: invalid JSON: {exc}")
    except RecursionError:
        raise click.UsageError(f"{what} file {path}: JSON nested too deeply")


class _InternalError(click.ClickException):
    """An exception the library does not declare: a fault, not bad input."""

    exit_code = 3


class _ErrorBoundary(click.Group):
    """The one place library errors become exit codes: an ``ObstructorError``
    is a usage error (exit 2), anything else unexpected is exit 3. Click's own
    exceptions (``Abort`` and ``Exit`` are ``RuntimeError``s) and ``SystemExit``
    pass through."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ObstructorError as exc:
            raise click.UsageError(str(exc)) from exc
        except (click.ClickException, click.Abort, click.exceptions.Exit):
            raise
        except Exception as exc:
            message = " ".join(str(exc).split())  # one line
            raise _InternalError(
                f"internal error ({type(exc).__name__}): {message}") from exc


@click.group(cls=_ErrorBoundary)
def main():
    """Exact-arithmetic engine for loop-span lifting obstructions."""


# -- verify -----------------------------------------------------------------


def _chain_section(rep: ChainReport) -> dict:
    entries = []
    for ident in rep.identities:
        if ident.holds:
            status = "PASS"
        elif ident.name in DOCUMENTED_DISCREPANCIES:
            status = "PAPER-DISCREPANCY"
        else:
            status = "FAIL"
        entry = {"name": ident.name, "status": status,
                 "computed": ident.computed, "stated": ident.stated}
        if ident.note:
            entry["note"] = ident.note
        entries.append(entry)
    return {"g": rep.g, "identities": entries}


def _generation_section(rep: ChainReport) -> dict:
    g = rep.g
    closure = rep.generation
    oracle, length = stabilized_word_span(split_model(g), closure.generators)
    expected = (2 * g) ** 2
    ok = rep.generation_ok and oracle == closure.span
    return {"g": g, "dim": closure.span.dim, "expected": expected,
            "rounds": closure.rounds, "oracle_dim": oracle.dim,
            "oracle_stable_len": length,
            "oracle_equal": oracle == closure.span, "ok": ok}


def _ramification_section(p: int) -> dict:
    alg = quaternion_for_prime(p)
    a, b = alg.quaternion_params
    ram = ramified_places(a, b)
    want = [p, INF]
    return {"p": p, "a": str(a), "b": str(b),
            "ramified": [str(v) for v in ram],
            "expected": [str(v) for v in want], "ok": ram == want}


def _impossibility_section(p: int, seed: int, trials: int) -> dict:
    base = quaternion_for_prime(p)
    non_generating = 0
    max_dim = 0
    all_comm = True
    for x in islice(random_elements(base, seed, 10), trials):
        res = subrng_closure(base, [x, x.dagger()])
        d = res.span.dim
        max_dim = max(max_dim, d)
        if d < 4:
            non_generating += 1
        vecs = res.span.basis
        for u in vecs:
            for v in vecs:
                if base.mul_coeffs(u, v) != base.mul_coeffs(v, u):
                    all_comm = False
    ok = non_generating == trials and max_dim <= 3 and all_comm
    return {"g": 1, "p": p, "seed": seed, "trials": trials,
            "non_generating": non_generating, "max_closure_dim": max_dim,
            "all_commutative": all_comm, "ok": ok}


def _construction_section(g: int, p: int, seed: int) -> dict:
    graph = build_r3_graph(g, p, seed=seed)
    end_alg = matrix_algebra(graph.base, g)
    span = compute_obstruction(graph, 1)
    report = corner_detect(span, end_alg)
    verdict = flag_nonliftable(report, is_definite_rational_quaternion(graph.base))
    # build_r3_graph's search proved that {x, dagger x}, x on edge (1, 2),
    # generates this cached end_alg, so their closure equals the span exactly
    # when the span is full.
    matches = span.is_full()
    expected = 4 * g * g
    ok = (span.dim == expected and report.is_full
          and verdict.verdict == "OBSTRUCTED" and matches)
    return {"g": g, "p": p, "seed": seed, "e_dim": span.dim,
            "expected": expected, "is_full": report.is_full,
            "verdict": verdict.verdict,
            "matches_generator_closure": matches, "ok": ok}


def _divisor_section() -> dict:
    f = parse_poly("x1*x2*x3 - y1*y2*y3", 3)
    hit = contains_double_fiber(f, 1, ("0", "1"), 2, ("1", "0"))
    lifted = substitute_powers(f, (2, 2, 2))
    plus = parse_poly("x1*x2*x3 + y1*y2*y3", 3)
    split = verify_factorization(lifted, [f, plus])
    return {"poly": f.to_string(), "double_fiber": hit,
            "splitting_verified": split, "ok": hit and split}


def _verify_failed(report, strict: bool) -> bool:
    """A finished verify report fails on any ``"ok": false``, any identity
    with status FAIL and, only under ``strict``, any PAPER-DISCREPANCY."""
    if isinstance(report, list):
        return any(_verify_failed(sec, strict) for sec in report)
    if not isinstance(report, dict):
        return False
    fatal = ("FAIL", "PAPER-DISCREPANCY") if strict else ("FAIL",)
    return (report.get("ok") is False or report.get("status") in fatal
            or any(_verify_failed(v, strict) for v in report.values()))


@main.command()
@click.option("--g", "g", type=int, required=True, help="Vertex size (1 runs the impossibility suite).")
@click.option("--p", "p", type=int, required=True, help="Base prime.")
@click.option("--all", "run_all", is_flag=True, help="Run the full identity battery.")
@click.option("--strict", is_flag=True,
              help="Treat documented sign discrepancies as fatal.")
@click.option("--seed", type=int, default=None, help="Seed override.")
@click.option("--trials", type=int, default=100, show_default=True,
              help="Trials for the g = 1 impossibility suite.")
def verify(g, p, run_all, strict, seed, trials):
    """Run the exact identity suite and report each check."""
    if g < 1:
        raise click.UsageError("--g must be >= 1")
    if not is_prime(p):
        raise click.UsageError("--p must be prime")
    if trials < 1:
        raise click.UsageError("--trials must be >= 1")
    if trials > MAX_TRIES:
        raise click.UsageError(f"--trials must be at most {MAX_TRIES}")
    seed = _default_seed() if seed is None else seed
    report: dict = {"seed": seed}
    if run_all:
        reps = [verify_identity_chain(gg) for gg in (2, 3, 4, 5)]
        report["chain"] = [_chain_section(rep) for rep in reps]
        report["generation"] = [_generation_section(rep) for rep in reps]
        report["ramification"] = [_ramification_section(pp)
                                  for pp in (2, 3, 5, 7, 11, 13)]
        report["impossibility"] = [_impossibility_section(pp, seed, trials)
                                   for pp in (2, 3, 5)]
        report["construction"] = [_construction_section(2, p, seed)]
        report["divisor"] = _divisor_section()
    elif g == 1:
        # Failure to generate is the expected (PASS) outcome here.
        report["impossibility"] = _impossibility_section(p, seed, trials)
    else:
        rep = verify_identity_chain(g)
        report["chain"] = _chain_section(rep)
        report["generation"] = _generation_section(rep)
        report["ramification"] = _ramification_section(p)
        report["construction"] = _construction_section(g, p, seed)
    failed = _verify_failed(report, strict)
    report["status"] = "FAIL" if failed else "PASS"
    _emit(report)
    sys.exit(1 if failed else 0)


# -- obstruction ---------------------------------------------------------------


@main.command()
@click.option("--graph", "graph_path", type=str, required=True,
              help="Graph descriptor JSON file.")
@click.option("--vertex", type=int, required=True, help="Base vertex (1-based).")
@click.option("--oracle-len", type=int, default=None,
              help="Also span the loops of up to this many edges with the loop oracle.")
def obstruction(graph_path, vertex, oracle_len):
    """Loop span, corner report, and verdict for one vertex of a graph."""
    if oracle_len is not None and oracle_len < 2:
        raise click.UsageError("--oracle-len must be >= 2")
    graph = graph_from_json(_load_json(graph_path, "graph"))
    g = graph.size(vertex)
    # The table is needed for its rounds, so it also gives the span.
    table = path_span_table(graph)
    span = table.spans[(vertex, vertex)]
    if 0 < span.dim < span.ambient_dim:
        report = corner_detect(span, matrix_algebra(graph.base, g))
        idempotent = None if report.idempotent is None else report.idempotent.coeffs
    else:
        # A zero or full span is the corner of the zero or the identity
        # matrix, which corner_detect reports without a product; M_g(D),
        # whose build alone takes seconds at the largest sizes, is not built.
        full = span.dim > 0
        report = CornerReport(is_corner=True, idempotent=None, factor_dim=span.dim,
                              is_full=full, is_zero=not full)
        idempotent = DMatrix.scalar(graph.base, g, int(full)).coeffs
    ramified = is_definite_rational_quaternion(graph.base)
    verdict = flag_nonliftable(report, ramified)
    out = {
        "vertex": vertex,
        "e_dim": span.dim,
        "rounds": table.rounds,
        "basis": subspace_basis_json(span),
        "is_corner": report.is_corner,
        "is_full": report.is_full,
        "is_zero": report.is_zero,
        "factor_dim": report.factor_dim,
        "idempotent": None if idempotent is None else coeffs_to_json(idempotent),
        "base_ramified": ramified,
        "verdict": verdict.verdict,
        "verdict_reason": verdict.reason,
        "power_note": verdict.power_note,
    }
    if oracle_len is not None:
        oracle = loop_oracle(graph, vertex, oracle_len)
        out["oracle_len"] = oracle_len
        out["oracle_dim"] = oracle.dim
        out["oracle_equal"] = oracle == span
    _emit(out)


# -- find-generator --------------------------------------------------------------


@main.command("find-generator")
@click.option("--g", "g", type=int, required=True,
              help="Matrix size (>= 1; no x generates at g = 1, which exits 1).")
@click.option("--p", "p", type=int, required=True, help="Base prime.")
@click.option("--seed", type=int, default=None, help="Seed (default 0 / OBSTRUCTOR_SEED).")
@click.option("--tries", type=int, default=200, show_default=True)
@click.option("--bound", type=int, default=10, show_default=True,
              help="Coefficients are sampled in [-bound, bound].")
def find_generator(g, p, seed, tries, bound):
    """Search for x with {x, dagger(x)} generating the matrix quaternion algebra."""
    if not is_prime(p):
        raise click.UsageError("--p must be prime")
    if tries < 1 or bound < 1:
        raise click.UsageError("--tries and --bound must be >= 1")
    if tries > MAX_TRIES:
        raise click.UsageError(f"--tries must be at most {MAX_TRIES}")
    seed = _default_seed() if seed is None else seed
    alg = matrix_algebra(quaternion_for_prime(p), g)
    search = random_rosati_generator(alg, seed=seed, max_tries=tries,
                                     coeff_bound=bound)
    out = {"g": g, "p": p, "seed": seed, "bound": bound,
           "found": search.found, "tries": search.tries}
    if search.found:
        out["element"] = coeffs_to_json(search.element.coeffs)
        out["matrix"] = dmatrix_to_json(element_to_dmatrix(search.element))
    _emit(out)
    sys.exit(0 if search.found else 1)


# -- corner -----------------------------------------------------------------------


@main.command()
@click.option("--algebra", "algebra_path", type=str, required=True,
              help="Algebra descriptor JSON file.")
@click.option("--elements", "elements_path", type=str, required=True,
              help="JSON file: list of coefficient vectors spanning the subspace.")
def corner(algebra_path, elements_path):
    """Corner/idempotent detection for a spanned subspace of an algebra."""
    alg = algebra_from_json(_load_json(algebra_path, "algebra"))
    span_payload = _load_json(elements_path, "elements")
    if not isinstance(span_payload, list):
        raise click.UsageError("elements file must be a JSON list of coefficient vectors")
    vecs = [coeffs_from_json(v, f"elements[{t}]") for t, v in enumerate(span_payload)]
    span = echelonize(vecs, ambient_dim=alg.dim)
    report = corner_detect(span, alg)
    _emit({
        "dim": span.dim,
        "is_corner": report.is_corner,
        "is_full": report.is_full,
        "is_zero": report.is_zero,
        "factor_dim": report.factor_dim,
        "idempotent": (None if report.idempotent is None
                       else coeffs_to_json(report.idempotent.coeffs)),
    })


# -- hilbert -----------------------------------------------------------------------


@main.command()
@click.option("--a", "a_str", type=str, required=True)
@click.option("--b", "b_str", type=str, required=True)
@click.option("--place", type=str, default=None,
              help="A prime or 'inf'; default: all places dividing 2ab plus inf.")
def hilbert(a_str, b_str, place):
    """Local Hilbert symbols of the pair (a, b) over Q."""
    a = _parse_rat_flag(a_str, "a")
    b = _parse_rat_flag(b_str, "b")
    if not a or not b:
        raise click.UsageError("--a and --b must be nonzero")
    if place is not None:
        if place == INF:
            v = INF
        else:
            try:
                v = int(place)
            except ValueError:
                raise click.UsageError("--place must be a prime or 'inf'")
            if not is_prime(v):
                raise click.UsageError("--place must be a prime or 'inf'")
        _emit({"a": str(a), "b": str(b), "place": str(v),
               "symbol": hilbert_symbol(a, b, v)})
        return
    places = relevant_places(a, b)
    symbols = {str(v): hilbert_symbol(a, b, v) for v in places}
    product = 1
    for s in symbols.values():
        product *= s
    _emit({"a": str(a), "b": str(b), "symbols": symbols,
           "ramified": [str(v) for v in places if symbols[str(v)] == -1],
           "product": product})


# -- divisor -----------------------------------------------------------------------


def _parse_fiber_spec(spec: str):
    m = re.fullmatch(r"\s*([0-9]{1,9})\s*:\s*\[([^:\]]+):([^:\]]+)\]\s*", spec)
    if not m:
        raise click.UsageError(
            f"fiber spec {spec[:40]!r} must look like 1:[0:1]")
    idx = int(m.group(1))
    try:
        pt = (ratio(m.group(2).strip()), ratio(m.group(3).strip()))
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"fiber spec {spec[:40]!r}: coordinates must be rational")
    return idx, pt


@main.command()
@click.option("--poly", "poly_text", type=str, required=True)
@click.option("--r", "r", type=int, required=True, help="Number of projective-line factors.")
@click.option("--subst", type=str, default=None,
              help="Comma-separated cover exponents, e.g. 2,2,2.")
@click.option("--fiber", "fibers", type=str, multiple=True,
              help="Two specs i:[a:b] selecting points in two factors.")
@click.option("--factors", "factor_texts", type=str, multiple=True,
              help="Exact factorization of the (substituted) polynomial.")
def divisor(poly_text, r, subst, fibers, factor_texts):
    """Multihomogeneous polynomial checks on a product of projective lines."""
    f = parse_poly(poly_text, r)
    out = {"poly": f.to_string(), "r": r, "multidegree": list(f.degrees)}
    if fibers:
        if len(fibers) != 2:
            raise click.UsageError("--fiber must be given exactly twice")
        (i, pt_i) = _parse_fiber_spec(fibers[0])
        (j, pt_j) = _parse_fiber_spec(fibers[1])
        hit = contains_double_fiber(f, i, pt_i, j, pt_j)
        out["double_fiber_hits"] = [{
            "i": i, "point_i": f"[{pt_i[0]}:{pt_i[1]}]",
            "j": j, "point_j": f"[{pt_j[0]}:{pt_j[1]}]",
            "contained": hit,
        }]
    target = f
    if subst is not None:
        try:
            exps = [int(e) for e in subst.split(",")]
        except ValueError:
            raise click.UsageError("--subst must be comma-separated integers")
        target = substitute_powers(f, exps)
        out["substituted"] = {"exponents": exps, "poly": target.to_string(),
                              "multidegree": list(target.degrees)}
    if factor_texts:
        factors = [parse_poly(t, r) for t in factor_texts]
        out["splitting_verified"] = verify_factorization(target, factors)
    _emit(out)


if __name__ == "__main__":
    main()
