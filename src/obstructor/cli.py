"""Command-line front end.

Subcommands: verify, obstruction, find-generator, corner, hilbert, divisor.
All output is JSON on stdout with rationals as strings; identical invocations
produce byte-identical output. Exit codes: 0 success, 1 verification failure,
2 usage, parse or input error (every library ``ObstructorError``), 3 internal
error, 130 interrupted (Ctrl-C, 128 + SIGINT, with ``Aborted!`` on stderr).
An error ends with one ``Error:`` line on stderr, never a traceback; a usage
error puts the command's ``Usage:`` line before it. The environment
variable OBSTRUCTOR_SEED overrides the default seed wherever a seed applies.

The front end is a small table-driven parser over the standard library: each
subcommand declares its ``--name`` options, and an option that takes a value
always takes the next argument, so ``--a -1/2`` works. The package has no
runtime dependency.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from itertools import islice
from typing import Callable, NamedTuple

from .algebra import (
    INF,
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
from .errors import ObstructorError
from .linalg import echelonize, ratio
from .obstruction import (
    CornerReport,
    compute_obstruction,
    corner_detect,
    flag_nonliftable,
    loop_corner,
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


class _UsageError(Exception):
    """A bad command line or option value: exit 2 after the usage line."""


class _Option(NamedTuple):
    """One ``--name`` option. ``kind`` is ``int``, ``str`` or ``bool`` (a
    flag); a ``multiple`` option collects every value it is given."""

    flag: str
    kind: type = str
    required: bool = False
    default: object = None
    multiple: bool = False
    help: str = ""


class _Command(NamedTuple):
    """A subcommand: its name, its function and its options."""

    name: str
    run: Callable
    options: tuple


def _command(*options: _Option):
    """Declare a subcommand. Its function takes the option values in the
    order declared here and returns its exit code (``None`` for 0)."""
    def declare(run) -> _Command:
        return _Command(run.__name__.replace("_", "-"), run, options)
    return declare


_HELP = _Option("--help", bool, help="Show this message and exit.")


def _default_seed() -> int:
    env = os.environ.get("OBSTRUCTOR_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise _UsageError(f"OBSTRUCTOR_SEED must be an integer, got {env!r}")


def _emit(obj) -> None:
    sys.stdout.write(dump_json(obj))


def _parse_rat_flag(value: str, name: str) -> Fraction:
    try:
        return ratio(value)
    except (ValueError, TypeError, ZeroDivisionError):
        raise _UsageError(f"--{name} must be a rational like -3 or 3/4")


def _load_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:  # missing, a directory, unreadable
        raise _UsageError(f"{what} file {path}: {exc.strerror or exc}")
    except ValueError as exc:  # JSONDecodeError, or an int over the digit limit
        raise _UsageError(f"{what} file {path}: invalid JSON: {exc}")
    except RecursionError:
        raise _UsageError(f"{what} file {path}: JSON nested too deeply")


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
    span = compute_obstruction(graph, 1)
    report = loop_corner(span, graph.base, g)
    verdict = flag_nonliftable(report, is_definite_rational_quaternion(graph.base))
    # build_r3_graph's search proved that {x, dagger x}, x on edge (1, 2),
    # generates M_g(D), so their closure equals the span exactly when the
    # span is full.
    matches = span.is_full()
    expected = 4 * g * g
    ok = (span.dim == expected and report.is_full
          and verdict.verdict == "OBSTRUCTED" and matches)
    return {"g": g, "p": p, "seed": seed, "e_dim": span.dim,
            "expected": expected, "is_full": report.is_full,
            "verdict": verdict.verdict,
            "matches_generator_closure": matches, "ok": ok}


def _divisor_section() -> dict:
    from .divisor import (  # only this section and the divisor command need it
        contains_double_fiber, parse_poly, substitute_powers, verify_factorization)

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


@_command(
    _Option("--g", int, required=True, help="Vertex size (1 runs the impossibility suite)."),
    _Option("--p", int, required=True, help="Base prime."),
    _Option("--all", bool, help="Run the full identity battery."),
    _Option("--strict", bool, help="Treat documented sign discrepancies as fatal."),
    _Option("--seed", int, help="Seed override."),
    _Option("--trials", int, default=100, help="Trials for the g = 1 impossibility suite."),
)
def verify(g, p, run_all, strict, seed, trials):
    """Run the exact identity suite and report each check."""
    if g < 1:
        raise _UsageError("--g must be >= 1")
    if not is_prime(p):
        raise _UsageError("--p must be prime")
    if trials < 1:
        raise _UsageError("--trials must be >= 1")
    if trials > MAX_TRIES:
        raise _UsageError(f"--trials must be at most {MAX_TRIES}")
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
    return 1 if failed else 0


# -- obstruction ---------------------------------------------------------------


def _corner_json(report: CornerReport) -> dict:
    """The corner fields of the ``obstruction`` and ``corner`` reports."""
    return {
        "is_corner": report.is_corner,
        "is_full": report.is_full,
        "is_zero": report.is_zero,
        "factor_dim": report.factor_dim,
        "idempotent": (None if report.idempotent is None
                       else coeffs_to_json(report.idempotent)),
    }


@_command(
    _Option("--graph", required=True, help="Graph descriptor JSON file."),
    _Option("--vertex", int, required=True, help="Base vertex (1-based)."),
    _Option("--oracle-len", int,
            help="Also span the loops of up to this many edges with the loop oracle."),
)
def obstruction(graph_path, vertex, oracle_len):
    """Loop span, corner report, and verdict for one vertex of a graph."""
    if oracle_len is not None and oracle_len < 2:
        raise _UsageError("--oracle-len must be >= 2")
    graph = graph_from_json(_load_json(graph_path, "graph"))
    g = graph.size(vertex)
    # The table is needed for its rounds, so it also gives the span.
    table = path_span_table(graph)
    span = table.spans[(vertex, vertex)]
    report = loop_corner(span, graph.base, g)
    ramified = is_definite_rational_quaternion(graph.base)
    verdict = flag_nonliftable(report, ramified)
    out = {
        "vertex": vertex,
        "e_dim": span.dim,
        "rounds": table.rounds,
        "basis": subspace_basis_json(span),
        **_corner_json(report),
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


@_command(
    _Option("--g", int, required=True,
            help="Matrix size (>= 1; no x generates at g = 1, which exits 1)."),
    _Option("--p", int, required=True, help="Base prime."),
    _Option("--seed", int, help="Seed (default 0 / OBSTRUCTOR_SEED)."),
    _Option("--tries", int, default=200),
    _Option("--bound", int, default=10, help="Coefficients are sampled in [-bound, bound]."),
)
def find_generator(g, p, seed, tries, bound):
    """Search for x with {x, dagger(x)} generating the matrix quaternion algebra."""
    if not is_prime(p):
        raise _UsageError("--p must be prime")
    if tries < 1 or bound < 1:
        raise _UsageError("--tries and --bound must be >= 1")
    if tries > MAX_TRIES:
        raise _UsageError(f"--tries must be at most {MAX_TRIES}")
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
    return 0 if search.found else 1


# -- corner -----------------------------------------------------------------------


@_command(
    _Option("--algebra", required=True, help="Algebra descriptor JSON file."),
    _Option("--elements", required=True,
            help="JSON file: list of coefficient vectors spanning the subspace."),
)
def corner(algebra_path, elements_path):
    """Corner/idempotent detection for a spanned subspace of an algebra."""
    alg = algebra_from_json(_load_json(algebra_path, "algebra"))
    span_payload = _load_json(elements_path, "elements")
    if not isinstance(span_payload, list):
        raise _UsageError("elements file must be a JSON list of coefficient vectors")
    vecs = [coeffs_from_json(v, f"elements[{t}]") for t, v in enumerate(span_payload)]
    span = echelonize(vecs, ambient_dim=alg.dim)
    report = corner_detect(span, alg.rule, alg.scale, alg.unit)
    _emit({
        "dim": span.dim,
        **_corner_json(report),
    })


# -- hilbert -----------------------------------------------------------------------


@_command(
    _Option("--a", required=True),
    _Option("--b", required=True),
    _Option("--place", help="A prime or 'inf'; default: all places dividing 2ab plus inf."),
)
def hilbert(a_str, b_str, place):
    """Local Hilbert symbols of the pair (a, b) over Q."""
    a = _parse_rat_flag(a_str, "a")
    b = _parse_rat_flag(b_str, "b")
    if not a or not b:
        raise _UsageError("--a and --b must be nonzero")
    if place is not None:
        if place == INF:
            v = INF
        else:
            try:
                v = int(place)
            except ValueError:
                raise _UsageError("--place must be a prime or 'inf'")
            if not is_prime(v):
                raise _UsageError("--place must be a prime or 'inf'")
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
        raise _UsageError(
            f"fiber spec {spec[:40]!r} must look like 1:[0:1]")
    idx = int(m.group(1))
    try:
        pt = (ratio(m.group(2).strip()), ratio(m.group(3).strip()))
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"fiber spec {spec[:40]!r}: coordinates must be rational")
    return idx, pt


@_command(
    _Option("--poly", required=True),
    _Option("--r", int, required=True, help="Number of projective-line factors."),
    _Option("--subst", help="Comma-separated cover exponents, e.g. 2,2,2."),
    _Option("--fiber", multiple=True,
            help="Two specs i:[a:b] selecting points in two factors."),
    _Option("--factors", multiple=True,
            help="Exact factorization of the (substituted) polynomial."),
)
def divisor(poly_text, r, subst, fibers, factor_texts):
    """Multihomogeneous polynomial checks on a product of projective lines."""
    from .divisor import (  # only this command and verify --all need it
        contains_double_fiber, parse_poly, substitute_powers, verify_factorization)

    f = parse_poly(poly_text, r)
    out = {"poly": f.to_string(), "r": r, "multidegree": list(f.degrees)}
    if fibers:
        if len(fibers) != 2:
            raise _UsageError("--fiber must be given exactly twice")
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
            raise _UsageError("--subst must be comma-separated integers")
        target = substitute_powers(f, exps)
        out["substituted"] = {"exponents": exps, "poly": target.to_string(),
                              "multidegree": list(target.degrees)}
    if factor_texts:
        factors = [parse_poly(t, r) for t in factor_texts]
        out["splitting_verified"] = verify_factorization(target, factors)
    _emit(out)


# -- front end ---------------------------------------------------------------------

# In the order the help lists them.
_COMMANDS = (corner, divisor, find_generator, hilbert, obstruction, verify)
_WIDTH = 78  # of the help text


def _suggest(name: str, names) -> str:
    """`` Did you mean ...?`` for the names close to a mistyped one."""
    from difflib import get_close_matches  # only a mistyped name needs it

    close = sorted(get_close_matches(name, names))
    if len(close) > 1:
        return f" (Did you mean one of: {', '.join(map(repr, close))}?)"
    return f" Did you mean {close[0]!r}?" if close else ""


def _scan(options: tuple, args: list, stop_at_positional: bool) -> tuple[dict, list]:
    """Split ``args`` into the raw values of each option given, in the order
    first given, and the positional arguments. An option that takes a value
    takes the next argument whatever it looks like. Options must be spelled
    in full; ``--help`` is always known."""
    known = {opt.flag: opt for opt in (*options, _HELP)}
    raw: dict = {}
    positional: list = []
    rest = iter(args)
    for arg in rest:
        if arg == "--":
            positional += rest
        elif arg[:1] != "-" or arg == "-":
            positional.append(arg)
            if stop_at_positional:
                positional += rest
        elif arg[:2] != "--":
            raise _UsageError(f"No such option {arg[:2]!r}.")
        else:
            flag, eq, value = arg.partition("=")
            opt = known.get(flag)
            if opt is None:
                raise _UsageError(f"No such option {flag!r}." + _suggest(flag, known))
            if opt.kind is bool:
                if eq:
                    raise _UsageError(f"Option {flag!r} does not take a value.")
                value = True
            elif not eq:
                value = next(rest, None)
                if value is None:
                    raise _UsageError(f"Option {flag!r} requires an argument.")
            raw.setdefault(flag, []).append(value)
    return raw, positional


def _integer(flag: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _UsageError(
            f"Invalid value for {flag!r}: {text!r} is not a valid integer.") from None


def _values(options: tuple, raw: dict) -> list:
    """The value of each option in declaration order. Values are converted
    in the order first given (the last one counts unless the option is
    ``multiple``), then a missing required option is reported."""
    known = {opt.flag: opt for opt in options}
    given = {}
    for flag, texts in raw.items():
        opt = known[flag]
        texts = texts if opt.multiple else texts[-1:]
        given[flag] = [_integer(flag, t) for t in texts] if opt.kind is int else texts
    values = []
    for opt in options:
        if opt.flag in given:
            values.append(tuple(given[opt.flag]) if opt.multiple else given[opt.flag][0])
        elif opt.required:
            raise _UsageError(f"Missing option {opt.flag!r}.")
        else:
            values.append(() if opt.multiple else False if opt.kind is bool else opt.default)
    return values


def _summary(fn) -> str:
    return " ".join(fn.__doc__.split("\n\n")[0].split())


def _rows(rows: list) -> str:
    """Two indented columns; the second is wrapped to the help width."""
    from textwrap import TextWrapper  # only --help needs it

    col = max(len(left) for left, _ in rows) + 2
    wrapper = TextWrapper(_WIDTH - col - 2, replace_whitespace=False)
    lines = []
    for left, text in rows:
        first, *more = wrapper.wrap(text)
        lines.append(f"  {left:<{col}}{first}")
        lines += [" " * (col + 2) + line for line in more]
    return "\n".join(lines) + "\n"


def _help(usage: str, fn, options: tuple, commands: tuple = ()) -> str:
    """The usage line, ``fn``'s summary, the options and any subcommands."""
    from textwrap import fill, shorten

    rows = []
    for opt in (*options, _HELP):
        label = opt.flag + {int: " INTEGER", str: " TEXT"}.get(opt.kind, "")
        extra = ("  [required]" if opt.required
                 else "" if opt.default is None else f"  [default: {opt.default}]")
        rows.append((label, (opt.help + extra).strip()))
    summary = fill(_summary(fn), _WIDTH, initial_indent="  ", subsequent_indent="  ")
    text = f"Usage: {usage}\n\n{summary}\n\nOptions:\n{_rows(rows)}"
    if commands:
        limit = _WIDTH - 6 - max(len(c.name) for c in commands)
        text += "\nCommands:\n" + _rows(
            [(c.name, shorten(_summary(c.run), limit, placeholder="...")) for c in commands])
    return text


def _run(prog: str, args: list) -> int | None:
    """Run the subcommand ``args`` name and return its exit code. A usage
    error prints the usage line of the command it belongs to and gives 2."""
    path, usage = prog, f"{prog} [OPTIONS] COMMAND [ARGS]..."
    try:
        raw, positional = _scan((), args, stop_at_positional=True)
        if "--help" in raw:
            sys.stdout.write(_help(usage, main, (), _COMMANDS))
            return 0
        if not positional:
            raise _UsageError("Missing command.")
        name, *rest = positional
        command = next((c for c in _COMMANDS if c.name == name), None)
        if command is None:
            raise _UsageError(f"No such command {name!r}."
                              + _suggest(name, [c.name for c in _COMMANDS]))
        path = f"{prog} {name}"
        usage = f"{path} [OPTIONS]"
        raw, extra = _scan(command.options, rest, stop_at_positional=False)
        if "--help" in raw:
            sys.stdout.write(_help(usage, command.run, command.options))
            return 0
        values = _values(command.options, raw)
        if extra:
            raise _UsageError(f"Got unexpected extra argument{'s' * (len(extra) > 1)}"
                              f" ({' '.join(extra)})")
        return command.run(*values)
    except _UsageError as exc:
        sys.stderr.write(f"Usage: {usage}\nTry '{path} --help' for help.\n\nError: {exc}\n")
        return 2


def _prog_name() -> str:
    """``python -m obstructor.cli`` when run as a module, else the script's name."""
    spec = getattr(sys.modules["__main__"], "__spec__", None)
    return f"python -m {spec.name}" if spec else os.path.basename(sys.argv[0])


def main(args=None, prog_name: str | None = None):
    """Exact-arithmetic engine for loop-span lifting obstructions.

    Runs the subcommand that ``args`` (default ``sys.argv[1:]``) names,
    flushes stdout and raises ``SystemExit`` with its code, so a caller in
    the same process gets the code back. This is the one place library
    errors become exit codes: an ``ObstructorError`` is an input error (exit
    2), anything else unexpected, a failed write of the output included, an
    internal error (exit 3); each prints one ``Error:`` line.
    """
    args = sys.argv[1:] if args is None else list(args)
    try:
        code = _run(prog_name or _prog_name(), args)
        sys.stdout.flush()  # a failed write is an error here, not at teardown
    except ObstructorError as exc:
        sys.stderr.write(f"Error: {exc}\n")
        code = 2
    except Exception as exc:
        message = " ".join(str(exc).split())  # one line
        sys.stderr.write(f"Error: internal error ({type(exc).__name__}): {message}\n")
        code = 3
    except KeyboardInterrupt:
        sys.stderr.write("\nAborted!\n")
        code = 130
    sys.exit(code or 0)


def run() -> None:
    """The process entry of ``obstructor`` and ``python -m obstructor.cli``.

    Runs :func:`main`, flushes stderr and ends the process with the exit
    code, skipping the interpreter's teardown: the CLI writes no file and
    registers no ``atexit`` handler, and ``main`` has flushed stdout. Under
    a tracer or profiler (cProfile, trace, coverage) the ``SystemExit``
    propagates instead, so the process exits normally and the tool reports.
    """
    try:
        main()
    except SystemExit as exc:
        monitoring = getattr(sys, "monitoring", None)  # cProfile's hook from 3.12
        if sys.gettrace() or sys.getprofile() or monitoring and any(
                map(monitoring.get_tool, range(6))):
            raise
        sys.stderr.flush()
        os._exit(exc.code)


if __name__ == "__main__":
    run()
