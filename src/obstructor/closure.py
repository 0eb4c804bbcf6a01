"""The fixed-point engine, and Q-subrng closure as its one-vertex case.

``fixed_point`` computes the least fixed point of "adjoin every product" on a
table of cells (a, b). Each cell is an echelonized span, started from its
seed vectors. For every triple (a, c, b) whose three cells exist, the engine
adjoins to cell (a, b) the products of cell (a, c) with cell (c, b) under the
triple's product rule, until a round adds nothing. Evaluation is semi-naive
(Bancilhon & Ramakrishnan, SIGMOD 1986): a triple only multiplies pairs with
at least one factor that is new since its last visit, which is
span-equivalent because older pairs were already adjoined. Two rules fix the
reported ``rounds`` (the rounds that grew some cell):

* both factor-list lengths are frozen when a triple starts, so a vector
  found during the triple waits for the triple's next visit;
* a cell takes no products once full or once certified at its final
  dimension.

A product into a cell at its final dimension cannot grow it, so skipping it
changes no decision. The final dimensions are certified lazily: the first
time a cell has taken more than twice its current dimension in products that
did not grow it, one ``spin`` from the current spans, stepping on the left by
the seeds, spans the final table. That is exact because the product rules
are associative (checked for every algebra at construction, and inherited
by matrix composition over it): every element of the closure is a sum of
left-nested words in the seeds. Full tables rarely reach the trigger.

The engine runs on primitive integer vectors: seeds are scaled to integers
and every rule is an algebra's integer rule, whose products are fixed
positive multiples (its ``scale``) of the true ones. Every decision is a
span-membership test, which scaling a vector by a nonzero rational leaves
unchanged, and products are bilinear; so the trajectory, the ``rounds`` and
the spans are those of the same iteration over Q.

The path-span table of :mod:`obstruction` is the engine over the vertices of
a graph. Subrng closure is the one-vertex table: its only cell is the whole
algebra, seeded with the generators, and its rule is the algebra's own
multiplication table. The unit is never adjoined.

Every closure reads a table as ``(cells, seeds, rule)``. ``spin`` (MeatAxe
spinning, Parker 1984, over Q) steps it on the left by letters, never
multiplying two span vectors; with the seeds as letters it serves both
independent cross-checks, ``stabilized_word_span`` and
:func:`obstruction.loop_oracle`, and mod the prime :data:`MODULUS`, in
``full_mod_p`` alone, it certifies that a span is full.
Let V be the Q-span of a cell's words and L = V ∩ Z_(p)^n. The seeds are
primitive integer vectors and every rule is an integer rule, so every word
lies in L. L is a saturated lattice of rank dim V, so its reduction mod p
has dimension dim V, and the mod-p span of the words is at most that. A
full mod-p span therefore proves V full, whose canonical basis is the
identity. This holds for any prime, whatever the denominators, and needs no
associativity, since the closure contains every word. A mod-p span that is
not full proves nothing, and the caller falls back to the exact path:
``generates_fully`` to ``subrng_closure``, and
:func:`obstruction.compute_obstruction` to the path-span table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .algebra import AlgElement, Rule, StructureAlgebra, rule_product
from .errors import AlgebraValidationError
from .linalg import Echelon, EchelonModP, Subspace, Vec, primitive

__all__ = ["MODULUS", "SubrngResult", "fixed_point", "spin", "subrng_closure",
           "full_mod_p", "generates_fully", "stabilized_word_span"]

# The one prime of the mod-p fullness certificates, fixed so that every run
# takes the same path.
MODULUS = 2**61 - 1

_CELL = (0, 0)  # the one cell of a subrng closure's table


def fixed_point(cells: Mapping[tuple, int],
                seeds: Mapping[tuple, Sequence[Vec]],
                rule: Callable[..., Rule]) -> tuple[dict, int]:
    """Close a table of spans under composition of its cells.

    ``cells`` maps each cell (a, b) to its ambient dimension, ``seeds`` gives
    the starting vectors of a cell, and ``rule(a, c, b)`` is the integer
    product rule from cells (a, c) and (c, b) into (a, b). Triples are
    visited in the order of ``cells``. Returns ``({cell: Echelon}, rounds)``.

    A cell takes no products once at its cap: its ambient dimension, until
    some cell has taken more than twice its current dimension in products
    that did not grow it. Then one :func:`spin` from the current spans,
    stepping on the left by the seeds, spans the final table, and its
    dimensions become the caps. This needs associative rules, so that the
    closure is spanned by left-nested words in the seeds.
    """
    ech: dict[tuple, Echelon] = {}
    spanning: dict[tuple, list[tuple[int, ...]]] = {}
    for cell, ambient in cells.items():
        ech[cell] = target = Echelon(ambient)
        spanning[cell] = [primitive(v) for v in seeds.get(cell, ())
                          if target.add(v)]
    letters = {cell: list(vs) for cell, vs in spanning.items()}
    cap = dict(cells)
    misses: Optional[dict[tuple, int]] = dict.fromkeys(cells, 0)
    triples = _triples(cells, cells)
    marks: dict[tuple, tuple[int, int]] = {}
    rounds = 0
    changed = True
    while changed:
        changed = False
        for a, c, b in triples:
            us = spanning[(a, c)]
            vs = spanning[(c, b)]
            n1, n2 = len(us), len(vs)
            m1, m2 = marks.get((a, c, b), (0, 0))
            if n1 == m1 and n2 == m2:
                continue
            marks[(a, c, b)] = (n1, n2)
            target = ech[(a, b)]
            if target.dim == cap[(a, b)] or not n1 or not n2:
                continue
            r = rule(a, c, b)
            bucket = spanning[(a, b)]
            for x in range(n1):
                u = us[x]
                for y in range(m2 if x < m1 else 0, n2):
                    prod = rule_product(r, u, vs[y], target.ambient, 0)
                    if target.add(prod):
                        bucket.append(primitive(prod))
                        changed = True
                    elif misses is not None:
                        misses[(a, b)] += 1
                        if misses[(a, b)] > 2 * target.dim:
                            final, _ = spin(cells, spanning, letters, rule)
                            cap = {cell: e.dim for cell, e in final.items()}
                            misses = None
                    if target.dim == cap[(a, b)]:
                        break
                if target.dim == cap[(a, b)]:
                    break
        rounds += changed
    return ech, rounds


def _triples(left: Mapping[tuple, object], cells: Mapping[tuple, int]) -> list:
    """The triples (a, c, b) with (a, c) in ``left`` and (c, b), (a, b) in
    ``cells``, in the order of ``left``, then of ``cells``, in O(r^3)."""
    after: dict = {}
    for c, b in cells:
        after.setdefault(c, []).append(b)
    return [(a, c, b) for (a, c) in left for b in after.get(c, ())
            if (a, b) in cells]


def spin(cells: Mapping[tuple, int], seeds: Mapping[tuple, Sequence[Vec]],
         letters: Mapping[tuple, Sequence[Vec]], rule: Callable[..., Rule],
         max_len: Optional[int] = None,
         modulus: Optional[int] = None) -> tuple[dict, int]:
    """Span the words in the letters, length by length.

    ``cells``, ``seeds`` and ``rule`` are as for :func:`fixed_point`, the
    seeds being the words of length 1. Each letter x of ``letters[(a, c)]``
    maps w in cell (c, b) to x*w in cell (a, b) under ``rule(a, c, b)``;
    these steps are walked in the order of ``letters``, then of ``cells``.
    The words of length L+1 span those up to length L plus the steps of the
    primitive vectors that grew a source at length L, so only those are
    multiplied, and a length that grows no cell is final. New vectors wait
    for the next length, and a full target is skipped. Stops then, after at
    most sum(cells) + 1 lengths, or at ``max_len`` letters. Returns
    ``({cell: Echelon}, last length built)``.

    With a prime ``modulus`` p, the seeds (made primitive) and the products
    are reduced mod p and each cell is an :class:`EchelonModP`, so the
    spans are those of the words reduced mod p. A cell full mod p proves
    the words' Q-span full (see the module docstring); a partial one
    proves nothing.
    """
    if modulus is None:
        new, norm = Echelon, primitive
    else:
        def new(ambient):
            return EchelonModP(ambient, modulus)

        def norm(v):
            return [x % modulus for x in v]

        seeds = {cell: [primitive(v) for v in vs] for cell, vs in seeds.items()}
    steps = [((a, b), (c, b), rule(a, c, b), primitive(x))
             for a, c, b in _triples(letters, cells) for x in letters[(a, c)]]
    ech, fresh = {}, {}
    for cell, ambient in cells.items():
        ech[cell] = target = new(ambient)
        fresh[cell] = [norm(v) for v in seeds.get(cell, ()) if target.add(v)]
    length = 1
    while length != max_len and any(fresh.values()):
        grown = {cell: [] for cell in cells}
        for target, source, r, x in steps:
            span = ech[target]
            for w in fresh[source]:
                if span.is_full():
                    break
                prod = rule_product(r, x, w, span.ambient, 0)
                if span.add(prod):
                    grown[target].append(norm(prod))
        fresh = grown
        length += 1
    return ech, length


@dataclass(frozen=True)
class SubrngResult:
    """Outcome of a subrng closure: the span, the generators, and the number
    of product rounds that enlarged the span."""

    span: Subspace
    generators: tuple[AlgElement, ...]
    rounds: int


def _check_gens(algebra: StructureAlgebra, gens) -> tuple[AlgElement, ...]:
    out = tuple(gens)
    for x in out:
        if not isinstance(x, AlgElement) or x.algebra is not algebra:
            raise AlgebraValidationError("generator outside the given algebra")
    return out


def _word_table(algebra: StructureAlgebra, gens: Sequence[AlgElement]) -> tuple:
    """``(cells, seeds, rule)`` of the one-cell table: the whole algebra,
    seeded with ``gens``, under the algebra's own rule."""
    return ({_CELL: algebra.dim}, {_CELL: [g.coeffs for g in gens]},
            lambda a, c, b: algebra.rule)


def subrng_closure(algebra: StructureAlgebra, gens: Iterable[AlgElement],
                   allow_empty: bool = False) -> SubrngResult:
    """Smallest Q-subspace of ``algebra`` that contains ``gens`` and every
    product of its elements, as a canonical echelonized subspace.

    An empty generator list is only legal with ``allow_empty=True`` and yields
    the zero subrng.
    """
    gens = _check_gens(algebra, gens)
    if not gens and not allow_empty:
        raise AlgebraValidationError(
            "empty generator set (pass allow_empty=True for the zero subrng)")
    ech, rounds = fixed_point(*_word_table(algebra, gens))
    return SubrngResult(span=ech[_CELL].to_subspace(), generators=gens,
                        rounds=rounds)


def full_mod_p(cells: Mapping[tuple, int], seeds: Mapping[tuple, Sequence[Vec]],
               rule: Callable[..., Rule], cell: tuple) -> bool:
    """True when ``cell`` is full in the :func:`spin` of the table mod
    :data:`MODULUS`, the seeds being the letters: a proof that its closure
    is full over Q (see the module docstring). False proves nothing."""
    return spin(cells, seeds, seeds, rule, modulus=MODULUS)[0][cell].is_full()


def generates_fully(algebra: StructureAlgebra, gens: Iterable[AlgElement]) -> bool:
    """True when the subrng generated by ``gens`` is all of ``algebra``.

    The words in ``gens`` are spun first mod :data:`MODULUS`; a full span
    there is a proof. Otherwise the exact :func:`subrng_closure` decides.
    """
    gens = _check_gens(algebra, gens)
    return (full_mod_p(*_word_table(algebra, gens), _CELL)
            or subrng_closure(algebra, gens, allow_empty=True).span.is_full())


def stabilized_word_span(algebra: StructureAlgebra, gens: Iterable[AlgElement],
                         max_len: Optional[int] = None) -> tuple[Subspace, int]:
    """Span of all products of generators, in order, built length by length
    until one length step adds nothing (which is permanent) or the words
    reach ``max_len`` letters. Returns (span, last length built).

    Independent of :func:`subrng_closure`: the :func:`spin` of the one-cell
    table, whose letters are the generators. Monotone in ``max_len``.
    """
    gens = _check_gens(algebra, gens)
    if max_len is not None and max_len < 1:
        raise ValueError("max_len must be >= 1")
    cells, seeds, rule = _word_table(algebra, gens)
    ech, length = spin(cells, seeds, seeds, rule, max_len)
    return ech[_CELL].to_subspace(), length
