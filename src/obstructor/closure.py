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

Each cell decides membership mod the prime :data:`MODULUS`, and every
decision is proven (see ``_Cell``):

* a growth, by rank: the primitive vectors S that grew a cell keep
  rank_p(S) = |S| = rank_Q(S), so a product v outside span_p(S) has
  rank_Q[S; v] >= |S| + 1;
* a non-growth, by an exact identity: v's coordinates in S mod p, or mod
  p^2 after one p-adic lifting step (Dixon 1982), are rationally
  reconstructed (Wang, Guy and Davenport 1982) to y, and d*v = sum (d*y_j)
  s_j is checked in integers. When that fails, an exact :class:`Echelon`
  over S decides, and a growth it finds demotes the cell to exact
  arithmetic for the rest of the call;
* the result: a cell full mod p is full over Q, with the identity as its
  canonical basis, and a partial cell's basis is the RREF of the exact
  echelon the caps' spin built for it, or else of one exact ``Echelon``
  pass over S.

So the decisions, the ``rounds`` and the spans are the exact engine's.

The path-span table of :mod:`obstruction` is the engine over the vertices of
a graph. Subrng closure is the one-vertex table: its only cell is the whole
algebra, seeded with the generators, and its rule is the algebra's own
multiplication table. The unit is never adjoined.

Every closure reads a table as ``(cells, seeds, rule)``. ``spin`` (MeatAxe
spinning, Parker 1984, over Q) steps it on the left by letters, never
multiplying two span vectors; with the seeds as letters it serves both
independent cross-checks, ``stabilized_word_span`` and
:func:`obstruction.loop_oracle`, and mod :data:`MODULUS`, in ``full_mod_p``
alone, it certifies that a span is full.
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
from math import gcd, isqrt, lcm
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .algebra import AlgElement, Rule, StructureAlgebra, rule_product
from .errors import AlgebraValidationError
from .linalg import Echelon, EchelonModP, Subspace, Vec, primitive

__all__ = ["MODULUS", "SubrngResult", "fixed_point", "spin", "subrng_closure",
           "full_mod_p", "generates_fully", "stabilized_word_span"]

# The one prime of the engine's cells and of the mod-p fullness certificate,
# fixed so that every run takes the same path.
MODULUS = 2**61 - 1

_CELL = (0, 0)  # the one cell of a subrng closure's table


def fixed_point(cells: Mapping[tuple, int],
                seeds: Mapping[tuple, Sequence[Vec]],
                rule: Callable[..., Rule]) -> tuple[dict, int]:
    """Close a table of spans under composition of its cells.

    ``cells`` maps each cell (a, b) to its ambient dimension, ``seeds`` gives
    the starting vectors of a cell, and ``rule(a, c, b)`` is the integer
    product rule from cells (a, c) and (c, b) into (a, b). Triples are
    visited in the order of ``cells``. Returns ``({cell: Subspace}, rounds)``.

    A cell takes no products once at its cap: its ambient dimension, until
    some cell has taken more than twice its current dimension in products
    that did not grow it. Then one :func:`spin` from the current spans,
    stepping on the left by the seeds, spans the final table, and its
    dimensions become the caps. This needs associative rules, so that the
    closure is spanned by left-nested words in the seeds.

    Each cell decides membership mod :data:`MODULUS` and proves every
    decision (see the module docstring), so each one is the exact one.
    """
    table = {cell: _Cell(ambient, MODULUS) for cell, ambient in cells.items()}
    spanning: dict[tuple, list[tuple[int, ...]]] = {}
    for cell, target in table.items():
        for v in seeds.get(cell, ()):
            target.add(primitive(v))
        spanning[cell] = target.grown
    letters = {cell: list(vs) for cell, vs in spanning.items()}
    cap = dict(cells)
    misses: Optional[dict[tuple, int]] = dict.fromkeys(cells, 0)
    final: dict[tuple, Echelon] = {}
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
            target = table[(a, b)]
            if target.dim == cap[(a, b)] or not n1 or not n2:
                continue
            r = rule(a, c, b)
            for x in range(n1):
                u = us[x]
                for y in range(m2 if x < m1 else 0, n2):
                    prod = rule_product(r, u, vs[y], target.ambient, 0)
                    if target.add(prod):
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
    return {cell: target.span(final.get(cell)) for cell, target in table.items()}, rounds


class _Cell:
    """One cell of :func:`fixed_point`: the primitive vectors S that grew
    it, their echelon mod a prime p, and an exact :class:`Echelon` that
    lags behind S.

    It keeps rank_p(S) = |S| = rank_Q(S). A vector outside span_p(S) grows
    the Q-span, since rank_Q[S; v] >= rank_p[S; v] = |S| + 1; that keeps
    the invariant, and the decision is proven mod p alone. A vector inside
    span_p(S) is only claimed to lie in span_Q(S). The claim stands when
    its coordinates mod p, or else mod p^2 (:meth:`_lift`), combine S to
    it exactly (:func:`_combines`). Otherwise the exact echelon catches up
    with S and decides (:meth:`_exact`); if it finds a growth, the prime
    missed one, and the cell is demoted to its exact echelon for the rest
    of the call. A cell full mod p is full over Q.
    """

    __slots__ = ("ambient", "grown", "modp", "exact", "synced")

    def __init__(self, ambient: int, p: int):
        self.ambient = ambient
        self.grown: list[tuple[int, ...]] = []
        self.modp: Optional[EchelonModP] = EchelonModP(ambient, p, coordinates=True)
        self.exact = Echelon(ambient)
        self.synced = 0  # the vectors of ``grown`` in ``exact``

    @property
    def dim(self) -> int:
        return len(self.grown)

    def add(self, v: Sequence[int]) -> bool:
        """Insert the integer vector ``v``. Returns True when the span
        grew."""
        g = gcd(*v)
        s = tuple(x // g for x in v) if g > 1 else tuple(v)
        if self.modp is None:
            return self._exact(s)
        x = self.modp.insert(s)
        if x is None:
            self.grown.append(s)
            return True
        if _combines(s, self.grown, x, self.modp.p) or self._lift(s, x):
            return False
        return self._exact(s)

    def _lift(self, s: tuple[int, ...], x: list[int]) -> bool:
        """True when ``s``, whose coordinates mod p are ``x``, is proven to
        lie in span_Q(S) by its coordinates mod p^2, after one p-adic
        lifting step (Dixon 1982). With x in [0, p), s - sum x_j s_j is p
        times an integer vector, whose coordinates mod p are the next
        p-adic digits. If s lies in span_Q(S), its coordinates have no p
        in their denominators, because S has a |S|-minor that is nonzero
        mod p."""
        grown, p = self.grown, self.modp.p
        r = s
        for c, v in zip(x, grown):
            if c:
                r = [a - c * b for a, b in zip(r, v)]
        digits = self.modp.solve([a // p for a in r])
        return digits is not None and _combines(
            s, grown, [a + p * b for a, b in zip(x, digits)], p * p)

    def _exact(self, s: tuple[int, ...]) -> bool:
        """Decide ``s`` on the exact echelon, caught up with S. A growth
        found here was missed mod p: the cell is demoted to its exact
        echelon for the rest of the call."""
        self._catch_up()
        if not self.exact.add(s):
            return False
        self.modp = None
        self.grown.append(s)
        self.synced += 1
        return True

    def _catch_up(self) -> None:
        for s in self.grown[self.synced:]:
            self.exact.add(s)
        self.synced = len(self.grown)

    def span(self, final: Optional[Echelon] = None) -> Subspace:
        """The canonical span: the identity when full mod p, else the RREF
        of ``final``, an exact echelon of the same span when the caps' spin
        has built one, or of the exact echelon over S."""
        if self.modp is not None and self.modp.is_full():
            return Subspace.full(self.ambient)
        if final is None:
            self._catch_up()
            final = self.exact
        return final.to_subspace()


def _rational(x: int, m: int, bound: int) -> Optional[tuple[int, int]]:
    """A fraction n/d with n = d*x (mod m), |n| <= bound and 0 < d <= bound,
    by the half extended Euclidean algorithm (Wang, Guy and Davenport 1982),
    or None."""
    if x <= bound:
        return x, 1
    if m - x <= bound:
        return x - m, 1
    r0, r1, t0, t1 = m, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    return (r1, t1) if t1 <= bound else None


def _combines(s: Sequence[int], grown: Sequence[Sequence[int]], x: Sequence[int],
              m: int) -> bool:
    """True when the coordinates ``x`` of ``s`` mod m reconstruct to
    fractions y_j = n_j/d_j with d*s = sum (d*y_j) grown_j exactly, d the
    lcm of the d_j: a proof that ``s`` lies in the Q-span of ``grown``."""
    bound = isqrt(m // 2)
    ys = []
    for j, c in enumerate(x):
        if c:
            y = _rational(c, m, bound)
            if y is None:
                return False
            ys.append((j, *y))
    d = lcm(*(den for _, _, den in ys))
    acc = [d * c for c in s] if d > 1 else s
    for j, num, den in ys:
        k = num * (d // den)
        acc = [a - k * b for a, b in zip(acc, grown[j])]
    return not any(acc)


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
    spans, rounds = fixed_point(*_word_table(algebra, gens))
    return SubrngResult(span=spans[_CELL], generators=gens, rounds=rounds)


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
