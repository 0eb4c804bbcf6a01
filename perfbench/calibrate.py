"""Fixed reference work that measures how fast the machine is right now.

Usage: python calibrate.py

The shared machine's speed drifts by a quarter and more over minutes, and
the drift moves every timing of a run together. This script does a fixed
amount of the same kind of work as obstructor's hot loops: ``Fraction``
products accumulated in dicts, and sparse reduced-row-echelon insertion with
coefficient swell. It uses only the standard library, so no change to the
program can change its cost. ``run.py`` runs it as a fresh child between the
instances and scales its timings by (reference time / measured time).
"""

import random
from bisect import bisect_left
from fractions import Fraction

_DIM = 24
_ROUNDS = 4


def _insert(rows: list, pivots: list, v: dict) -> None:
    for pc, row in zip(pivots, rows):
        c = v.get(pc)
        if c:
            for k, rk in row.items():
                nk = v.get(k, 0) - c * rk
                if nk:
                    v[k] = nk
                else:
                    v.pop(k, None)
    if not v:
        return
    piv = min(v)
    inv = 1 / v[piv]
    new = {k: c * inv for k, c in v.items()}
    for row in rows:
        c = row.get(piv)
        if c:
            for k, nk in new.items():
                rk = row.get(k, 0) - c * nk
                if rk:
                    row[k] = rk
                else:
                    row.pop(k, None)
    at = bisect_left(pivots, piv)
    pivots.insert(at, piv)
    rows.insert(at, new)


def main() -> None:
    rng = random.Random(0)
    for _ in range(_ROUNDS):
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(_DIM)]
        rows: list = []
        pivots: list = []
        for _ in range(_DIM):
            b = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(_DIM)]
            prod: dict = {}
            for i, x in enumerate(a):
                for j in range(i, _DIM):
                    k = (i * j) % _DIM
                    prod[k] = prod.get(k, 0) + x * b[j]
            _insert(rows, pivots, {k: c for k, c in prod.items() if c})


if __name__ == "__main__":
    main()
