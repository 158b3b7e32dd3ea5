"""Free abelian group Z^n with the coordinatewise Garside structure.

Simples are 0/1 vectors, the top element is (1,...,1), and the lattice is the
boolean lattice under coordinatewise min.  The structure supplies the six
primitives: the left meet, the left quotient (coordinatewise difference),
the inversion mask (the support, one bit per coordinate), the reversal
rev, and the enumeration and validation of vectors; the base class
derives everything else, divisibility, the right complement (1 - s) and
the starting and finishing sets included.  Everything commutes, so rev
and tau are the identity and left/right notions coincide.  Degenerate on
purpose: a regression fixture for code paths that braids cannot reach
(commutativity, trivial tau).
"""

from __future__ import annotations

import itertools
from functools import cache

from .structure import GarsideStructure

Vec = tuple


class AbelianStructure(GarsideStructure):
    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"need at least 1 coordinate, got {n}")
        self.n = n
        self.rank = n
        self.structure_id = f"free-abelian:{n}"
        self.identity = (0,) * n
        self.delta = (1,) * n
        self.tau_period = 1
        self.atoms = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
        super().__init__()

    def _left_meet_raw(self, s: Vec, t: Vec) -> Vec:
        return tuple(min(a, b) for a, b in zip(s, t))

    def _left_quotient_raw(self, u: Vec, t: Vec) -> Vec:
        r = tuple(b - a for a, b in zip(u, t))
        assert all(v >= 0 for v in r), "left quotient of a non-divisor"
        return r

    def _inversion_mask_raw(self, s: Vec) -> int:
        return sum(v << i for i, v in enumerate(s))

    def _rev_raw(self, s: Vec) -> Vec:
        return s

    def is_simple_value(self, s) -> bool:
        return (isinstance(s, tuple) and len(s) == self.n
                and all(v in (0, 1) for v in s))

    def all_simples(self):
        return itertools.product((0, 1), repeat=self.n)


@cache
def abelian_structure(n: int) -> AbelianStructure:
    return AbelianStructure(n)
