"""Free abelian group Z^n with the coordinatewise Garside structure.

Simples are 0/1 vectors, the top element is (1,...,1), and the lattice is the
boolean lattice under coordinatewise min.  The structure supplies the
meets, the left quotient (coordinatewise difference), the right complement
(1 - s), the starting and finishing sets, the length, and the enumeration
and validation of vectors; τ, the left complement, the simple product and
the right quotient are derived in the base class.  Everything commutes, so
tau is the identity and left/right notions coincide.  Degenerate on
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

    def simple_length(self, s: Vec) -> int:
        return sum(s)

    def _left_meet_raw(self, s: Vec, t: Vec) -> Vec:
        return tuple(min(a, b) for a, b in zip(s, t))

    def _right_meet_raw(self, s: Vec, t: Vec) -> Vec:
        return self._left_meet_raw(s, t)

    def _left_quotient_raw(self, u: Vec, t: Vec) -> Vec:
        r = tuple(b - a for a, b in zip(u, t))
        assert all(v >= 0 for v in r), "left quotient of a non-divisor"
        return r

    def _right_complement_raw(self, s: Vec) -> Vec:
        return tuple(1 - v for v in s)

    def _starting_set_raw(self, s: Vec) -> frozenset:
        return frozenset(i + 1 for i, v in enumerate(s) if v == 1)

    def _finishing_set_raw(self, s: Vec) -> frozenset:
        return self._starting_set_raw(s)

    def is_simple_value(self, s) -> bool:
        return (isinstance(s, tuple) and len(s) == self.n
                and all(v in (0, 1) for v in s))

    def all_simples(self):
        return itertools.product((0, 1), repeat=self.n)


@cache
def abelian_structure(n: int) -> AbelianStructure:
    return AbelianStructure(n)
