"""Classical Garside structure on the braid group B_n.

Simples are permutations of {1..n} stored as tuples: s[i-1] is the final
position of the strand entering at position i, and composition reads left to
right ((s*t)(i) = t(s(i))).  The atom s_i is the transposition of i, i+1; the
top element is the half twist (the order-reversing permutation).

The structure supplies the six primitives GarsideStructure asks for: the
left meet, the left quotient u^-1 t, the inversion mask (bit k set when
the k-th position pair is inverted), the reversal rev, and the
enumeration and validation of permutations.  Left divisibility is
containment of inversion sets (the weak order), so the base class tests
it, and whether a product is simple, on masks without a meet; the
starting set, the atoms whose one pair s inverts, is the descents of s.
Reading a positive word backwards inverts its permutation, so rev(s) is
s^-1, and the right side follows from it: right divisibility, the right
meet and the finishing set (the descents of s^-1).  The meet keeps a
pair of strands uncrossed when s or t does, closed under transitivity
(Epstein et al., Word Processing in Groups, Ch. 9).

inverse, inversion_mask and simple_length (the atom length of a simple,
its inversion count) are not interface primitives; they stay for callers
outside the package, such as the benchmark tracer, which wraps them by
name.  inverse is recomputed on every call: on long B8 forms a cache of
it missed about as often as it hit.
"""

from __future__ import annotations

import itertools
from functools import cache

from .structure import GarsideStructure, UnsupportedStructureOperation

# Enumerating all n! simples is only sane for small n; arithmetic has no such limit.
MAX_ENUMERABLE_STRANDS = 8

Perm = tuple


def perm_inverse(s: Perm) -> Perm:
    inv = [0] * len(s)
    for i, v in enumerate(s):
        inv[v - 1] = i + 1
    return tuple(inv)


class BraidStructure(GarsideStructure):
    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError(f"need at least 2 strands, got {n}")
        self.n = n
        self.rank = n - 1
        self.structure_id = f"braid-classical:{n}"
        self.identity = tuple(range(1, n + 1))
        self.delta = tuple(range(n, 0, -1))
        self.tau_period = 2
        atoms = []
        for i in range(1, n):
            a = list(range(1, n + 1))
            a[i - 1], a[i] = a[i], a[i - 1]
            atoms.append(tuple(a))
        self.atoms = tuple(atoms)
        super().__init__()

    # -- permutation utilities ------------------------------------------------

    def inverse(self, s: Perm) -> Perm:
        return perm_inverse(s)

    def inversion_mask(self, s: Perm) -> int:
        return self._inversion_mask[s]

    def simple_length(self, s: Perm) -> int:
        return self.inversion_mask(s).bit_count()

    # -- primitives -----------------------------------------------------------

    def _left_meet_raw(self, s: Perm, t: Perm) -> Perm:
        # after[i] has bit j when strand i ends left of strand j > i in the
        # meet; rows fill from the right, so each after[j] OR-ed in is closed
        n = self.n
        after = [0] * n
        order = [n]  # strands i+2 .. n (1-based) in their final order
        for i in range(n - 2, -1, -1):
            si, ti, row = s[i], t[i], 0
            for j in range(i + 1, n):
                if (s[j] > si or t[j] > ti) and not row >> j & 1:
                    row |= 1 << j | after[j]
            after[i] = row
            order.insert(n - 1 - i - row.bit_count(), i + 1)
        return perm_inverse(order)

    def _left_quotient_raw(self, u: Perm, t: Perm) -> Perm:
        ui = self.inverse(u)
        return tuple(t[v - 1] for v in ui)

    def _inversion_mask_raw(self, s: Perm) -> int:
        # bit k stands for the k-th position pair (i, j), i < j, in
        # combinations order; it is set when the pair is inverted
        mask = 0
        for bit, (a, b) in enumerate(itertools.combinations(s, 2)):
            if a > b:
                mask |= 1 << bit
        return mask

    def _rev_raw(self, s: Perm) -> Perm:
        return perm_inverse(s)

    def is_simple_value(self, s) -> bool:
        return isinstance(s, tuple) and sorted(s) == list(range(1, self.n + 1))

    def all_simples(self):
        if self.n > MAX_ENUMERABLE_STRANDS:
            raise UnsupportedStructureOperation(
                f"cannot enumerate {self.n}! simples; bound is n <= {MAX_ENUMERABLE_STRANDS}")
        return itertools.permutations(range(1, self.n + 1))


@cache
def braid_structure(n: int) -> BraidStructure:
    return BraidStructure(n)


def simple_from_word(st: BraidStructure, word) -> Perm:
    """The simple with reduced atom word `word`; rejects non-reduced words."""
    cur = st.identity
    for i in word:
        nxt = st.compose(cur, st.atom(i))
        if nxt is None:
            raise ValueError(f"atom word {tuple(word)} is not reduced")
        cur = nxt
    return cur


def embed_simple(s: Perm, offset: int, m: int) -> Perm:
    """Embed a simple of B_k into B_m acting on strands offset+1 .. offset+k."""
    k = len(s)
    if offset < 0 or offset + k > m:
        raise ValueError(f"cannot place {k} strands at offset {offset} inside B_{m}")
    out = list(range(1, m + 1))
    for i, v in enumerate(s):
        out[offset + i] = v + offset
    return tuple(out)
