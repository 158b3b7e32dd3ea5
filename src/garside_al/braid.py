"""Classical Garside structure on the braid group B_n.

Simples are permutations of {1..n} stored as tuples: s[i-1] is the final
position of the strand entering at position i, and composition reads left to
right ((s*t)(i) = t(s(i))).  The atom s_i is the transposition of i, i+1; the
top element is the half twist (the order-reversing permutation).

The structure supplies the primitives GarsideStructure asks for: the left
meet, the left quotient u^-1 t, the right complement s^-1 Δ, the starting
set (the descents of s), the reversal rev, and the enumeration and
validation of permutations.  Reading a positive word backwards inverts its
permutation, so rev(s) is s^-1; the base class derives the right meet and
the finishing set (the descents of s^-1) from it, and τ, the left
complement, the simple product and the right quotient from the right
complement.  simple_length, the atom length of a simple (its inversion
count), is not an interface primitive; it stays for callers outside the
package, such as the benchmark tracer, which wraps it by name.

Left divisibility of simples is inversion-set containment (the weak order),
which left_divides_simple tests on the cached masks without a meet, so the
derived product tests simplicity without one either; right divisibility is
containment of the inverses' inversion sets, which right_divides_simple
tests on a second cached mask per simple.  The meet keeps a pair of
strands uncrossed when s or t does, closed under transitivity (Epstein et
al., Word Processing in Groups, Ch. 9).  Both masks join the primitives
the base class caches per instance, so repeated normal form work on the
same structure amortizes to cache hits.  inverse is recomputed on every
call: on long B8 forms a cache of it missed about as often as it hit.
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
    _CACHED = GarsideStructure._CACHED + ("inversion_mask", "inverse_mask")

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
        return self._inversion_mask(s)

    def _inversion_mask_raw(self, s: Perm) -> int:
        # bit k stands for the k-th position pair (i, j), i < j, in
        # combinations order; it is set when the pair is inverted
        mask = 0
        for bit, (a, b) in enumerate(itertools.combinations(s, 2)):
            if a > b:
                mask |= 1 << bit
        return mask

    def inverse_mask(self, s: Perm) -> int:
        """The inversion mask of s^-1."""
        return self._inverse_mask(s)

    def _inverse_mask_raw(self, s: Perm) -> int:
        return self._inversion_mask_raw(self.inverse(s))

    def simple_length(self, s: Perm) -> int:
        return self.inversion_mask(s).bit_count()

    def left_divides_simple(self, s: Perm, t: Perm) -> bool:
        ms = self.inversion_mask(s)
        return ms & self.inversion_mask(t) == ms

    def right_divides_simple(self, s: Perm, t: Perm) -> bool:
        # s right-divides t iff s^-1 left-divides t^-1
        ms = self._inverse_mask(s)
        return ms & self._inverse_mask(t) == ms

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
        return self._intern(perm_inverse(order))

    def _left_quotient_raw(self, u: Perm, t: Perm) -> Perm:
        ui = self.inverse(u)
        return tuple(t[v - 1] for v in ui)

    def _right_complement_raw(self, s: Perm) -> Perm:
        n1 = self.n + 1
        si = self.inverse(s)
        return tuple(n1 - v for v in si)

    def _starting_set_raw(self, s: Perm) -> frozenset:
        return frozenset(i for i in range(1, self.n) if s[i - 1] > s[i])

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
