"""Classical Garside structure on the braid group B_n.

Simples are permutations of {1..n} stored as tuples: s[i-1] is the final
position of the strand entering at position i, and composition reads left to
right ((s*t)(i) = t(s(i))).  The atom s_i is the transposition of i, i+1; the
top element is the half twist (the order-reversing permutation).

The structure supplies what GarsideStructure asks for: its id, n, the
atoms, the identity, delta and six primitives, namely the slide, the
left quotient u^-1 t, the inversion mask (bit k set when the k-th
position pair is inverted), the reversal rev, and the enumeration and
validation of permutations.  Left divisibility is containment of
inversion sets (the weak order), so the base class tests it, and whether
a product is simple, on masks without a meet; the starting set, the
atoms whose one pair s inverts, is the descents of s.  Reading a positive
word backwards inverts its permutation, so rev(s) is s^-1, and the right
side follows from it: right divisibility, the right meet and the
finishing set (the descents of s^-1).  It also fills make_element's
_simple_bits from descents, in one scan of s and of s^-1, where the
base class would build the inversion masks and starting sets of s and
of ∂s.

The slide of (c, f) works on strands.  A pair is left-weighted exactly
when d = ∂c and f share no descent (El-Rifai and Morton, 1994), which one
scan tells; the slide rows of long B8 forms miss mostly on such pairs.
Otherwise every common atom divides the meet u = d ^ f (Epstein et al.,
Word Processing in Groups, Ch. 9), so the slide divides common descents
out of d and f, one position swap each, until none is left: one pass
that steps back after each swap, linear in n plus the length of u.
What remains of f is u^-1 f, and c u is delta times the inverse of what
remains of d.

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
        self.structure_id = f"braid-classical:{n}"
        self.identity = tuple(range(1, n + 1))
        self.delta = tuple(range(n, 0, -1))
        atoms = []
        for i in range(1, n):
            a = list(range(1, n + 1))
            a[i - 1], a[i] = a[i], a[i - 1]
            atoms.append(tuple(a))
        self.atoms = tuple(atoms)
        # what is_simple_value compares against, built once
        self._strands = list(self.identity)
        super().__init__()

    # -- permutation utilities ------------------------------------------------

    def inverse(self, s: Perm) -> Perm:
        return perm_inverse(s)

    def inversion_mask(self, s: Perm) -> int:
        return self._inversion_mask[s]

    def simple_length(self, s: Perm) -> int:
        return self.inversion_mask(s).bit_count()

    # -- primitives -----------------------------------------------------------

    def _slide_raw(self, c: Perm, f: Perm) -> tuple | None:
        # a common descent i of d = ∂c and f is an atom s_(i+1) left-dividing
        # both, so without one the meet u = d ^ f is 1 and (c, f) is
        # left-weighted
        d, n = self._right_complement[c], self.n
        for i in range(n - 1):
            if f[i] > f[i + 1] and d[i] > d[i + 1]:
                break
        else:
            return None
        # an atom dividing both divides u, so u is found by dividing common
        # atoms out of d and f until none is left: dividing by s_(i+1) swaps
        # positions i and i+1, and only the descents at i - 1 and i + 1 can
        # change, so one pass that steps back after each swap ends with
        # d = u^-1 ∂c and f = u^-1 f
        d, f = list(d), list(f)
        while i < n - 1:
            if f[i] > f[i + 1] and d[i] > d[i + 1]:
                d[i], d[i + 1] = d[i + 1], d[i]
                f[i], f[i + 1] = f[i + 1], f[i]
                if i:
                    i -= 1
            else:
                i += 1
        # c u = delta (u^-1 ∂c)^-1, and delta y is y read backwards
        return perm_inverse(d)[::-1], tuple(f)

    def _left_quotient_raw(self, u: Perm, t: Perm) -> Perm:
        return tuple(t[v - 1] for v in perm_inverse(u))

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

    def _simple_bits_raw(self, s) -> tuple[int, int] | None:
        # s_(i+1) starts s iff s has a descent at i, and it starts
        # ∂s = s^-1 delta, which reads s^-1 backwards in values, iff s^-1
        # has an ascent at i
        if not self.is_simple_value(s):
            return None
        inv, start, comp = perm_inverse(s), 0, 0
        for i in range(self.n - 1):
            if s[i] > s[i + 1]:
                start |= 1 << i
            if inv[i] < inv[i + 1]:
                comp |= 1 << i
        return start, comp

    def is_simple_value(self, s) -> bool:
        # every entry exactly an int first: 2.0 and True sort and compare
        # as ints do, and "a" would not sort among them
        return (isinstance(s, tuple) and [*map(type, s)] == self._int_types
                and sorted(s) == self._strands)

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
