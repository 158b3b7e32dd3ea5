"""Garside structure interface.

A GarsideStructure packages the combinatorial data the normal form machinery
needs about one group: the ordered atoms, the lattice of simple elements
(divisors of the top element), complements, quotients, and the inner
automorphism induced by the top element.  Simples are opaque hashable values
(tuples in both concrete structures shipped here); elements built from them
live in element.py.

A concrete structure supplies only the primitives that define it: the left
meet, the left quotient u^-1 t, the right complement ∂s = s^-1 Δ, the
starting set, the word reversal rev, and the enumeration and validation of
simples (all_simples, is_simple_value).  The rest is derived here, as in
any Garside structure (Dehornoy et al., Foundations of Garside Theory,
Ch. I and V):

- τ = ∂², since ∂(∂s) = Δ^-1 s Δ;
- the left complement Δ s^-1 is ∂^-1 = τ^-1 ∘ ∂;
- s*t is simple iff t left-divides ∂s, and then s*t = ∂^-1(t^-1 ∂s);
- the right quotient s g^-1 is (∂^-1 s)^-1 (∂^-1 g);
- rev is an anti-automorphism that fixes the atoms and Δ, so it swaps
  left and right divisibility: the right meet of s and t is
  rev(rev s ∧ rev t), and the finishing set of s is the starting set of
  rev s.

A τ that disagrees with the structure's own complement therefore cannot be
written.  rev exists in both shipped structures (on braids it reads a word
backwards, which inverts the permutation; on Z^n it is the identity), and
element.py reads right normal forms and right gcds through it.

The normal form algorithms hit the same few simples over and over, so
each name in _CACHED (the left meet, slide, τ, both complements, the
starting and finishing sets, nontrivial_simples, preceders and rev) gets
its own functools.cache per instance around the bound _<name>_raw method,
which the public method calls.  The public methods stay on the class, so
code that wraps class attributes sees every call.  The product, the right
meet, followers and the quotients are uncached: no hot loop asks for them.

slide is the domino step of the normal form cascades in one cached call.
Its raw method calls the raw meet and quotient directly and forms c*u as
∂^-1(u^-1 ∂c), so a cascade leaves nothing in the meet cache, and it
interns both outputs: every cached slide refers to one shared object per
distinct simple.

code_book() numbers the simples for the distance search, which runs on
small integer codes instead of simple values.  Its slide table is the
transition table of Thurston's normal-form automaton (Epstein et al., Word
Processing in Groups, Ch. 9) filled on demand from the raw slide, so it
holds at most N^2 entries for N simples and adds nothing to the cached
slide.
"""

from __future__ import annotations

from functools import cache
from typing import Any, Hashable, Iterable

Simple = Hashable


class UnsupportedStructureOperation(Exception):
    """Raised when a structure cannot enumerate its simples (rank too big)."""


class GarsideStructure:
    # Subclasses must set these in __init__ before calling super().__init__().
    structure_id: str  # stable id, also used as cache key, e.g. "braid-classical:4"
    n: int             # structure size parameter (strand count / coordinate count)
    rank: int          # number of atoms
    atoms: tuple       # atoms in their canonical order
    identity: Simple
    delta: Simple
    tau_period: int    # order of tau on simples (2 for braids, 1 for free abelian)

    # Each name is served by _<name>_raw through its own per-instance
    # functools.cache, stored as the instance attribute _<name>.
    _CACHED = ("left_meet", "slide", "tau", "right_complement", "left_complement",
               "starting_set", "finishing_set", "nontrivial_simples", "preceders", "rev")

    def __init__(self) -> None:
        self._interned: dict = {}  # one object per distinct simple produced
        # the absorber search's survivor tables (absorb._survivors)
        self._survivor_tables: dict = {}
        # the BFS's vertex move sets by generator length (alcomplex._vertex_moves)
        self._move_sets: dict = {}
        # the BFS's integer codes for simples, built on first use (code_book)
        self._code_book: CodeBook | None = None
        for name in self._CACHED:
            setattr(self, f"_{name}", cache(getattr(self, f"_{name}_raw")))

    # -- primitives a concrete structure supplies ----------------------------

    def _left_meet_raw(self, s: Simple, t: Simple) -> Simple:
        raise NotImplementedError

    def _left_quotient_raw(self, u: Simple, t: Simple) -> Simple:
        """u^-1 * t, assuming u left-divides t."""
        raise NotImplementedError

    def _right_complement_raw(self, s: Simple) -> Simple:
        """s^-1 * delta."""
        raise NotImplementedError

    def _starting_set_raw(self, s: Simple) -> frozenset:
        """Indices of atoms left-dividing s."""
        raise NotImplementedError

    def _rev_raw(self, s: Simple) -> Simple:
        """The reversal of s: an anti-automorphism fixing the atoms and delta."""
        raise NotImplementedError

    def all_simples(self) -> Iterable[Simple]:
        """Every simple, identity and delta included, in a deterministic order."""
        raise NotImplementedError

    def is_simple_value(self, s: Any) -> bool:
        """Whether the raw value s encodes a simple of this structure."""
        raise NotImplementedError

    # -- primitives derived from the right complement and rev ----------------

    def _tau_raw(self, s: Simple) -> Simple:
        """Conjugation delta^-1 * s * delta, the right complement twice."""
        return self.right_complement(self.right_complement(s))

    def _left_complement_raw(self, s: Simple) -> Simple:
        """delta * s^-1, the tau^-1 image of the right complement."""
        return self.tau_pow(self.right_complement(s), -1)

    def _right_quotient_raw(self, s: Simple, g: Simple) -> Simple:
        """s * g^-1, assuming g right-divides s: the left quotient of the
        left complements, (s delta^-1) * (delta g^-1)."""
        return self._left_quotient_raw(self.left_complement(s), self.left_complement(g))

    def _right_meet_raw(self, s: Simple, t: Simple) -> Simple:
        # rev maps the right-divisibility order onto the left one
        return self.rev(self._left_meet_raw(self.rev(s), self.rev(t)))

    def _finishing_set_raw(self, s: Simple) -> frozenset:
        """Indices of atoms right-dividing s."""
        return self.starting_set(self.rev(s))

    def _slide_raw(self, c: Simple, f: Simple) -> tuple | None:
        d = self.right_complement(c)
        u = self._left_meet_raw(d, f)
        if u == self.identity:
            return None
        # c*u is the left complement of u^-1 * d, since u divides d = ∂c
        return (self._intern(self.left_complement(self._left_quotient_raw(u, d))),
                self._intern(self._left_quotient_raw(u, f)))

    def _intern(self, s: Simple) -> Simple:
        return self._interned.setdefault(s, s)

    def simple_word(self, s: Simple) -> tuple[int, ...]:
        """A canonical reduced atom word for s (greedy smallest starting atom)."""
        word = []
        cur = s
        while cur != self.identity:
            i = min(self.starting_set(cur))
            word.append(i)
            cur = self.left_quotient(self.atom(i), cur)
        return tuple(word)

    # -- public primitives ----------------------------------------------------

    def compose(self, s: Simple, t: Simple) -> Simple | None:
        """Product s*t if it is simple (t left-divides the right complement
        of s), else None; it is the left complement of t^-1 * (s^-1 delta)."""
        c = self.right_complement(s)
        if not self.left_divides_simple(t, c):
            return None
        return self.left_complement(self._left_quotient_raw(t, c))

    def left_meet(self, s: Simple, t: Simple) -> Simple:
        return self._left_meet(s, t)

    def right_meet(self, s: Simple, t: Simple) -> Simple:
        return self._right_meet_raw(s, t)

    def left_quotient(self, u: Simple, t: Simple) -> Simple:
        return self._left_quotient_raw(u, t)

    def right_quotient(self, s: Simple, g: Simple) -> Simple:
        return self._right_quotient_raw(s, g)

    def slide(self, c: Simple, f: Simple) -> tuple | None:
        """One domino step on the pair (c, f): (c*u, u^-1*f) with u the meet
        of the right complement of c and f, or None when u is 1, that is
        when (c, f) is already left-weighted.  The product c*f is kept."""
        return self._slide(c, f)

    def tau(self, s: Simple) -> Simple:
        return self._tau(s)

    def code_book(self) -> "CodeBook":
        """The integer codes of this structure's simples, built once."""
        if self._code_book is None:
            self._code_book = CodeBook(self)
        return self._code_book

    def tau_pow(self, s: Simple, k: int) -> Simple:
        k %= self.tau_period
        for _ in range(k):
            s = self.tau(s)
        return s

    def right_complement(self, s: Simple) -> Simple:
        return self._right_complement(s)

    def left_complement(self, s: Simple) -> Simple:
        return self._left_complement(s)

    def starting_set(self, s: Simple) -> frozenset:
        return self._starting_set(s)

    def finishing_set(self, s: Simple) -> frozenset:
        return self._finishing_set(s)

    def rev(self, s: Simple) -> Simple:
        return self._rev(s)

    # -- derived predicates ---------------------------------------------------

    def atom(self, i: int) -> Simple:
        if not 1 <= i <= len(self.atoms):
            raise ValueError(f"atom index {i} out of range 1..{len(self.atoms)}")
        return self.atoms[i - 1]

    def left_divides_simple(self, s: Simple, t: Simple) -> bool:
        return self.left_meet(s, t) == s

    def right_divides_simple(self, s: Simple, t: Simple) -> bool:
        return self.right_meet(s, t) == s

    def is_left_weighted(self, s: Simple, t: Simple) -> bool:
        """No atom can migrate from the head of t into s."""
        return self.starting_set(t) <= self.finishing_set(s)

    def nontrivial_simples(self) -> tuple:
        """All simples except identity and delta, sorted, for search candidates."""
        return self._nontrivial_simples()

    def _nontrivial_simples_raw(self) -> tuple:
        return tuple(sorted(s for s in self.all_simples()
                            if s != self.identity and s != self.delta))

    def followers(self, s: Simple) -> tuple:
        """Nontrivial simples t with (s, t) left-weighted."""
        return tuple(t for t in self.nontrivial_simples() if self.is_left_weighted(s, t))

    def preceders(self, t: Simple) -> tuple:
        """Nontrivial simples s with (s, t) left-weighted."""
        return self._preceders(t)

    def _preceders_raw(self, t: Simple) -> tuple:
        return tuple(s for s in self.nontrivial_simples() if self.is_left_weighted(s, t))

    # -- identity-based equality (structures are singletons per factory) ------

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, GarsideStructure) and self.structure_id == other.structure_id

    def __hash__(self) -> int:
        return hash(self.structure_id)

    def __repr__(self) -> str:
        return f"<GarsideStructure {self.structure_id}>"


class _SlideTable(dict):
    """slide on codes, keyed c*N + f: None when the pair is left-weighted,
    else the codes of the two outputs.  Each entry is computed once, from
    the raw slide."""

    __slots__ = ("_st", "_book")

    def __init__(self, st: GarsideStructure, book: "CodeBook") -> None:
        super().__init__()
        self._st, self._book = st, book

    def __missing__(self, key: int) -> tuple | None:
        book = self._book
        c, f = divmod(key, len(book.simples))
        step = self._st._slide_raw(book.simples[c], book.simples[f])
        got = self[key] = (None if step is None
                           else (book.code[step[0]], book.code[step[1]]))
        return got


class CodeBook:
    """The simples of one structure numbered 0 .. N-1, as
    (identity, *nontrivial_simples(), delta): the identity is code 0 and
    delta is code N-1.  code maps a simple to its code, tau is the tau
    image of each code, and slide is the slide table.

    rmul is the right cascade of element._rmul_into on lists of codes.
    The element kernel keeps its own cascade on simple values because it
    serves structures whose simples cannot be enumerated (braids up to 64
    strands); a code book needs them all.
    """

    __slots__ = ("simples", "code", "tau", "slide")

    def __init__(self, st: GarsideStructure) -> None:
        self.simples = (st.identity, *st.nontrivial_simples(), st.delta)
        self.code = {s: i for i, s in enumerate(self.simples)}
        self.tau = [self.code[st.tau(s)] for s in self.simples]
        self.slide = _SlideTable(st, self)

    def rmul(self, fac: list, move) -> int:
        """Replace the coded normal factor list fac by that of fac * s_1 ...
        s_k, in place, for the codes s_i of nontrivial proper simples in
        move; returns the number of deltas that left through the front.

        Each s_i is appended and slid right to left until a pair is
        left-weighted; an identity rest is deleted, and a carry that
        fills up to delta leaves through the front, twisting the prefix
        by tau."""
        slide, tau = self.slide, self.tau
        n = len(tau)
        top = n - 1
        q = 0
        for f in move:
            j = len(fac)
            fac.append(f)
            while j:
                step = slide[fac[j - 1] * n + f]
                if step is None:
                    break
                c, rest = step
                if rest:
                    fac[j] = rest
                else:
                    del fac[j]
                if c == top:
                    fac[:j] = [tau[x] for x in fac[:j - 1]]
                    q += 1
                    break
                fac[j - 1] = f = c
                j -= 1
        return q
