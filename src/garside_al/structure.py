"""Garside structure interface.

A GarsideStructure packages the combinatorial data the normal form machinery
needs about one group: the ordered atoms, the lattice of simple elements
(divisors of the top element), complements, quotients, and the inner
automorphism induced by the top element.  Simples are opaque hashable values
(tuples in both concrete structures shipped here); elements built from them
live in element.py.

A concrete structure supplies six primitives and overrides nothing: the
left meet, the left quotient u^-1 t, the inversion mask, the word
reversal rev, and the enumeration and validation of simples (all_simples,
is_simple_value).  The mask is a bit set per simple such that s
left-divides t iff the mask of s lies in that of t: on braids the
inverted position pairs, for the weak order is containment of inversion
sets (Björner and Brenti, Combinatorics of Coxeter Groups, Ch. 3), and
on Z^n the support.  The rest is derived here, as in any Garside
structure (Dehornoy et al., Foundations of Garside Theory, Ch. I and V),
so a τ that disagrees with the structure's own complement cannot be
written:

- left divisibility is mask containment, and the starting set of s is
  the atoms whose mask lies in that of s;
- the right complement ∂s = s^-1 Δ is the left quotient of Δ by s;
- τ = ∂², since ∂(∂s) = Δ^-1 s Δ, and the left complement Δ s^-1 is
  ∂^-1 = τ^-1 ∘ ∂;
- s*t is simple iff t left-divides ∂s, and then s*t = ∂^-1(t^-1 ∂s);
- the right quotient s g^-1 is (∂^-1 s)^-1 (∂^-1 g);
- rev (s^-1 on braids, the identity on Z^n) is an anti-automorphism that
  fixes the atoms and Δ, so it swaps left and right divisibility: s
  right-divides t iff rev s left-divides rev t, the right meet of s and t
  is rev(rev s ∧ rev t), the finishing set of s is the starting set of
  rev s, and element.py reads right normal forms and gcds through it.

Each cached primitive is a _Table, a dict that fills a missing entry once
from the matching _<name>_raw method and that hot loops read by subscript,
with no Python call on a hit: _inversion_mask, _tau, both complements,
the starting and finishing sets, _rev, _preceders, the absorber's
_survivors[leftmost][head] and _kept[leftmost, head, r] (one level, keyed
by the triple), and the two-level _left_meet[s][t], whose fill interns
the meet.  A public method of the same name, where one exists, reads
each and stays on the class for code that wraps class attributes.  As
the τ period is at most 2, tau_inv is the τ table.

The right cascade (element._fold) reads the slide rows, where rows[c][f]
is the domino step on (c, f), and tau_inv by subscript.  A row entry
comes from the raw slide, which calls the raw meet and quotient directly,
so a cascade leaves nothing in the meet table, and it interns both
outputs in _interned, so the slides share one object per distinct
simple.  The slide and meet rows empty whenever _interned does, so every
simple they hold is the interned one.  code_book() carries the same tables on
integer codes for the distance search; its rows are the transition table
of Thurston's normal-form automaton (Epstein et al., Word Processing in
Groups, Ch. 9).

Each table holds at most TABLE_BOUND entries, a two-level one (the slide,
meet, survivor and code book rows) counting its rows too; a miss that
finds it full empties it first.  An entry costs 100 to 300 bytes on B8,
so a full table holds 13 to 40 MB; a survivor entry is an array of up to
N two-byte indices, and a _kept entry the array of those survivor
indices whose simple right-divides r, most of them empty, at about 200
bytes with its key.  For N simples, a unary table holds at most N
entries (40,320 on B8), and the move sets one per generator length.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Hashable, Iterable

Simple = Hashable

# the most entries one _Table holds, its rows' entries counted too
TABLE_BOUND = 1 << 17


class UnsupportedStructureOperation(Exception):
    """Raised when a structure cannot enumerate its simples (rank too big)."""


class _Table(dict):
    """A dict that fills a missing key k with fill(*args, k), once.  Each
    entry counts against an owner, the table itself or, for a row of a
    two-level table (_rows), that table; a miss that finds its owner
    holding TABLE_BOUND entries empties the owner first."""

    __slots__ = ("_fill", "_args", "_owner", "_size")

    def __init__(self, fill: Callable[..., Any], *args: Any, owner: Any = None) -> None:
        super().__init__()
        self._fill, self._args, self._size = fill, args, 0
        self._owner = self if owner is None else owner

    def __missing__(self, key: Any) -> Any:
        owner = self._owner
        if owner._size >= TABLE_BOUND:
            owner._empty()
        got = self[key] = self._fill(*self._args, key)
        owner._size += 1
        return got

    def _empty(self) -> None:
        self.clear()
        self._size = 0


class _Interned(_Table):
    """The table of interned simples, s -> s.  The tables in holders hand
    out its objects, so they empty whenever it does."""

    __slots__ = ("holders",)

    def _empty(self) -> None:
        super()._empty()
        for table in self.holders:
            table._empty()


def _rows(fill: Callable[[Any, Any], Any]) -> _Table:
    """The two-level table t with t[a][b] = fill(a, b); a row is an entry too."""
    top = _Table(lambda a: _Table(fill, a, owner=top))
    return top


class GarsideStructure:
    # Subclasses must set these in __init__ before calling super().__init__().
    structure_id: str  # stable id, also used as cache key, e.g. "braid-classical:4"
    n: int             # structure size parameter (strand count / coordinate count)
    rank: int          # number of atoms
    atoms: tuple       # atoms in their canonical order
    identity: Simple
    delta: Simple
    tau_period: int    # order of tau on simples (2 for braids, 1 for free abelian)

    def __init__(self) -> None:
        if self.tau_period > 2:
            raise ValueError(f"tau period {self.tau_period} > 2, so tau^-1 is not tau")
        self._interned = _Interned(lambda s: s)  # one object per distinct simple produced
        self._left_meet = _rows(lambda s, t: self._interned[self._left_meet_raw(s, t)])
        self._inversion_mask = _Table(self._inversion_mask_raw)
        self._tau = _Table(self._tau_raw)
        self._right_complement = _Table(self._right_complement_raw)
        self._left_complement = _Table(self._left_complement_raw)
        self._starting_set = _Table(self._starting_set_raw)
        self._finishing_set = _Table(self._finishing_set_raw)
        self._rev = _Table(self._rev_raw)
        self._preceders = _Table(self._preceders_raw)
        # the right cascade's tables (element._fold); tau^-1 is tau
        self.rows = _rows(self._slide_raw)
        self.tau_inv = self._tau
        self._interned.holders = (self._left_meet, self.rows)
        self._survivors = _rows(self._survivors_raw)
        self._kept = _Table(lambda key: self._kept_raw(*key))
        self._nontrivial: tuple | None = None
        # built on first use: alcomplex._vertex_moves, code_book
        self._move_sets: dict = {}
        self._code_book: CodeBook | None = None

    # -- primitives a concrete structure supplies ----------------------------

    def _left_meet_raw(self, s: Simple, t: Simple) -> Simple:
        raise NotImplementedError

    def _left_quotient_raw(self, u: Simple, t: Simple) -> Simple:
        """u^-1 * t, assuming u left-divides t."""
        raise NotImplementedError

    def _inversion_mask_raw(self, s: Simple) -> int:
        """A bit set for s such that s left-divides t iff the bits of s are
        among those of t."""
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

    # -- primitives derived from the mask, the left quotient and rev ---------

    def _right_complement_raw(self, s: Simple) -> Simple:
        """s^-1 * delta, the left quotient of delta by s."""
        return self._left_quotient_raw(s, self.delta)

    def _starting_set_raw(self, s: Simple) -> frozenset:
        """Indices of atoms left-dividing s: those whose mask lies in s's."""
        mask = self._inversion_mask
        ms = mask[s]
        return frozenset(i for i, a in enumerate(self.atoms, 1) if mask[a] & ms == mask[a])

    def _tau_raw(self, s: Simple) -> Simple:
        """Conjugation delta^-1 * s * delta, the right complement twice."""
        return self.right_complement(self.right_complement(s))

    def _left_complement_raw(self, s: Simple) -> Simple:
        """delta * s^-1, the tau^-1 image of the right complement."""
        return self.tau_inv[self.right_complement(s)]

    def _right_meet_raw(self, s: Simple, t: Simple) -> Simple:
        # rev maps the right-divisibility order onto the left one
        return self.rev(self._left_meet_raw(self.rev(s), self.rev(t)))

    def _finishing_set_raw(self, s: Simple) -> frozenset:
        """Indices of atoms right-dividing s."""
        return self.starting_set(self.rev(s))

    def _slide_raw(self, c: Simple, f: Simple) -> tuple | None:
        """One domino step on the pair (c, f): (c*u, u^-1*f) with u the meet
        of the right complement of c and f, or None when u is 1, that is
        when (c, f) is already left-weighted.  The product c*f is kept."""
        d = self.right_complement(c)
        u = self._left_meet_raw(d, f)
        if u == self.identity:
            return None
        # c*u is the left complement of u^-1 * d, since u divides d = ∂c
        return (self._interned[self.left_complement(self._left_quotient_raw(u, d))],
                self._interned[self._left_quotient_raw(u, f)])

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
        return self._left_meet[s][t]

    def right_meet(self, s: Simple, t: Simple) -> Simple:
        return self._right_meet_raw(s, t)

    def left_quotient(self, u: Simple, t: Simple) -> Simple:
        return self._left_quotient_raw(u, t)

    def right_quotient(self, s: Simple, g: Simple) -> Simple:
        """s * g^-1, assuming g right-divides s: the left quotient of the
        left complements, (s delta^-1) * (delta g^-1)."""
        return self._left_quotient_raw(self.left_complement(s), self.left_complement(g))

    def tau(self, s: Simple) -> Simple:
        return self._tau[s]

    def code_book(self) -> "CodeBook":
        """The integer codes of this structure's simples, built once."""
        if self._code_book is None:
            self._code_book = CodeBook(self)
        return self._code_book

    def tau_pow(self, s: Simple, k: int) -> Simple:
        # tau is its own inverse, so tau^k is tau for odd k
        return self._tau[s] if k % self.tau_period else s

    def right_complement(self, s: Simple) -> Simple:
        return self._right_complement[s]

    def left_complement(self, s: Simple) -> Simple:
        return self._left_complement[s]

    def starting_set(self, s: Simple) -> frozenset:
        return self._starting_set[s]

    def finishing_set(self, s: Simple) -> frozenset:
        return self._finishing_set[s]

    def rev(self, s: Simple) -> Simple:
        return self._rev[s]

    # -- derived predicates ---------------------------------------------------

    def atom(self, i: int) -> Simple:
        if not 1 <= i <= len(self.atoms):
            raise ValueError(f"atom index {i} out of range 1..{len(self.atoms)}")
        return self.atoms[i - 1]

    def left_divides_simple(self, s: Simple, t: Simple) -> bool:
        mask = self._inversion_mask
        ms = mask[s]
        return ms & mask[t] == ms

    def right_divides_simple(self, s: Simple, t: Simple) -> bool:
        # s right-divides t iff rev s left-divides rev t
        mask, rev = self._inversion_mask, self._rev
        ms = mask[rev[s]]
        return ms & mask[rev[t]] == ms

    def is_left_weighted(self, s: Simple, t: Simple) -> bool:
        """No atom can migrate from the head of t into s."""
        return self.starting_set(t) <= self.finishing_set(s)

    def nontrivial_simples(self) -> tuple:
        """All simples except identity and delta, sorted, for search candidates."""
        if self._nontrivial is None:
            self._nontrivial = tuple(sorted(s for s in self.all_simples()
                                            if s != self.identity and s != self.delta))
        return self._nontrivial

    def followers(self, s: Simple) -> tuple:
        """Nontrivial simples t with (s, t) left-weighted."""
        return tuple(t for t in self.nontrivial_simples() if self.is_left_weighted(s, t))

    def preceders(self, t: Simple) -> tuple:
        """Nontrivial simples s with (s, t) left-weighted."""
        return self._preceders[t]

    def _preceders_raw(self, t: Simple) -> tuple:
        # is_left_weighted(s, t), with the starting set of t read once
        starts, finishing = self._starting_set[t], self._finishing_set
        return tuple(s for s in self.nontrivial_simples() if starts <= finishing[s])

    def _survivors_raw(self, leftmost: Simple, head: Simple) -> array:
        """For the absorber search: the indices into the preceders of leftmost
        (every nontrivial simple for the identity) of the t with t * m of
        inf 0 and (t, head) not left-weighted, head the first factor of m."""
        options = self._preceders[leftmost]
        # two-byte indices cover every braid group whose simples enumerate
        code = "H" if len(options) <= 1 << 16 else "L"
        # is_left_weighted(t, head) and left_divides_simple(dc[t], head),
        # with the starting set and the mask of head read once
        finishing, dc, mask = self._finishing_set, self._right_complement, self._inversion_mask
        starts, mh = self._starting_set[head], mask[head]
        return array(code, (i for i, t in enumerate(options)
                            if not starts <= finishing[t]
                            and (md := mask[dc[t]]) & mh != md))

    def _kept_raw(self, leftmost: Simple, head: Simple, r: Simple) -> array:
        """For the absorber search: the indices in _survivors[leftmost][head]
        of the t that right-divide r, the largest simple right divisor of
        delta^k m^-1; such a t * m has sup k too."""
        options = self._preceders[leftmost]
        # right_divides_simple(t, r), with the mask of rev r read once
        mask, rev = self._inversion_mask, self._rev
        mr = mask[rev[r]]
        table = self._survivors[leftmost][head]
        return array(table.typecode, (i for i in table
                                      if (mt := mask[rev[options[i]]]) & mr == mt))

    # -- identity-based equality (structures are singletons per factory) ------

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, GarsideStructure) and self.structure_id == other.structure_id

    def __hash__(self) -> int:
        return hash(self.structure_id)

    def __repr__(self) -> str:
        return f"<GarsideStructure {self.structure_id}>"


class CodeBook:
    """The simples of one structure numbered 0 .. N-1, as
    (identity, *nontrivial_simples(), delta): the identity is code 0 and
    delta is code N-1.  code maps a simple to its code, tau_inv is the
    tau^-1 image of each code, and rows[c][f] is the slide on codes: None
    when the pair is left-weighted, else the codes of the two outputs.

    The book carries the five names element._fold reads (rows, tau_inv,
    identity, delta, tau_period), so the distance search folds coded
    vertices through the one right cascade.  It is the one representation
    fork left, kept because an int hashes at once, while a permutation is
    hashed anew at every row and visited-set lookup: on factor tuples of
    simples through st.rows, the complex-bfs benchmark loses about 17% of
    its throughput and its p95 latency rises by about 34%."""

    __slots__ = ("simples", "code", "tau_inv", "rows", "identity", "delta", "tau_period")

    def __init__(self, st: GarsideStructure) -> None:
        self.simples = simples = (st.identity, *st.nontrivial_simples(), st.delta)
        self.code = code = {s: i for i, s in enumerate(simples)}
        self.tau_inv = [code[st.tau_inv[s]] for s in simples]
        self.identity, self.delta, self.tau_period = 0, len(simples) - 1, st.tau_period

        def coded_slide(c: int, f: int) -> tuple | None:
            step = st._slide_raw(simples[c], simples[f])
            return None if step is None else (code[step[0]], code[step[1]])

        self.rows = _rows(coded_slide)
