"""Garside structure interface.

A GarsideStructure packages the combinatorial data the normal form machinery
needs about one group: the ordered atoms, the lattice of simple elements
(divisors of the top element), complements, quotients, and the inner
automorphism induced by the top element.  Simples are tuples of n ints
in both concrete structures shipped here, as make_element assumes;
elements built from them live in element.py.

A concrete structure supplies its id, n, the atoms, the identity, delta
and six primitives: the slide, the left quotient u^-1 t, the inversion
mask, the word reversal rev, and the enumeration and validation of
simples (all_simples, is_simple_value).  It overrides nothing else,
except that BraidStructure fills _simple_bits (below) from descents, in
O(n).  The slide is the domino step on a pair (c, f): (c u,
u^-1 f) for u = ∂c ^ f, or None when u is 1, that is when the pair is
left-weighted; it is the one step of every normal-form cascade, so a
structure computes it in one pass, without a meet of its own.  The mask
is a bit set per simple such that s left-divides t iff the mask of s
lies in that of t: on braids the inverted position pairs, for the weak
order is containment of inversion sets (Björner and Brenti,
Combinatorics of Coxeter Groups, Ch. 3), and on Z^n the support.  The
rest is derived here, as in any Garside structure (Dehornoy et al.,
Foundations of Garside Theory, Ch. I and V), so a τ that disagrees with
the structure's own complement cannot be written:

- left divisibility is mask containment, and the starting set of s is
  the atoms whose mask lies in that of s;
- the right complement ∂s = s^-1 Δ is the left quotient of Δ by s;
- τ = ∂², since ∂(∂s) = Δ^-1 s Δ, and the left complement Δ s^-1 is
  ∂^-1 = τ^-1 ∘ ∂.  τ is fixed by the atoms, and a structure with
  τ(τ(a)) ≠ a for an atom a is refused, so a twist by τ^k reads the τ
  table on odd k only;
- s*t is simple iff t left-divides ∂s, and then s*t = ∂^-1(t^-1 ∂s);
- the left meet s ^ t is the u of the slide of (c, t) for c the left
  complement of s, as ∂c = s, and u = c^-1 (c u);
- the right quotient s g^-1 is (∂^-1 s)^-1 (∂^-1 g);
- rev (s^-1 on braids, the identity on Z^n) is an anti-automorphism that
  fixes the atoms and Δ, so it swaps left and right divisibility: s
  right-divides t iff rev s left-divides rev t, the right meet of s and t
  is rev(rev s ∧ rev t), the finishing set of s is the starting set of
  rev s, and element.py reads right normal forms and gcds through it.

A structure keeps nine cached primitives, each a _Table: a dict that
fills a missing entry once from the matching _<name>_raw method and that
hot loops read by subscript, with no Python call on a hit.  They are
_inversion_mask, _tau, _right_complement, _starting_set, _rev, the
two-level slide rows[c][f], the two-level left meets meets[s][t] for
element._descent (filled by left_meet), _simple_bits for
element.make_element and, for output only, _simple_word, the atom word
of each simple.
_simple_bits holds, for a raw value s, None when s is not a simple and
otherwise the bit sets of the starting sets of s and of ∂s (bit i - 1
for atom i): s is proper, neither 1 nor delta, iff both are nonzero,
and (s, t) is left-weighted iff the bits of ∂s and of t share none,
as a pair is left-weighted iff ∂s ^ t = 1 (El-Rifai and Morton, 1994).
Its keys are raw input, so a caller reads it only for a tuple of n
exact ints (the list _int_types): 2.0 and True hash and compare as ints
do, and a value that is no such tuple may not hash.  The default fill
reads the starting set and complement tables; BraidStructure fills it
from descents directly.  The left complement is read as
_tau[_right_complement[s]] and the finishing set as
_starting_set[_rev[s]], with no table of their own; left_meet and
right_meet compute their meet on every call, from one slide each.  A
public method of the same name, where one exists, reads each and stays
on the class for code that wraps class attributes.  absorb.py keeps its
candidate sets in _candidates.

The right cascade (element._fold) reads the slide rows, where rows[c][f]
is the slide of (c, f), and the τ table by subscript.  A row entry comes
from _slide, which reads both outputs of the raw slide back through the
τ table, as left_meet reads its meet, so the rows share one object per
distinct simple.
code_book() carries the same tables on integer codes, and the distance
search and the absorber search share it; its rows are the transition
table of Thurston's normal-form automaton (Epstein et al., Word
Processing in Groups, Ch. 9).

Each table holds at most TABLE_BOUND entries, a two-level one (the slide
rows, the meets and the code book rows) counting its rows too; a miss
that finds it full empties it first.  An entry costs 100 to 300 bytes
on B8, so a full table holds 13 to 40 MB.  For N simples, a unary table
holds at most N entries (40,320 on B8; _simple_bits holds them in
3.5 MB, and one None more per non-simple asked about), and the move sets
one per generator length; so below 9 strands the τ table never empties,
and no row holds a second copy of a simple.
"""

from __future__ import annotations

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
            owner.clear()
            owner._size = 0
        got = self[key] = self._fill(*self._args, key)
        owner._size += 1
        return got


def _rows(fill: Callable[[Any, Any], Any]) -> _Table:
    """The two-level table t with t[a][b] = fill(a, b); a row is an entry too."""
    top = _Table(lambda a: _Table(fill, a, owner=top))
    return top


class GarsideStructure:
    # Subclasses must set these in __init__ before calling super().__init__().
    structure_id: str  # stable id, also used as cache key, e.g. "braid-classical:4"
    n: int             # structure size parameter (strand count / coordinate count)
    atoms: tuple       # atoms in their canonical order
    identity: Simple
    delta: Simple

    def __init__(self) -> None:
        self.rank = len(self.atoms)  # number of atoms
        self._inversion_mask = _Table(self._inversion_mask_raw)
        self._tau = _Table(self._tau_raw)
        self._right_complement = _Table(self._right_complement_raw)
        self._starting_set = _Table(self._starting_set_raw)
        self._rev = _Table(self._rev_raw)
        self._simple_word = _Table(self._simple_word_raw)
        self._simple_bits = _Table(self._simple_bits_raw)
        # what a raw simple's entry types must equal before _simple_bits is read
        self._int_types = [int] * len(self.identity)
        # the right cascade's slide rows (element._fold)
        self.rows = _rows(self._slide)
        # the left meets meets[s][t], for element._descent
        self.meets = _rows(self.left_meet)
        self._nontrivial: tuple | None = None
        # built on first use: alcomplex._vertex_moves (per generator length, its
        # moves mapped to 1, their distance from ()), code_book, absorb._Candidates
        self._move_sets: dict = {}
        self._code_book: CodeBook | None = None
        self._candidates: Any = None
        # tau is fixed by the atoms, so it is an involution iff it is one on them
        tau = self._tau
        if any(tau[tau[a]] != a for a in self.atoms):
            raise ValueError(f"{self.structure_id}: tau is not an involution on the atoms")

    # -- primitives a concrete structure supplies ----------------------------

    def _slide_raw(self, c: Simple, f: Simple) -> tuple | None:
        """One domino step on the pair (c, f): (c*u, u^-1*f) with u the meet
        of the right complement of c and f, or None when u is 1, that is
        when (c, f) is already left-weighted.  The product c*f is kept."""
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

    def _slide(self, c: Simple, f: Simple) -> tuple | None:
        """The raw slide of (c, f), both outputs the tau table's own objects."""
        step, tau = self._slide_raw(c, f), self._tau
        return None if step is None else (tau[tau[step[0]]], tau[tau[step[1]]])

    def _right_complement_raw(self, s: Simple) -> Simple:
        """s^-1 * delta, the left quotient of delta by s."""
        return self._left_quotient_raw(s, self.delta)

    def _starting_set_raw(self, s: Simple) -> frozenset:
        """Indices of atoms left-dividing s: those whose mask lies in s's."""
        mask = self._inversion_mask
        ms = mask[s]
        return frozenset(i for i, a in enumerate(self.atoms, 1) if mask[a] & ms == mask[a])

    def _simple_bits_raw(self, s: Any) -> tuple[int, int] | None:
        """None unless s is a simple, else the starting-set bits of s and
        of ∂s, bit i - 1 standing for atom i."""
        if not self.is_simple_value(s):
            return None
        start = self._starting_set
        return (sum(1 << (i - 1) for i in start[s]),
                sum(1 << (i - 1) for i in start[self._right_complement[s]]))

    def _tau_raw(self, s: Simple) -> Simple:
        """Conjugation delta^-1 * s * delta, the right complement twice."""
        return self.right_complement(self.right_complement(s))

    def _simple_word_raw(self, s: Simple) -> tuple[int, ...]:
        """A canonical reduced atom word for s (greedy smallest starting atom)."""
        word = []
        cur = s
        while cur != self.identity:
            i = min(self.starting_set(cur))
            word.append(i)
            cur = self.left_quotient(self.atom(i), cur)
        return tuple(word)

    # -- public primitives ----------------------------------------------------

    def simple_word(self, s: Simple) -> tuple[int, ...]:
        return self._simple_word[s]

    def compose(self, s: Simple, t: Simple) -> Simple | None:
        """Product s*t if it is simple (t left-divides the right complement
        of s), else None; it is the left complement of t^-1 * (s^-1 delta)."""
        c = self.right_complement(s)
        if not self.left_divides_simple(t, c):
            return None
        return self.left_complement(self._left_quotient_raw(t, c))

    def left_meet(self, s: Simple, t: Simple) -> Simple:
        # the tau table's own object, read back as the slide's outputs are
        tau = self._tau
        return tau[tau[self._left_meet(s, t)]]

    def right_meet(self, s: Simple, t: Simple) -> Simple:
        # rev maps the right-divisibility order onto the left one
        rev = self._rev
        return rev[self._left_meet(rev[s], rev[t])]

    def _left_meet(self, s: Simple, t: Simple) -> Simple:
        """s ^ t from the slide: the left complement c of s has ∂c = s, so
        the slide of (c, t) moves u = s ^ t into c, and u = c^-1 (c u)."""
        c = self._tau[self._right_complement[s]]
        step = self._slide_raw(c, t)
        return self.identity if step is None else self._left_quotient_raw(c, step[0])

    def left_quotient(self, u: Simple, t: Simple) -> Simple:
        """u^-1 * t; ValueError unless u left-divides t."""
        if not self.left_divides_simple(u, t):
            raise ValueError(f"{self.structure_id}: {u!r} does not left-divide {t!r}")
        return self._left_quotient_raw(u, t)

    def right_quotient(self, s: Simple, g: Simple) -> Simple:
        """s * g^-1, the left quotient of the left complements,
        (s delta^-1) * (delta g^-1); ValueError unless g right-divides s."""
        if not self.right_divides_simple(g, s):
            raise ValueError(f"{self.structure_id}: {g!r} does not right-divide {s!r}")
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
        return self._tau[s] if k & 1 else s

    def right_complement(self, s: Simple) -> Simple:
        return self._right_complement[s]

    def left_complement(self, s: Simple) -> Simple:
        """delta * s^-1, the tau^-1 = tau image of the right complement."""
        return self._tau[self._right_complement[s]]

    def starting_set(self, s: Simple) -> frozenset:
        return self._starting_set[s]

    def finishing_set(self, s: Simple) -> frozenset:
        """Indices of atoms right-dividing s: the starting set of rev s."""
        return self._starting_set[self._rev[s]]

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
        return tuple(s for s in self.nontrivial_simples() if self.is_left_weighted(s, t))

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
    delta is code N-1.  code maps a simple to its code; _tau, _rev and
    _right_complement list the code of each code's image, and rows[c][f]
    is the slide on codes: None when the pair is left-weighted, else the
    codes of the two outputs.

    The book carries the structure's names for the tables element._fold
    and element._left_divide read (rows, _tau, _right_complement,
    identity, delta), so the distance search folds coded vertices through
    the one right cascade, and the absorber divides coded rooms through the one left
    cascade and keys its candidate sets by code (absorb._Candidates).
    Both searches share this one book.  An int hashes at once, while a
    permutation is hashed anew at every row and visited-set lookup: on
    factor tuples of simples through st.rows, the complex-bfs benchmark
    loses about 6% of its throughput and its p95 latency rises by about
    12%."""

    __slots__ = ("simples", "code", "_tau", "_rev", "_right_complement", "rows",
                 "identity", "delta")

    def __init__(self, st: GarsideStructure) -> None:
        self.simples = simples = (st.identity, *st.nontrivial_simples(), st.delta)
        self.code = code = {s: i for i, s in enumerate(simples)}
        self._tau = [code[st._tau[s]] for s in simples]
        self._rev = [code[st._rev[s]] for s in simples]
        self._right_complement = [code[st._right_complement[s]] for s in simples]
        self.identity, self.delta = 0, len(simples) - 1

        def coded_slide(c: int, f: int) -> tuple | None:
            step = st._slide_raw(simples[c], simples[f])
            return None if step is None else (code[step[0]], code[step[1]])

        self.rows = _rows(coded_slide)
