"""Group elements in left normal form, and the generic arithmetic on them.

An element is stored canonically as delta^p * x_1 ... x_r where every x_i is a
simple different from the identity and from delta, and every adjacent pair is
left-weighted.  p is the infimum, p + r the supremum, r the canonical length.
Equality of group elements is structural equality of this representation.

All normalization goes through two one-pass slide cascades, the domino rule
for multiplying a normal form by one simple (Dehornoy et al., Foundations of
Garside Theory, EMS 2015, Ch. III; Thurston in Epstein et al., Word
Processing in Groups, 1992, Ch. 9).  Sliding a pair (s, t) that is not
left-weighted means replacing it by (s*u, u^-1*t) with u = ds ^ t, where ds
is the right complement of s.  Each step is one lookup in the structure's
slide rows, rows[s][t], which hold None when the pair is already
left-weighted.  The rows are bounded tables (structure.TABLE_BOUND), so no
answer depends on what they hold.

* _left_divide (d^-1 * x for a simple d, taking and returning x as a bare
  (power, factors) pair, so it builds no element) slides the left
  complement of d into x_1, the remainder into x_2, and so on, left to
  right, and stops as soon as the carry is the identity or meets a
  left-weighted pair.  Leading deltas join the power.  _left_divide_head
  runs the same cascade only up to the first factor of the quotient.
* _fold (x * s_1 ... s_k, on a factor list) appends each s and slides right
  to left with the same stopping rule; a carry that fills up to delta
  leaves through the back, twisting by tau^-1 only the suffix the cascade
  already walked (x_1 ... Delta ... = x_1 ... tau^-1(...) Delta).  When
  the s_i are the factors of a normal form, the rest of them is appended
  in one step once one s_i lands as it stands, with no slide: the list
  then ends in tau^e(s_i), and a chain of proper simples is a normal form
  iff every adjacent pair is left-weighted (El-Rifai and Morton, 1994;
  Epstein et al., Ch. 9), so (tau^e(s_i), tau^e(s_i+1)) is left-weighted
  too, tau being an automorphism, and s_i+1 lands with e unchanged.
  multiply and alcomplex fold normal forms this way, as _left_divide keeps
  the untouched factors fac[i:] whole.  make_element's remainder,
  normalize and _rev fold arbitrary simples, one cascade per simple, and
  so do the absorber, whose verification stays independent of the rule,
  and the distance search, whose moves are one or two codes long.

A running product of the right cascade is therefore a list L times a power
Delta^e on the right: _fold appends each later simple s as tau^-e(s), and
_finish twists the finished list once, L Delta^e = Delta^e tau^e(L), only
for odd e, as tau is an involution.  L itself is the inf-0 representative
of the product's coset g<Delta>.

There is one cascade each way.  _fold and _left_divide read their tables
by subscript from whatever they are given: a structure, on simple values,
or the structure's code book, on integer codes, as the distance search
and the absorber search do.  _divide_reversed runs _left_divide's loop in
place on a factor list held reversed, for the gcd descent below; the
absorber keeps _left_divide, as its rooms are tuples that sibling nodes
share.

The fraction form is one normal-form read, Thurston's symmetric normal
form (Epstein et al., Word Processing in Groups, Ch. 9; Dehornoy et al.,
Ch. III): a = delta^-m x_1 ... x_r with m > 0 is N^-1 D for N^-1 =
delta^-m x_1 ... x_min(m,r) and D = x_(m+1) ... x_r, with N and D
positive and N ^ D = 1.  The left gcd is one lattice descent (_descent):
below the smaller infimum, gcd(a, b) = s gcd(s^-1 a, s^-1 b) for s the
meet of the two heads, so the gcd's normal form is read left to right,
one meet per factor, from the structure's meet table.  The descent leaves
the cofactors N = d^-1 a and D = d^-1 b as normal forms with N ^ D = 1,
so N^-1 D is the reduced fraction of a^-1 b, and the complex reads its
gcd vertices, overlaps and preferred paths off one descent, with no
a^-1 b product.  Equal heads are popped in O(1), and a cofactor whose
head is not the meet is divided by the left cascade, held reversed so
that the cascade touches only the factors it reads: a shared prefix costs
one comparison per factor, and two normal forms that part at once cost
one meet.

The right side has no algorithm of its own: _rev applies the structure's
word reversal rev, an anti-automorphism that swaps right and left
divisibility, so a right normal form is the left one of rev(a) read
backwards through rev, and a right gcd is rev of the left gcd of the
reversals.

Elements are frozen, slotted dataclasses, built one of two ways.  The
public GarsideElement(structure, power, factors) checks the size bound in
__post_init__, and the public make_element and delta_power go through it
or through _finish; make_element also checks that every s_i is a simple,
on the structure's _simple_bits table, and folds only what follows the
input's longest normal-form prefix.
The kernel builds every value it reads off its own normal forms with the
trusted _element(st, power, factors), which sets the three slots and
checks nothing.  So the size bound (MAX_SIZE on |power| and on the
canonical length, SizeLimitExceeded) is enforced where a size can grow:
_finish, which ends every product, normalize, make_element and power, and
invert, whose power is up to 2 * MAX_SIZE in magnitude.  Everything else
the kernel builds (tau twists, complements, prefixes, vertices) is no
larger than an element it already holds.  A value built either way has
the dataclass's own __eq__, __hash__ and __repr__, and assigning an
attribute raises FrozenInstanceError.  With slots there is no __dict__
and no weak reference to an element; nothing in the package pickles or
weak-references one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .structure import GarsideStructure, Simple

# Hard cap on |delta power| and canonical length; beyond this we refuse loudly
# instead of silently grinding.
MAX_SIZE = 10**6


class SizeLimitExceeded(Exception):
    pass


class Stats(NamedTuple):
    inf: int
    sup: int
    length: int


def _size_exceeded(power: int, length: int) -> SizeLimitExceeded:
    return SizeLimitExceeded(
        f"element exceeds size bound {MAX_SIZE}: power={power}, length={length}")


@dataclass(frozen=True, slots=True)
class GarsideElement:
    structure: GarsideStructure
    power: int
    factors: tuple

    def __post_init__(self) -> None:
        if abs(self.power) > MAX_SIZE or len(self.factors) > MAX_SIZE:
            raise _size_exceeded(self.power, len(self.factors))

    # readable accessors; the representation is the statistics
    @property
    def inf(self) -> int:
        return self.power

    @property
    def sup(self) -> int:
        return self.power + len(self.factors)

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    @property
    def is_identity(self) -> bool:
        return self.power == 0 and not self.factors

    @property
    def is_positive(self) -> bool:
        return self.power >= 0

    def __mul__(self, other: "GarsideElement") -> "GarsideElement":
        return multiply(self, other)

    def __pow__(self, k: int) -> "GarsideElement":
        return power(self, k)

    def inverse(self) -> "GarsideElement":
        return invert(self)

    def __repr__(self) -> str:
        return f"GarsideElement({self.structure.structure_id}, D^{self.power}, {list(self.factors)})"


_new = object.__new__
_set_structure = GarsideElement.structure.__set__
_set_power = GarsideElement.power.__set__
_set_factors = GarsideElement.factors.__set__


def _element(st: GarsideStructure, power: int, factors: tuple) -> GarsideElement:
    """The trusted constructor: the element delta^power * factors, for a
    factor tuple that is already a normal form within the size bound.
    It sets the slots through their descriptors and checks nothing."""
    a = _new(GarsideElement)
    _set_structure(a, st)
    _set_power(a, power)
    _set_factors(a, factors)
    return a


def _fold(t, fac: list, e: int, simples: Iterable, normal: bool = False) -> int:
    """Multiply fac * delta^e by the simples, in place, by the right
    cascade; returns the new e, and the product is fac * delta^e.

    t is a structure, whose list entries are simples, or its code book,
    whose entries are codes: the cascade reads only t.rows, t._tau,
    t.identity and t.delta, and looks the tables up by subscript.  Each
    simple enters as tau^-e(s), since delta^e s = tau^-e(s) delta^e, is
    appended and slid right to left until a pair is left-weighted; an
    identity rest is deleted, and a carry that fills up to delta leaves
    through the back, twisting by tau^-1 = tau only the suffix the
    cascade walked (x_1 ... delta y = x_1 ... tau^-1(y) delta).

    With normal, the simples must be the factors of a normal form:
    proper, with left-weighted neighbours, which nothing here checks.
    Once one of them lands as it stands (fac was empty, or its first slide
    row entry is None), fac ends in tau^e(s_i), and (tau^e(s_i),
    tau^e(s_i+1)) is left-weighted as tau is an automorphism, so s_i+1
    lands too, with e unchanged, and so on: the rest is appended in one
    step, twisted by tau for odd e."""
    rows, tau, ident, delta = t.rows, t._tau, t.identity, t.delta
    # with normal, the tail is the rest of the same iterator
    rest_of = iter(simples) if normal else simples
    for s in rest_of:
        if e & 1:
            s = tau[s]
        if s == ident:
            continue
        if s == delta:
            e += 1
            continue
        j = len(fac)
        fac.append(s)
        if not j or (step := rows[fac[j - 1]][s]) is None:
            if normal:
                fac.extend([tau[y] for y in rest_of] if e & 1 else rest_of)
                return e
            continue
        while True:
            c, rest = step
            if rest == ident:
                del fac[j]
            else:
                fac[j] = rest
            if c == delta:
                fac[j - 1:] = [tau[y] for y in fac[j:]]
                e += 1
                break
            fac[j - 1] = s = c
            j -= 1
            if not j or (step := rows[fac[j - 1]][s]) is None:
                break
    return e


def _finish(st: GarsideStructure, p: int, fac: list, e: int) -> GarsideElement:
    """The element delta^p * fac * delta^e = delta^(p+e) tau^e(fac)."""
    if e & 1:  # tau^e is tau, its own inverse
        fac = [st._tau[f] for f in fac]
    p += e
    if p > MAX_SIZE or p < -MAX_SIZE or len(fac) > MAX_SIZE:
        raise _size_exceeded(p, len(fac))
    return _element(st, p, tuple(fac))


def make_element(st: GarsideStructure, power: int, simples: Iterable[Simple]) -> GarsideElement:
    """The element delta^power * s_1 ... s_k; every s_i must be a simple.

    Each s_i must be a tuple of n exact ints before its entry in
    st._simple_bits is read, and that entry is None when s_i is no
    simple; otherwise it is the starting-set bits of s_i and of its
    right complement.  The longest prefix of proper simples with
    left-weighted neighbours is a normal form as it stands, so it is
    kept, and only the rest is folded onto it."""
    simples = tuple(simples)
    bits, types = st._simple_bits, st._int_types
    # simples[:keep] is a normal form; comp is the bits of ∂ of its last factor
    keep = comp = 0
    for i, s in enumerate(simples):
        if not (isinstance(s, tuple) and [*map(type, s)] == types) or (b := bits[s]) is None:
            raise ValueError(f"not a simple of {st.structure_id}: {s!r}")
        start, end = b
        if keep == i and start and end and not comp & start:
            keep, comp = i + 1, end
    fac = list(simples[:keep])
    return _finish(st, power, fac, _fold(st, fac, 0, simples[keep:]))


def identity_element(st: GarsideStructure) -> GarsideElement:
    return _element(st, 0, ())


def delta_power(st: GarsideStructure, k: int) -> GarsideElement:
    return GarsideElement(st, k, ())


def simple_element(st: GarsideStructure, s: Simple) -> GarsideElement:
    return make_element(st, 0, [s])


def _check_same_structure(a: GarsideElement, b: GarsideElement) -> GarsideStructure:
    if a.structure != b.structure:
        raise ValueError(
            f"structure mismatch: {a.structure.structure_id} vs {b.structure.structure_id}")
    return a.structure


def multiply(a: GarsideElement, b: GarsideElement) -> GarsideElement:
    st = _check_same_structure(a, b)
    # delta^pa A delta^pb B = delta^pa A tau^-pb(B) delta^pb
    fac = list(a.factors)
    return _finish(st, a.power, fac, _fold(st, fac, b.power, b.factors, True))


def invert(a: GarsideElement) -> GarsideElement:
    st = a.structure
    r = len(a.factors)
    if r == 0:
        return _element(st, -a.power, ())
    # (delta^p y)^-1 = delta^-(p+r) * tau^-(p+r)(dy) for dy = complement(y)
    q = -(a.power + r)
    if q < -MAX_SIZE or q > MAX_SIZE:
        raise _size_exceeded(q, r)
    return _element(st, q, _complement_factors(st, a.factors, q))


def power(a: GarsideElement, k: int) -> GarsideElement:
    st = a.structure
    if k == 0:
        return identity_element(st)
    if k < 0:
        return invert(power(a, -k))
    acc = identity_element(st)
    base = a
    while k:
        if k & 1:
            acc = multiply(acc, base)
        k >>= 1
        if k:
            base = multiply(base, base)
    return acc


def stats(a: GarsideElement) -> Stats:
    return Stats(a.inf, a.sup, a.canonical_length)


def tau_element(a: GarsideElement, k: int = 1) -> GarsideElement:
    """tau^k(a); tau is an involution, so only odd k twists the factors."""
    st = a.structure
    if not k & 1:
        return a
    return _element(st, a.power, tuple([st._tau[f] for f in a.factors]))


def complement(a: GarsideElement) -> GarsideElement:
    """The right complement a^-1 delta^sup(a) of a positive element with inf 0."""
    if a.power != 0:
        raise ValueError(f"complement needs inf = 0, got inf = {a.power}")
    return _element(a.structure, 0, _complement_factors(a.structure, a.factors, 0))


def _complement_factors(st: GarsideStructure, factors: tuple, k: int) -> tuple:
    """tau^k of the normal form of the right complement of x_1 ... x_r, which
    lists tau^(r-i) of the right complement of x_i, for i = r down to 1, and
    is already normal.  Entry j, counted from 0, is tau^(k+j) of its
    complement, that is tau of it for odd k + j, as tau is an involution."""
    dc, tau = st._right_complement, st._tau
    out = [dc[x] for x in reversed(factors)]
    out[1 - k % 2::2] = [tau[y] for y in out[1 - k % 2::2]]
    return tuple(out)


def normalize(st: GarsideStructure, word: Sequence[tuple]) -> GarsideElement:
    """Normal form of a word given as (base, exponent) letters.

    base is an atom index or the delta marker 'D'; any other base raises
    ValueError.  Exponents may be negative.  Negative letters are rewritten
    via s^-1 = delta^-1 * (delta s^-1), so only one engine exists.

    With p the delta exponent read so far, the word is delta^p * tau^p(g_1)
    ... tau^p(g_k) = g_1 ... g_k delta^p for the stored list g: a simple
    read at exponent p is stored as tau^-p of itself, so a delta letter
    only moves p, and the list is folded and twisted once, by the final
    exponent.
    """
    p = 0
    fac: list = []
    for base, exp in word:
        if exp == 0:
            continue
        if isinstance(base, int):
            s = st.atom(base)
        elif base == 'D':
            s = st.delta
        else:
            raise ValueError(f"letter {base!r} is neither an atom index nor 'D'")
        if len(fac) + abs(exp) > MAX_SIZE:
            raise SizeLimitExceeded("word expands past the size bound")
        if s == st.delta:
            p += exp
        elif exp > 0:
            fac.extend([st.tau_pow(s, -p)] * exp)
        else:
            c = st.left_complement(s)
            for _ in range(-exp):
                p -= 1
                fac.append(st.tau_pow(c, -p))
    out: list = []
    return _finish(st, 0, out, _fold(st, out, 0, fac) + p)


# -- divisibility and gcds ----------------------------------------------------

def left_divides(a: GarsideElement, b: GarsideElement) -> bool:
    _check_same_structure(a, b)
    return multiply(invert(a), b).inf >= 0


def right_divides(a: GarsideElement, b: GarsideElement) -> bool:
    _check_same_structure(a, b)
    return multiply(b, invert(a)).inf >= 0


def _left_divide(t, d, p: int, fac: tuple) -> tuple:
    """(power, factors) of d^-1 * delta^p * fac for a simple d and a normal
    form delta^p fac: d^-1 = delta^-1 c for c the left complement of d, and
    c delta^p = delta^p tau^p(c), which the left cascade slides into fac.
    As c is tau of the right complement, tau^p(c) is tau^(p+1) of it.

    t is a structure, on simple values, or its code book, on codes, as
    for _fold: the cascade reads t.rows, t._right_complement, t._tau,
    t.identity and t.delta."""
    ident, delta, rows = t.identity, t.delta, t.rows
    c = t._right_complement[d]
    if (p + 1) & 1:
        c = t._tau[c]
    # c = 1 gives back fac (its first slide returns (x_1, 1)), and c = delta
    # is left-weighted with any x_1, so it joins the power below
    head = []
    for f in fac:
        step = rows[c][f]
        if step is None:
            break
        cu, c = step
        head.append(cu)
        if c == ident:
            break
    i = len(head)  # one factor of fac consumed per slide
    if c != ident:
        head.append(c)
    k = 0
    while k < len(head) and head[k] == delta:
        k += 1
    return p + k - 1, (*head[k:], *fac[i:])


def _left_divide_head(t, d, p: int, fac: tuple) -> tuple:
    """The power of _left_divide(t, d, p, fac) and its first factor, or
    t.identity when it has none: the same left cascade, run only up to
    its first output that is not delta.  A slide's carry is a right
    divisor of a factor of fac, so only the first carry (c = delta, for
    d = 1) can be delta."""
    ident, delta, rows = t.identity, t.delta, t.rows
    c = t._right_complement[d]
    if (p + 1) & 1:
        c = t._tau[c]
    p -= 1
    i = 0  # factors of fac consumed
    for f in fac:
        step = rows[c][f]
        if step is None:
            break
        cu, c = step
        i += 1
        if cu != delta:
            return p, cu
        p += 1
        if c == ident:
            break
    if c == delta:
        p += 1
    elif c != ident:
        return p, c
    return p, fac[i] if i < len(fac) else ident


def left_gcd(a: GarsideElement, b: GarsideElement) -> GarsideElement:
    """The greatest common left divisor of a and b (see _descent)."""
    return _descent(a, b)[0]


def _descent(a: GarsideElement, b: GarsideElement) -> tuple:
    """(d, N, D) for d = left_gcd(a, b) and its cofactors N = d^-1 a and
    D = d^-1 b, three normal forms; N ^ D = 1.

    With m = min(inf a, inf b), a = delta^m a' and b = delta^m b' for
    positive a' and b', one of them of inf 0, so d = delta^m gcd(a', b')
    and gcd(a', b') has inf 0.  The gcd of positive elements is a product
    of head meets, gcd(a, b) = s gcd(s^-1 a, s^-1 b) for s = H(a) ^ H(b),
    where H(x) = x ^ delta is the head (Dehornoy et al., Ch. III).  As
    H(gcd) = s, the meets are the gcd's normal form, left to right, and
    the descent stops at a meet that is the identity, where the cofactors
    are coprime.

    Each cofactor is its power and its factors held reversed, head last.
    Equal heads are popped.  Otherwise s comes from the structure's meet
    table; a cofactor whose head is s pops it, and the other is divided
    by s in place (_divide_reversed), which reads only the factors its
    cascade slides through.  No step copies a cofactor's tail; only the
    three results are copied out."""
    st = _check_same_structure(a, b)
    ident, delta, meets = st.identity, st.delta, st.meets
    m = min(a.power, b.power)
    pa, pb = a.power - m, b.power - m
    ra, rb = [*reversed(a.factors)], [*reversed(b.factors)]
    fac: list = []
    while True:
        # a factor of a normal form is never delta, so a head is delta
        # exactly when its power is positive; as min(pa, pb) = 0, delta
        # divides neither the gcd nor, the gcd's factors being proper, what
        # is left of it, so the two heads are never both delta
        ha = delta if pa else ra[-1] if ra else ident
        hb = delta if pb else rb[-1] if rb else ident
        if ha == hb:
            if ha == ident:
                break
            ra.pop()
            rb.pop()
            fac.append(ha)
            continue
        s = meets[ha][hb]
        if s == ident:
            break
        fac.append(s)
        if s == ha:  # s is no delta, as the heads differ
            ra.pop()
        else:
            pa = _divide_reversed(st, s, pa, ra)
        if s == hb:
            rb.pop()
        else:
            pb = _divide_reversed(st, s, pb, rb)
    return (_element(st, m, tuple(fac)), _element(st, pa, tuple(reversed(ra))),
            _element(st, pb, tuple(reversed(rb))))


def _divide_reversed(st: GarsideStructure, d, p: int, rev: list) -> int:
    """d^-1 * delta^p * F, in place, for a simple d and a normal form
    delta^p F whose factors rev holds reversed, head last; returns the
    quotient's power, and rev then holds its factors reversed.

    It is _left_divide's cascade: the twisted left complement of d slides
    in from the head, popping each factor it slides through and stopping
    when the carry is the identity or meets a left-weighted pair; its
    output is pushed back, leading deltas joining the power.  _left_divide
    is not built on it: reversing the absorber's short rooms in and out
    would cost it about 0.7 us per division."""
    ident, delta, rows = st.identity, st.delta, st.rows
    c = st._right_complement[d]
    if not p & 1:
        c = st._tau[c]
    head = []
    while rev:
        step = rows[c][rev[-1]]
        if step is None:
            break
        cu, c = step
        head.append(cu)
        rev.pop()
        if c == ident:
            break
    if c != ident:
        head.append(c)
    k = 0
    while k < len(head) and head[k] == delta:
        k += 1
    rev.extend(reversed(head[k:]))
    return p + k - 1


def _reduced_fraction(z: GarsideElement) -> tuple:
    """(N^-1, D) for z = N^-1 D reduced: N^-1 is the prefix
    delta^-m x_1 ... x_min(m,r) of z's normal form, m = -inf z, and D the
    rest (see the module docstring); fraction_form's read."""
    m = -z.power
    if m <= 0:
        return identity_element(z.structure), z
    return (_element(z.structure, z.power, z.factors[:m]),
            _element(z.structure, 0, z.factors[m:]))


def right_gcd(a: GarsideElement, b: GarsideElement) -> GarsideElement:
    """rev of the left gcd of the reversals."""
    _check_same_structure(a, b)
    return _rev(left_gcd(_rev(a), _rev(b)))


def delta_prefix(a: GarsideElement, i: int) -> GarsideElement:
    """left_gcd(a, delta^i) for positive a and i >= 0, read off the normal form."""
    if a.inf < 0 or i < 0:
        raise ValueError(f"delta_prefix needs inf(a) >= 0 and i >= 0, got {a.inf} and {i}")
    st = a.structure
    if i <= a.power:
        return _element(st, i, ())
    if i >= a.sup:
        return a
    return _element(st, a.power, a.factors[:i - a.power])


# -- alternate normal forms and shape predicates ------------------------------

def _rev(a: GarsideElement) -> GarsideElement:
    """The reversal of a: rev(delta^p x_1 ... x_r) = rev(x_r) ... rev(x_1)
    delta^p."""
    st = a.structure
    fac: list = []
    e = _fold(st, fac, 0, [st.rev(x) for x in reversed(a.factors)])
    return _finish(st, 0, fac, e + a.power)


def right_normal_form(a: GarsideElement) -> tuple[tuple, int]:
    """Factors and delta power of a = x'_1 ... x'_r * delta^p, pairs
    right-weighted: the left normal form of rev(a), read backwards through
    rev."""
    st = a.structure
    m = _rev(a)
    return tuple(st.rev(f) for f in reversed(m.factors)), m.power


def is_rigid(a: GarsideElement) -> bool:
    if not a.factors:
        raise ValueError("rigidity is undefined for canonical length 0")
    st = a.structure
    return st.is_left_weighted(a.factors[-1], st.tau_pow(a.factors[0], -a.power))


@dataclass(frozen=True)
class FractionForm:
    negative: GarsideElement  # u, positive
    positive: GarsideElement  # v, positive; element = u^-1 v with gcd(u, v) = 1


def fraction_form(a: GarsideElement) -> FractionForm:
    """a = N^-1 D with N ^ D = 1, read off the normal form (see the module
    docstring)."""
    n_inv, d = _reduced_fraction(a)
    return FractionForm(invert(n_inv), d)
