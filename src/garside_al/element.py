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

* _lmul_simple (s * x) slides s into x_1, the remainder into x_2, and so on,
  left to right, and stops as soon as the carry is the identity or meets a
  pair that is already left-weighted.  Leading deltas join the power.
* _fold (x * s_1 ... s_k, on a factor list) appends each s and slides right
  to left with the same stopping rule; a carry that fills up to delta
  leaves through the back, twisting by tau^-1 only the suffix the cascade
  already walked (x_1 ... Delta ... = x_1 ... tau^-1(...) Delta).

A running product of the right cascade is therefore a list L times a power
Delta^e on the right: _fold appends each later simple s as tau^-e(s), and
_finish twists the finished list once, L Delta^e = Delta^e tau^e(L), only
when e is not a multiple of the tau period.  L itself is the inf-0
representative of the product's coset g<Delta>.

There is one right cascade.  _fold reads its tables (rows and tau_inv) by
subscript from whatever it is given: a structure, on simple values, or the
structure's code book, on integer codes, as the distance search does.

The right side has no algorithm of its own: _rev applies the structure's
word reversal rev, an anti-automorphism that swaps right and left
divisibility, so a right normal form is the left one of rev(a) read
backwards through rev, and a right gcd is rev of the left gcd of the
reversals.

The public make_element validates its simples and folds the right cascade
over them; everything built inside the package from simples it produced
itself is constructed directly, without re-validation.
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


@dataclass(frozen=True)
class GarsideElement:
    structure: GarsideStructure
    power: int
    factors: tuple

    def __post_init__(self) -> None:
        if abs(self.power) > MAX_SIZE or len(self.factors) > MAX_SIZE:
            raise SizeLimitExceeded(
                f"element exceeds size bound {MAX_SIZE}: "
                f"power={self.power}, length={len(self.factors)}")

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


def _lmul_simple(st: GarsideStructure, s: Simple, x: GarsideElement) -> GarsideElement:
    """Normal form of s * x for a simple s, by the left-to-right cascade."""
    ident, delta = st.identity, st.delta
    p = x.power
    # s delta^p = delta^p tau^p(s)
    c = st.tau_pow(s, p)
    # c = 1 gives back x (its first slide returns (x_1, 1)), and c = delta
    # is left-weighted with any x_1, so it joins the power below
    fac = x.factors
    rows = st.rows
    head = []
    for f in fac:
        step = rows[c][f]
        if step is None:
            break
        cu, c = step
        head.append(cu)
        if c == ident:
            break
    i = len(head)  # one factor of x consumed per slide
    if c != ident:
        head.append(c)
    k = 0
    while k < len(head) and head[k] == delta:
        k += 1
    return GarsideElement(st, p + k, (*head[k:], *fac[i:]))


def _fold(t, fac: list, e: int, simples: Iterable) -> int:
    """Multiply fac * delta^e by the simples, in place, by the right
    cascade; returns the new e, and the product is fac * delta^e.

    t is a structure, whose list entries are simples, or its code book,
    whose entries are codes: the cascade reads only t.rows, t.tau_inv,
    t.identity, t.delta and t.tau_period, and looks the tables up by
    subscript.  Each simple enters as tau^-e(s), since delta^e s =
    tau^-e(s) delta^e, is appended and slid right to left until a pair is
    left-weighted; an identity rest is deleted, and a carry that fills up
    to delta leaves through the back, twisting by tau^-1 only the suffix
    the cascade walked (x_1 ... delta y = x_1 ... tau^-1(y) delta)."""
    rows, tau_inv, ident, delta, period = t.rows, t.tau_inv, t.identity, t.delta, t.tau_period
    for s in simples:
        if e % period:
            s = tau_inv[s]
        if s == ident:
            continue
        if s == delta:
            e += 1
            continue
        j = len(fac)
        fac.append(s)
        while j:
            step = rows[fac[j - 1]][s]
            if step is None:
                break
            c, rest = step
            if rest == ident:
                del fac[j]
            else:
                fac[j] = rest
            if c == delta:
                fac[j - 1:] = [tau_inv[y] for y in fac[j:]]
                e += 1
                break
            fac[j - 1] = s = c
            j -= 1
    return e


def _finish(st: GarsideStructure, p: int, fac: list, e: int) -> GarsideElement:
    """The element delta^p * fac * delta^e = delta^(p+e) tau^e(fac)."""
    if e % st.tau_period:
        fac = [st.tau_pow(f, e) for f in fac]
    return GarsideElement(st, p + e, tuple(fac))


def make_element(st: GarsideStructure, power: int, simples: Iterable[Simple]) -> GarsideElement:
    """The element delta^power * s_1 ... s_k; every s_i must be a simple."""
    simples = tuple(simples)
    for s in simples:
        if not st.is_simple_value(s):
            raise ValueError(f"not a simple of {st.structure_id}: {s!r}")
    fac: list = []
    return _finish(st, power, fac, _fold(st, fac, 0, simples))


def identity_element(st: GarsideStructure) -> GarsideElement:
    return GarsideElement(st, 0, ())


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
    return _finish(st, a.power, fac, _fold(st, fac, b.power, b.factors))


def invert(a: GarsideElement) -> GarsideElement:
    st = a.structure
    r = len(a.factors)
    if r == 0:
        return GarsideElement(st, -a.power, ())
    # (delta^p y)^-1 = delta^-(p+r) * tau^-(p+r)(dy) where dy's normal form
    # lists tau^(r-i) of the right complement of y_i, for i = r down to 1;
    # that list is already normal
    q = -(a.power + r)
    out = tuple(st.tau_pow(st.right_complement(a.factors[i - 1]), (r - i) + q)
                for i in range(r, 0, -1))
    return GarsideElement(st, q, out)


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
    st = a.structure
    return GarsideElement(st, a.power, tuple(st.tau_pow(f, k) for f in a.factors))


def complement(a: GarsideElement) -> GarsideElement:
    """The right complement a^-1 delta^sup(a) of a positive element with inf 0."""
    if a.power != 0:
        raise ValueError(f"complement needs inf = 0, got inf = {a.power}")
    st = a.structure
    r = len(a.factors)
    out = tuple(st.tau_pow(st.right_complement(a.factors[i - 1]), r - i)
                for i in range(r, 0, -1))
    return GarsideElement(st, 0, out)


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


def _head(st: GarsideStructure, x: GarsideElement) -> Simple:
    """delta ^ x, the largest simple left divisor of a positive x."""
    if x.power > 0:
        return st.delta
    return x.factors[0] if x.factors else st.identity


def _left_divide(st: GarsideStructure, d: Simple, x: GarsideElement) -> GarsideElement:
    """d^-1 * x = delta^-1 * (left complement of d) * x."""
    y = _lmul_simple(st, st.left_complement(d), x)
    return GarsideElement(st, y.power - 1, y.factors)


def left_gcd(a: GarsideElement, b: GarsideElement) -> GarsideElement:
    """The greatest common left divisor of a and b."""
    return _left_gcd_cofactors(a, b)[0]


def _left_gcd_cofactors(a: GarsideElement, b: GarsideElement) -> tuple:
    """(d, d^-1 a, d^-1 b) for d the left gcd of a and b.

    Greedy: with both sides shifted to inf >= 0, the gcd's next normal
    form factor is the meet of the two heads (delta when inf > 0, else the
    first factor); divide it off both sides and repeat until it is 1.  One
    side keeps inf 0 throughout, so no picked factor is delta.  What the
    loop leaves of the two sides are the cofactors."""
    st = _check_same_structure(a, b)
    m = min(a.inf, b.inf)
    ra = GarsideElement(st, a.power - m, a.factors)  # delta^-m * a
    rb = GarsideElement(st, b.power - m, b.factors)
    picked: list = []
    while True:
        d = st.left_meet(_head(st, ra), _head(st, rb))
        if d == st.identity:
            break
        picked.append(d)
        ra = _left_divide(st, d, ra)
        rb = _left_divide(st, d, rb)
    return GarsideElement(st, m, tuple(picked)), ra, rb


def right_gcd(a: GarsideElement, b: GarsideElement) -> GarsideElement:
    """rev of the left gcd of the reversals."""
    _check_same_structure(a, b)
    return _rev(left_gcd(_rev(a), _rev(b)))


def delta_prefix(a: GarsideElement, i: int) -> GarsideElement:
    """left_gcd(a, delta^i) for positive a, read off the normal form."""
    assert a.inf >= 0 and i >= 0
    st = a.structure
    if i <= a.power:
        return delta_power(st, i)
    if i >= a.sup:
        return a
    return GarsideElement(st, a.power, a.factors[:i - a.power])


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
    st = a.structure
    if a.inf >= 0:
        return FractionForm(identity_element(st), a)
    nn = -a.inf
    u0 = delta_power(st, nn)
    v0 = GarsideElement(st, a.power + nn, a.factors)  # u0 * a
    g = left_gcd(u0, v0)
    gi = invert(g)
    return FractionForm(multiply(gi, u0), multiply(gi, v0))
