"""Group elements in left normal form, and the generic arithmetic on them.

An element is stored canonically as delta^p * x_1 ... x_r where every x_i is a
simple different from the identity and from delta, and every adjacent pair is
left-weighted.  p is the infimum, p + r the supremum, r the canonical length.
Equality of group elements is structural equality of this representation.

Normalization works by repeated local sliding: a pair (s, t) that is not
left-weighted is replaced by (s*(ds ^ t), (ds ^ t)^-1 * t) where ds is the
right complement of s; deltas bubble to the front picking up tau twists.
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


def _settle(st: GarsideStructure, fac: list) -> tuple[int, tuple]:
    """Normalize a list of simples in place; returns (delta count, factors)."""
    ident = st.identity
    delta = st.delta
    fac = [s for s in fac if s != ident]
    j = 1
    while j < len(fac):
        s, t = fac[j - 1], fac[j]
        if s == delta:
            j += 1
            continue
        if t == delta:
            # s * D = D * tau(s): the delta hops left
            fac[j - 1], fac[j] = delta, st.tau(s)
            if j > 1:
                j -= 1
            continue
        u = st.left_meet(st.right_complement(s), t)
        if u == ident:
            j += 1
            continue
        ns = st.compose(s, u)
        assert ns is not None, "slide target not simple; lattice callbacks broken"
        nt = st.left_quotient(u, t)
        fac[j - 1] = ns
        if nt == ident:
            del fac[j]
        else:
            fac[j] = nt
        if j > 1:
            j -= 1
    p = 0
    while fac and fac[0] == delta:
        fac.pop(0)
        p += 1
    assert all(f != delta for f in fac), "non-leading delta survived settling"
    return p, tuple(fac)


def make_element(st: GarsideStructure, power: int, simples: Iterable[Simple]) -> GarsideElement:
    fac = list(simples)
    for s in fac:
        if not st.is_simple_value(s):
            raise ValueError(f"not a simple of {st.structure_id}: {s!r}")
    dp, fac = _settle(st, fac)
    return GarsideElement(st, power + dp, fac)


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
    # delta^pa A delta^pb B = delta^(pa+pb) tau^pb(A) B
    fac = [st.tau_pow(f, b.power) for f in a.factors]
    fac.extend(b.factors)
    return make_element(st, a.power + b.power, fac)


def invert(a: GarsideElement) -> GarsideElement:
    st = a.structure
    r = len(a.factors)
    if r == 0:
        return GarsideElement(st, -a.power, ())
    # (delta^p y)^-1 = delta^-(p+r) * tau^-(p+r)(dy) where dy's normal form
    # lists tau^(r-i) of the right complement of y_i, for i = r down to 1
    q = -(a.power + r)
    out = []
    for i in range(r, 0, -1):
        s = st.right_complement(a.factors[i - 1])
        out.append(st.tau_pow(s, (r - i) + q))
    return make_element(st, q, out)


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
    return make_element(st, a.power, [st.tau_pow(f, k) for f in a.factors])


def complement(a: GarsideElement) -> GarsideElement:
    """The right complement a^-1 delta^sup(a) of a positive element with inf 0."""
    if a.power != 0:
        raise ValueError(f"complement needs inf = 0, got inf = {a.power}")
    st = a.structure
    r = len(a.factors)
    out = [st.tau_pow(st.right_complement(a.factors[i - 1]), r - i)
           for i in range(r, 0, -1)]
    return make_element(st, 0, out)


def normalize(st: GarsideStructure, word: Sequence[tuple]) -> GarsideElement:
    """Normal form of a word given as (base, exponent) letters.

    base is an atom index, the delta marker 'D', or a raw simple value;
    exponents may be negative.  Negative letters are rewritten via
    s^-1 = delta^-1 * (delta s^-1), so only one engine exists.
    """
    p = 0
    fac: list = []

    def append_delta(k: int) -> None:
        nonlocal p, fac
        p += k
        fac = [st.tau_pow(f, k) for f in fac]

    for base, exp in word:
        if exp == 0:
            continue
        if isinstance(base, int):
            if not 1 <= base <= st.rank:
                raise ValueError(f"atom index {base} out of range 1..{st.rank}")
            s = st.atom(base)
        elif base == 'D':
            s = st.delta
        else:
            s = base
            if not st.is_simple_value(s):
                raise ValueError(f"token {s!r} is not a simple of {st.structure_id}")
        if len(fac) + abs(exp) > MAX_SIZE:
            raise SizeLimitExceeded("word expands past the size bound")
        if s == st.delta:
            append_delta(exp)
            continue
        if exp > 0:
            fac.extend([s] * exp)
        else:
            for _ in range(-exp):
                append_delta(-1)
                fac.append(st.left_complement(s))
    return make_element(st, p, fac)


# -- divisibility and gcds ----------------------------------------------------

def left_divides(a: GarsideElement, b: GarsideElement) -> bool:
    _check_same_structure(a, b)
    return multiply(invert(a), b).inf >= 0


def right_divides(a: GarsideElement, b: GarsideElement) -> bool:
    _check_same_structure(a, b)
    return multiply(b, invert(a)).inf >= 0


def _atom_divides_left(st: GarsideStructure, i: int, x: GarsideElement) -> bool:
    # x positive; atom i left-divides x iff it divides the head
    if x.power >= 1:
        return True
    if not x.factors:
        return False
    return i in st.starting_set(x.factors[0])


def _quotient_by_atom_left(st: GarsideStructure, i: int, x: GarsideElement) -> GarsideElement:
    at = st.atom(i)
    if x.power >= 1:
        # a^-1 delta^p X = delta^(p-1) tau^(p-1)(da) X
        head = st.tau_pow(st.right_complement(at), x.power - 1)
        return make_element(st, x.power - 1, [head, *x.factors])
    assert x.factors, "quotient of identity"
    head = st.left_quotient(at, x.factors[0])
    return make_element(st, 0, [head, *x.factors[1:]])


def _atom_divides_right(st: GarsideStructure, i: int, x: GarsideElement) -> bool:
    if x.factors:
        return i in st.finishing_set(x.factors[-1])
    return x.power >= 1


def _quotient_by_atom_right(st: GarsideStructure, i: int, x: GarsideElement) -> GarsideElement:
    at = st.atom(i)
    if x.factors:
        last = st.right_quotient(x.factors[-1], at)
        return make_element(st, x.power, [*x.factors[:-1], last])
    assert x.power >= 1, "quotient of identity"
    return make_element(st, x.power - 1, [st.left_complement(at)])


def left_gcd(a: GarsideElement, b: GarsideElement,
             atom_order: Sequence[int] | None = None) -> GarsideElement:
    """Greedy atom extension; atom_order only affects the computation order."""
    st = _check_same_structure(a, b)
    order = tuple(atom_order) if atom_order is not None else tuple(range(1, st.rank + 1))
    m = min(a.inf, b.inf)
    ra = multiply(delta_power(st, -m), a)
    rb = multiply(delta_power(st, -m), b)
    picked: list = []
    progress = True
    while progress:
        progress = False
        for i in order:
            if _atom_divides_left(st, i, ra) and _atom_divides_left(st, i, rb):
                ra = _quotient_by_atom_left(st, i, ra)
                rb = _quotient_by_atom_left(st, i, rb)
                picked.append(st.atom(i))
                progress = True
                break
    return multiply(delta_power(st, m), make_element(st, 0, picked))


def right_gcd(a: GarsideElement, b: GarsideElement,
              atom_order: Sequence[int] | None = None) -> GarsideElement:
    st = _check_same_structure(a, b)
    order = tuple(atom_order) if atom_order is not None else tuple(range(1, st.rank + 1))
    m = min(a.inf, b.inf)
    ra = multiply(a, delta_power(st, -m))
    rb = multiply(b, delta_power(st, -m))
    picked: list = []
    progress = True
    while progress:
        progress = False
        for i in order:
            if _atom_divides_right(st, i, ra) and _atom_divides_right(st, i, rb):
                ra = _quotient_by_atom_right(st, i, ra)
                rb = _quotient_by_atom_right(st, i, rb)
                picked.append(st.atom(i))
                progress = True
                break
    picked.reverse()
    return multiply(make_element(st, 0, picked), delta_power(st, m))


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

def _settle_right(st: GarsideStructure, fac: list) -> tuple[tuple, int]:
    """Mirror of _settle: right-weighted pairs, deltas bubble to the end."""
    ident = st.identity
    delta = st.delta
    fac = [s for s in fac if s != ident]
    j = 1
    while j < len(fac):
        s, t = fac[j - 1], fac[j]
        if t == delta:
            j += 1
            continue
        if s == delta:
            fac[j - 1], fac[j] = st.tau_pow(t, -1), delta
            if j > 1:
                j -= 1
            continue
        g = st.right_meet(s, st.left_complement(t))
        if g == ident:
            j += 1
            continue
        nt = st.compose(g, t)
        assert nt is not None, "right slide target not simple"
        ns = st.right_quotient(s, g)
        fac[j] = nt
        if ns == ident:
            del fac[j - 1]
        else:
            fac[j - 1] = ns
        if j > 1:
            j -= 1
    p = 0
    while fac and fac[-1] == delta:
        fac.pop()
        p += 1
    assert all(f != delta for f in fac), "non-trailing delta survived right settling"
    return tuple(fac), p


def right_normal_form(a: GarsideElement) -> tuple[tuple, int]:
    """Factors and delta power of a = x'_1 ... x'_r * delta^p, pairs right-weighted."""
    st = a.structure
    # delta^p X = tau^-p(X) delta^p
    fac = [st.tau_pow(f, -a.power) for f in a.factors]
    rfac, extra = _settle_right(st, fac)
    assert extra == 0, "inf changed under right normalization"
    return rfac, a.power


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
    v0 = multiply(u0, a)
    g = left_gcd(u0, v0)
    gi = invert(g)
    return FractionForm(multiply(gi, u0), multiply(gi, v0))
