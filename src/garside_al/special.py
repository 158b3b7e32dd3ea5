"""Braid-only constructions on top of the kernel and the coset complex.

Three groups of tools live here:

* a family of rigid distance-witness braids (one per strand count) whose
  powers pin preferred paths, plus instance checkers for the power-tracking
  statements that make them useful;
* round-curve pushing and the interior/tubular splitting of a braid that
  keeps a round curve round;
* decompositions into few absorbable factors: the half-twist power into
  three, and a tube-preserving braid into at most nine, every factor paired
  with a machine-verified absorber.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .absorb import DEFAULT_BUDGET, absorbs, is_absorbable
from .alcomplex import (
    distance_upper_bound,
    identity_vertex,
    preferred_path,
    vertex_of,
)
from .braid import BraidStructure, braid_structure, embed_simple, perm_inverse, simple_from_word
from .element import (
    GarsideElement,
    _element,
    delta_power,
    delta_prefix,
    identity_element,
    invert,
    is_rigid,
    left_divides,
    make_element,
    multiply,
    power,
    right_divides,
    right_normal_form,
    simple_element,
)
from .structure import UnsupportedStructureOperation
from .words import format_element


class DecompositionError(Exception):
    """A decomposition step failed verification; nothing is guessed."""


def _braid(el_or_st) -> BraidStructure:
    st = getattr(el_or_st, "structure", el_or_st)
    if not isinstance(st, BraidStructure):
        raise UnsupportedStructureOperation(
            f"braid-only operation called on {st.structure_id}")
    return st


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class PropertyCheck:
    label: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{self.label}: {mark}{tail}"


@dataclass(frozen=True)
class PropertyReport:
    subject: str
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list:
        return [f"[{self.subject}]"] + ["  " + c.line() for c in self.checks]


# ---------------------------------------------------------------------------
# the distance-witness family


def _witness_wing(k: int):
    """The simple wing factor for k strands (k >= 5).

    An atom-complement of the inner braid group on strands 2..k-1, padded
    with ascending and descending boundary runs so that consecutive copies
    stay left-weighted after twisting.
    """
    if k < 5:
        raise ValueError(f"wing factor needs at least 5 strands, got {k}")
    stk = braid_structure(k)
    inner = braid_structure(k - 2)
    core = inner.left_quotient(inner.atom((k - 2) // 2), inner.delta)
    s = embed_simple(core, 1, k)
    for i in list(range(1, (k - 1) // 2 + 1)) + list(range(k - 1, (k + 3) // 2 - 1, -1)):
        s = stk.compose(s, stk.atom(i))
        assert s is not None, "wing letters must extend the simple reducedly"
    return s


def distance_witness_factor(n: int) -> GarsideElement:
    """The wing simple for B_n as an element (defined for n >= 5)."""
    return simple_element(braid_structure(n), _witness_wing(n))


def _witness_factor_perms(n: int) -> list:
    """The distance witness's factor list exactly as constructed.

    Kept separate from distance_witness so tests can assert the list is
    already left-weighted as written, catching transcription drift.
    """
    if n < 4:
        raise ValueError(f"distance witness needs at least 4 strands, got {n}")
    stn = braid_structure(n)
    s0 = (n - 3) // 2
    b4 = braid_structure(4)
    head = [embed_simple(b4.atom(2), s0, n),
            embed_simple(simple_from_word(b4, (2, 1, 3)), s0, n)]
    for k in range(5 if n % 2 else 6, n + 1, 2):
        stk = braid_structure(k)
        head.append(embed_simple(stk.tau_pow(_witness_wing(k), (k + 1) // 2),
                                 (n - k) // 2, n))
    e = (n + 1) // 2
    mids = [stn.tau_pow(stn.left_quotient(stn.atom(e), stn.delta), e),
            stn.tau_pow(stn.left_quotient(stn.atom(n // 2), stn.delta), e)]
    return head + mids + [perm_inverse(f) for f in reversed(head)]


def distance_witness(n: int) -> GarsideElement:
    """A rigid positive braid on n strands whose powers realize arbitrarily
    large distance in the coset complex (n >= 4).

    Palindromic by construction: a short head, two atom-complement middle
    factors, and the reversed head.
    """
    stn = braid_structure(n)
    return make_element(stn, 0, _witness_factor_perms(n))


def check_witness_properties(n: int) -> PropertyReport:
    """Verify the advertised shape of the distance witness: infimum zero,
    the length formula, coinciding left and right normal forms, single-atom
    end factors, an atom-complement middle factor, and rigidity.  Failures
    are reported, never thrown.
    """
    st = braid_structure(n)
    x = distance_witness(n)
    checks = []
    checks.append(PropertyCheck("infimum is 0", x.inf == 0, f"inf={x.inf}"))
    want = 2 * ((n + 1) // 2) + 2
    checks.append(PropertyCheck(
        "canonical length is 2*floor((n+1)/2)+2",
        x.canonical_length == want,
        f"len={x.canonical_length}, expected {want}"))
    rfac, rpow = right_normal_form(x)
    checks.append(PropertyCheck(
        "left and right normal forms coincide",
        rpow == 0 and tuple(rfac) == x.factors))
    e = (n + 1) // 2
    atom_e = st.atom(e)
    checks.append(PropertyCheck(
        "first and last factors are the middle atom",
        bool(x.factors) and x.factors[0] == atom_e and x.factors[-1] == atom_e,
        f"atom index {e}"))
    complements = {st.left_quotient(st.atom(i), st.delta) for i in range(1, n)}
    hits = [i + 1 for i, f in enumerate(x.factors) if f in complements]
    checks.append(PropertyCheck(
        "some factor is an atom complement of the half twist",
        bool(hits), f"factor positions {hits}" if hits else "no such factor"))
    checks.append(PropertyCheck("rigid", is_rigid(x)))
    return PropertyReport(f"distance witness, {n} strands", tuple(checks))


# ---------------------------------------------------------------------------
# power tracking along prefixes


def max_power_dividing(x: GarsideElement, z: GarsideElement) -> int:
    """Largest k >= 0 with x^k a left divisor of z.

    z must be positive (or the identity) with infimum 0; x positive and
    nontrivial so the count is finite.
    """
    if z.power != 0:
        raise ValueError("expected an element with infimum 0")
    if x.is_identity or not x.is_positive or x.inf != 0:
        raise ValueError("power base must be positive, nontrivial, of infimum 0")
    peel = invert(x)
    k, rest = 0, multiply(peel, z)
    while rest.inf >= 0:  # given x^k | z: x^(k+1) | z exactly when x | x^-k z
        k, rest = k + 1, multiply(peel, rest)
    return k


def check_between_powers(x: GarsideElement, z: GarsideElement,
                         m: Optional[int] = None) -> PropertyReport:
    """With lam = max_power_dividing(x, z): verify z sits between x^lam and
    x^(lam+1) in prefix order, and that the length-lam*r head of z's normal
    form is exactly x^lam.  When m is given, z must left-divide x^m.
    """
    if z.power != 0 or not z.is_positive:
        raise ValueError("expected a positive element with infimum 0")
    if m is not None and not left_divides(z, power(x, m)):
        raise ValueError(f"z does not left-divide the {m}-th power")
    lam = max_power_dividing(x, z)
    r = x.canonical_length
    xl = power(x, lam)
    checks = (
        PropertyCheck("x^lam left-divides z", left_divides(xl, z), f"lam={lam}"),
        PropertyCheck("z left-divides x^(lam+1)",
                      left_divides(z, power(x, lam + 1))),
        PropertyCheck("head of length lam*r equals x^lam",
                      delta_prefix(z, lam * r) == xl),
    )
    return PropertyReport("between consecutive powers", checks)


def check_initial_segment(x: GarsideElement, z: GarsideElement) -> PropertyReport:
    """For lam = max_power_dividing(x, z) >= 2: the first (lam-1)*r normal
    form factors of z multiply to exactly x^(lam-1)."""
    if z.power != 0 or not z.is_positive:
        raise ValueError("expected a positive element with infimum 0")
    lam = max_power_dividing(x, z)
    if lam < 2:
        raise ValueError(f"needs at least the square as a prefix, got lam={lam}")
    r = x.canonical_length
    want = power(x, lam - 1)
    got = z.factors[:(lam - 1) * r]
    checks = (
        PropertyCheck("normal form head spells out x^(lam-1)",
                      got == want.factors, f"lam={lam}"),
    )
    return PropertyReport("initial segment of a power prefix", checks)


def check_final_segment(x: GarsideElement, z: GarsideElement, k: int) -> PropertyReport:
    """When x^k right-divides z and z right-divides x^(k+1) (as suffixes),
    the last k*r normal form factors of z are x's factors repeated k times."""
    if z.power != 0 or not z.is_positive:
        raise ValueError("expected a positive element with infimum 0")
    if k < 0:
        raise ValueError("power count must be nonnegative")
    if not right_divides(power(x, k), z):
        raise ValueError("x^k is not a suffix of z")
    if not right_divides(z, power(x, k + 1)):
        raise ValueError("z is not a suffix of x^(k+1)")
    r = x.canonical_length
    tail = z.factors[len(z.factors) - k * r:] if k else ()
    checks = (
        PropertyCheck("normal form tail spells out x^k",
                      tail == power(x, k).factors, f"k={k}"),
    )
    return PropertyReport("final segment of a power suffix", checks)


def check_path_through_powers(x: GarsideElement, z1: GarsideElement,
                              z2: GarsideElement) -> PropertyReport:
    """With lam_i = max_power_dividing(x, z_i) and lam2 - lam1 >= 3, the
    preferred path between the z-vertices must contain the preferred path
    between the x^(lam1+1)- and x^(lam2-1)-vertices, as a contiguous run."""
    lam1 = max_power_dividing(x, z1)
    lam2 = max_power_dividing(x, z2)
    if lam2 - lam1 < 3:
        raise ValueError(f"power gap must be >= 3, got {lam2 - lam1}")
    main = preferred_path(vertex_of(z1), vertex_of(z2)).vertices
    sub = preferred_path(vertex_of(power(x, lam1 + 1)),
                         vertex_of(power(x, lam2 - 1))).vertices
    found = any(main[i:i + len(sub)] == sub
                for i in range(len(main) - len(sub) + 1))
    checks = (
        PropertyCheck("power subpath is a contiguous run of the main path",
                      found, f"lam1={lam1}, lam2={lam2}"),
    )
    return PropertyReport("path through powers", checks)


# ---------------------------------------------------------------------------
# absorbable decompositions


@dataclass(frozen=True)
class DecompositionPiece:
    factor: GarsideElement
    absorber: GarsideElement
    rule: str

    def line(self) -> str:
        return (f"{format_element(self.factor)}  absorbed by  "
                f"{format_element(self.absorber)}  [{self.rule}]")


def _verified_piece(factor: GarsideElement, absorber: GarsideElement,
                    rule: str) -> DecompositionPiece:
    if not absorbs(absorber, factor):
        raise DecompositionError(
            f"candidate absorber failed verification ({rule})")
    return DecompositionPiece(factor, absorber, rule)


def delta_three_absorbables(n: int, k: int) -> tuple:
    """Write the k-th power of the half twist of B_n as a product of three
    absorbable braids, each returned with a verified absorber.

    Uses the commuting pair of atoms 1 and 3: their k-th powers absorb each
    other, and what is left of Delta^k is absorbed by the first.  Negative k
    inverts the three factors in reverse order; an absorber for an inverse
    comes from the identity stats(x * y * y^-1) = stats(x).
    """
    if n < 4:
        raise ValueError(f"needs two commuting atoms, so at least 4 strands, got {n}")
    if k == 0:
        raise ValueError("power must be nonzero")
    st = braid_structure(n)
    m = abs(k)
    a = power(simple_element(st, st.atom(1)), m)
    b = power(simple_element(st, st.atom(3)), m)
    c = multiply(invert(multiply(a, b)), delta_power(st, m))
    if k > 0:
        pieces = (
            _verified_piece(a, b, "commuting atom power"),
            _verified_piece(b, a, "commuting atom power"),
            _verified_piece(c, a, "half-twist remainder"),
        )
    else:
        pieces = (
            _verified_piece(invert(c), multiply(a, c), "inverted half-twist remainder"),
            _verified_piece(invert(b), multiply(a, b), "inverted commuting atom power"),
            _verified_piece(invert(a), multiply(b, a), "inverted commuting atom power"),
        )
    prod = identity_element(st)
    for piece in pieces:
        prod = multiply(prod, piece.factor)
    if prod != delta_power(st, k):
        raise DecompositionError("three-factor product does not equal the half-twist power")
    return pieces


# ---------------------------------------------------------------------------
# round curves and tubes


@dataclass(frozen=True)
class RoundCurve:
    """A circle around the consecutive punctures lo..hi of the disk."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (1 <= self.lo < self.hi):
            raise ValueError(f"curve must enclose at least two punctures, got [{self.lo},{self.hi}]")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def reflected(self, n: int) -> "RoundCurve":
        return RoundCurve(n + 1 - self.hi, n + 1 - self.lo)


def _check_curve(st: BraidStructure, c: RoundCurve) -> None:
    if c.hi > st.n or c.size > st.n - 1:
        raise ValueError(
            f"curve [{c.lo},{c.hi}] does not fit essentially in a {st.n}-strand disk")


def push_round_curve(y: GarsideElement, c: RoundCurve) -> Optional[RoundCurve]:
    """Push the curve through y, factor by factor; the result is the final
    curve when it stays round the whole way, None otherwise.

    y must be positive up to a leading Delta power (a half twist keeps
    round curves round, reflecting the interval).  Per positive simple
    factor the curve stays round exactly when the interval's image set is
    again an interval.
    """
    st = _braid(y)
    _check_curve(st, c)
    if y.inf < 0:
        raise ValueError("needs a positive braid, up to a leading half-twist power")
    n = st.n
    lo, hi = c.lo, c.hi
    if y.power % 2:
        lo, hi = n + 1 - hi, n + 1 - lo
    for s in y.factors:
        img = sorted(s[i - 1] for i in range(lo, hi + 1))
        if img[-1] - img[0] + 1 != len(img):
            return None
        lo, hi = img[0], img[-1]
    return RoundCurve(lo, hi)


@dataclass(frozen=True)
class TubeDecomposition:
    interior: GarsideElement    # crossings inside the tube, at its start position
    tubular: GarsideElement     # the braid with tube strands kept parallel
    whole: GarsideElement


def _interval_support_only(a: GarsideElement, lo: int, hi: int) -> bool:
    return all(f[i - 1] == i
               for f in a.factors
               for i in range(1, a.structure.n + 1) if not lo <= i <= hi)


def tube_decomposition(y: GarsideElement, c: RoundCurve) -> Optional[TubeDecomposition]:
    """Split y = interior * tubular along the tube swept by c.

    Each normal form factor splits into its crossings among tube strands
    and the rest; the interior crossings are transported back to the tube's
    start position through the (order-preserving) tubular prefix.  Returns
    None when the curve does not stay round.  A verification failure of the
    reassembled product is a fatal error, not a report.
    """
    st = _braid(y)
    if push_round_curve(y, c) is None:
        return None
    n = st.n
    lo0, hi0 = c.lo, c.hi
    width = hi0 - lo0
    factors = [st.delta] * y.power + list(y.factors)
    lo, hi = lo0, hi0
    int_parts = []
    tub_parts = []
    for s in factors:
        img_lo = min(s[i - 1] for i in range(lo, hi + 1))
        inner = list(range(1, n + 1))
        for i in range(lo, hi + 1):
            inner[i - 1] = lo + (s[i - 1] - img_lo)
        inner = tuple(inner)
        tub_parts.append(st.left_quotient(inner, s))
        back = list(range(1, n + 1))
        for r in range(width + 1):
            back[lo0 + r - 1] = lo0 + (inner[lo + r - 1] - lo)
        int_parts.append(tuple(back))
        lo, hi = img_lo, img_lo + width
    y_int = make_element(st, 0, int_parts)
    y_tub = make_element(st, 0, tub_parts)
    if multiply(y_int, y_tub) != y:
        raise DecompositionError("interior and tubular parts do not reassemble")
    if not _interval_support_only(y_int, lo0, hi0):
        raise DecompositionError("interior part escaped the tube interval")
    return TubeDecomposition(y_int, y_tub, y)


# ---------------------------------------------------------------------------
# the at-most-nine absorbable decomposition


def _twisted_run_candidates(st: BraidStructure, p: int) -> list:
    """Candidate absorbers built from p twist-conjugated copies of the full
    ascending or descending atom run.

    The source material is ambiguous about the twist-exponent direction and
    the run orientation, so all four deterministic variants are offered;
    callers verify and record which one matched.
    """
    if p < 1:
        return []
    n = st.n
    out = []
    for word, wname in ((tuple(range(1, n)), "ascending"),
                        (tuple(range(n - 1, 0, -1)), "descending")):
        base = simple_from_word(st, word)
        for use_up, ename in ((True, "rising twist"), (False, "falling twist")):
            fac = [st.tau_pow(base, i if use_up else p - i) for i in range(1, p + 1)]
            out.append((make_element(st, 0, fac), f"{wname} run, {ename}"))
    return out


def _absorber_from(cands, factor: GarsideElement, context: str) -> DecompositionPiece:
    for cand, rule in cands:
        if absorbs(cand, factor):
            return DecompositionPiece(factor, cand, f"{context}: {rule}")
    raise DecompositionError(f"{context}: no candidate absorber verified")


def _interior_pieces(st: BraidStructure, y_int: GarsideElement, c: RoundCurve) -> list:
    """Absorbable pieces for the interior part, by where the tube sits.

    With two adjacent punctures outside the tube, one commuting atom power
    absorbs everything.  With only the two end punctures outside, a twisted
    full-run product does.  With a single outside puncture, the interval
    half twist is cleared first (an atom power and its complement, each
    absorbed by a twisted run), then the remainder is handled as before.
    """
    if y_int.is_identity:
        return []
    n = st.n
    lo, hi = c.lo, c.hi
    quiet = [j for j in range(1, n) if j + 1 < lo or j > hi]
    if quiet:
        p = y_int.sup
        cands = [(power(simple_element(st, st.atom(j)), p),
                  f"outside atom {j} to the power {p}") for j in quiet]
        return [_absorber_from(cands, y_int, "interior, outside pair")]
    if lo == 2 and hi == n - 1:
        cands = _twisted_run_candidates(st, y_int.sup)
        return [_absorber_from(cands, y_int, "interior, both ends outside")]
    # exactly one puncture outside: clear the tube's own half twist
    tube_delta = simple_element(
        st, embed_simple(braid_structure(hi - lo + 1).delta, lo - 1, n))
    k = max_power_dividing(tube_delta, y_int)
    rest = multiply(invert(power(tube_delta, k)), y_int)
    pieces = []
    if k:
        twist_cands = _twisted_run_candidates(st, k)
        errors = []
        for i in range(lo, hi):
            head = power(simple_element(st, st.atom(i)), k)
            tail = multiply(invert(head), power(tube_delta, k))
            extra = _twisted_run_candidates(st, tail.sup) if tail.sup != k else []
            try:
                pieces.append(_absorber_from(
                    twist_cands, head, f"interior half twist, atom {i} power"))
                pieces.append(_absorber_from(
                    twist_cands + extra, tail, f"interior half twist, atom {i} complement"))
                break
            except DecompositionError as exc:
                pieces.clear()
                errors.append(str(exc))
        else:
            raise DecompositionError(
                "interior half twist resisted every atom split: " + "; ".join(errors))
    if not rest.is_identity:
        cands = _twisted_run_candidates(st, rest.sup)
        pieces.append(_absorber_from(cands, rest, "interior, one end outside"))
    return pieces


def _tube_twist_lift(n: int, lo: int, hi: int):
    """The simple permutation carrying the tube across the half twist of
    the collapsed braid: tube strands shift to the reflected interval in
    order, everything else reflects."""
    p = [0] * n
    for i in range(1, n + 1):
        if lo <= i <= hi:
            p[i - 1] = (n + 1 - hi) + (i - lo)
        else:
            p[i - 1] = n + 1 - i
    return tuple(p)


def _tubular_pieces(st: BraidStructure, y_tub: GarsideElement, c: RoundCurve,
                     budget: int) -> list:
    """Absorbable pieces for the tubular part.

    An interior atom power usually absorbs the whole thing.  When it does
    not (the tubular braid can hide powers of the collapsed half twist's
    lift, which no atom power absorbs), the maximal lift power is cleared
    and decomposed like a half-twist power, and the candidates are retried
    on the remainder.
    """
    if y_tub.is_identity:
        return []
    n = st.n

    def atom_power_cands(target: GarsideElement, lo: int = c.lo, hi: int = c.hi) -> list:
        p = max(target.sup, 1)
        return [(power(simple_element(st, st.atom(i)), p),
                 f"tube atom {i} to the power {p}") for i in range(lo, hi)]

    try:
        return [_absorber_from(atom_power_cands(y_tub), y_tub, "tubular")]
    except DecompositionError:
        pass
    lo, hi = c.lo, c.hi
    twist = identity_element(st)
    count = 0
    rest = y_tub
    while True:
        lift = simple_element(st, _tube_twist_lift(n, lo, hi))
        if not left_divides(lift, rest):
            break
        twist = multiply(twist, lift)
        rest = multiply(invert(lift), rest)
        count += 1
        lo, hi = n + 1 - hi, n + 1 - lo
    if count == 0:
        raise DecompositionError("tubular part resisted every interior atom power")
    pieces = _twist_product_pieces(st, twist, count, atom_power_cands, budget)
    if not rest.is_identity:
        # the cleared lifts have moved the tube to lo..hi
        pieces.append(_absorber_from(atom_power_cands(rest, lo, hi), rest,
                                     "tubular, twist cleared"))
    return pieces


def _twist_product_pieces(st: BraidStructure, twist: GarsideElement, count: int,
                          extra_cands, budget: int) -> list:
    """Split a product of tube twist lifts into verified absorbable pieces.

    The commuting-atom triple used for half-twist powers is tried first; if
    its remainder resists every candidate, the product is rewritten as a
    sup-0 head against a full half-twist power, the head's absorber found
    by a search under the node budget.
    """
    a = power(simple_element(st, st.atom(1)), count)
    b = power(simple_element(st, st.atom(3)), count)
    cpart = multiply(invert(multiply(a, b)), twist)
    try:
        c_cands = ([(a, "first atom power"), (b, "second atom power")]
                   + extra_cands(cpart)
                   + _twisted_run_candidates(st, max(cpart.sup, 1)))
        return [
            _verified_piece(a, b, "tube twist clearing, commuting atom power"),
            _verified_piece(b, a, "tube twist clearing, commuting atom power"),
            _absorber_from(c_cands, cpart, "tube twist remainder"),
        ]
    except DecompositionError:
        pass
    s = twist.sup
    head = multiply(delta_power(st, s), invert(twist))
    pieces = []
    if not head.is_identity:
        inv_head = invert(head)
        cert = is_absorbable(inv_head, budget=budget)
        if cert is None:
            raise DecompositionError("tube twist product has a non-absorbable head")
        pieces.append(DecompositionPiece(inv_head, cert.x,
                                         "tube twist head, searched absorber"))
    pieces.extend(delta_three_absorbables(st.n, s))
    return pieces


def nine_absorbable_decomposition(y: GarsideElement, c: RoundCurve,
                                  budget: int = DEFAULT_BUDGET) -> tuple:
    """Write a braid that keeps the curve c round as a product of at most
    nine absorbable factors, each with a verified absorber.

    Layout: up to three factors clearing the leading half-twist power, up
    to three for the interior part, up to three for the tubular part.
    Raises DecompositionError when the curve does not stay round, when a
    candidate absorber fails, or when the factor count overruns, and
    SearchBudgetExceeded when the one absorber search, for a tube twist
    head, runs out of its node budget.
    """
    st = _braid(y)
    if st.n < 4:
        raise ValueError(f"needs at least 4 strands, got {st.n}")
    _check_curve(st, c)
    pieces = []
    rest = y
    cur = c
    if y.inf != 0:
        pieces.extend(delta_three_absorbables(st.n, y.inf))
        rest = _element(st, 0, y.factors)  # delta^-inf(y) * y
        if y.inf % 2:
            cur = cur.reflected(st.n)
    split = tube_decomposition(rest, cur)
    if split is None:
        raise DecompositionError("the braid does not keep the curve round")
    pieces.extend(_interior_pieces(st, split.interior, cur))
    pieces.extend(_tubular_pieces(st, split.tubular, cur, budget))
    prod = identity_element(st)
    for piece in pieces:
        prod = multiply(prod, piece.factor)
    if prod != y:
        raise DecompositionError("absorbable factors do not reassemble the input")
    if len(pieces) > 9:
        raise DecompositionError(f"decomposition needs {len(pieces)} factors, over the budget of 9")
    return tuple(pieces)


# ---------------------------------------------------------------------------
# orbit probing


@dataclass(frozen=True)
class ProbeEntry:
    power: int
    upper_bound: Optional[int]
    search_bound: Optional[int]
    decomposition_bound: Optional[int]


def orbit_diameter_probe(g: GarsideElement, steps: int, gen_len: int, radius: int,
                         curve: Optional[RoundCurve] = None,
                         budget: int = DEFAULT_BUDGET) -> tuple:
    """Upper bounds on the complex distance from the identity vertex to the
    vertices of g, g^2, ..., g^steps.

    Bounds come from the restricted-generator search and, when a curve is
    supplied and each power keeps it round, from the absorbable
    decomposition (one edge per factor).  The search radius is capped at
    the decomposition bound since larger search answers would be discarded.
    Each step is one distance_upper_bound call, which brackets the
    distance by canonical length first.  At gen_len 1 the bracket answers
    every step: no move set is built, no budget is spent on the distance,
    and the distances need no enumeration of simples, so they work past 8
    strands.  A step whose bracket leaves a search runs it on the move set
    kept on the structure (see alcomplex._vertex_moves): only the first
    search of the process at this generator length builds it, under this
    budget; a later probe with another budget uses the stored exact set,
    and its budget still caps every search's expansions.
    """
    if gen_len < 1 or radius < 1:
        raise ValueError("generator length and radius must be >= 1")
    if steps < 1:
        raise ValueError("step count must be >= 1")
    st = g.structure
    home = identity_vertex(st)
    out = []
    gi = identity_element(st)
    for i in range(1, steps + 1):
        gi = multiply(gi, g)
        decomp = None
        if curve is not None:
            try:
                decomp = len(nine_absorbable_decomposition(gi, curve, budget))
            except DecompositionError:
                decomp = None
        target = vertex_of(gi)
        effective = radius if decomp is None else min(radius, decomp)
        if effective >= 1:
            found = distance_upper_bound(home, target, gen_len, effective, budget)
        else:  # an empty decomposition: gi is the identity, at home
            found = 0
        bounds = [x for x in (found, decomp) if x is not None]
        out.append(ProbeEntry(i, min(bounds) if bounds else None, found, decomp))
    return tuple(out)
