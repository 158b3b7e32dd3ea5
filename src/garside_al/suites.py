"""Seeded verification suites.

Each suite replays a block of the library's guarantees on fixed inputs and
on pseudo-random instances drawn from a caller-supplied seed, and returns a
line-per-check report.  The CLI maps a failed suite to exit code 1.

The random instance generators live here as plain functions so the test
suite can drive them at larger sample counts than the CLI defaults.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .abelian import abelian_structure
from .absorb import (
    DEFAULT_BUDGET,
    absorbs,
    enumerate_absorbable,
    is_absorbable,
    is_absorbable_prime,
)
from .alcomplex import (
    act,
    adjacent_path_diameter_check,
    are_adjacent,
    distance_upper_bound,
    gcd_vertex,
    identity_vertex,
    overlap_length,
    preferred_path,
    triangle_thinness_report,
    vertex_of,
)
from .braid import braid_structure
from .element import (
    GarsideElement,
    _mirror,
    complement,
    delta_power,
    identity_element,
    invert,
    is_rigid,
    left_divides,
    left_gcd,
    make_element,
    multiply,
    power,
    right_normal_form,
    tau_element,
)
from .special import (
    RoundCurve,
    check_between_powers,
    check_final_segment,
    check_initial_segment,
    check_path_through_powers,
    check_witness_properties,
    delta_three_absorbables,
    distance_witness,
    max_power_dividing,
    nine_absorbable_decomposition,
    orbit_diameter_probe,
    push_round_curve,
    tube_decomposition,
)
from .words import format_factors, parse_word

SUITE_NAMES = ("kernel", "absorb", "complex", "special", "worked-examples", "all")

# Emitted by the suites that stand in for the two results which are theorems
# rather than computations.  Kept as one block so its presence is testable.
SCOPE_NOTE = (
    "Scope note: two headline results are deliberately not recomputed here. "
    "The N/2 distance lower bound for the witness family quantifies over "
    "every path in a locally infinite graph, and the global constants 60 "
    "and 39 come from a non-constructive limit argument; neither is a "
    "finite computation. The seeded property suites for power tracking, "
    "preferred paths, and triangle thinness are the designated finite "
    "substitutes for those statements."
)


@dataclass(frozen=True)
class SuiteCheck:
    label: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        mark = "ok  " if self.ok else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{mark} {self.label}{tail}"


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: tuple
    notes: tuple = ()

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list:
        out = [f"suite {self.name}: {len(self.checks)} checks"]
        out.extend(c.line() for c in self.checks)
        out.extend(self.notes)
        bad = sum(1 for c in self.checks if not c.ok)
        out.append(f"suite {self.name}: {'PASS' if bad == 0 else f'FAIL ({bad} failing)'}")
        return out


# ---------------------------------------------------------------------------
# random instance generators


def random_simple(rng: random.Random, st):
    """A uniformly random nontrivial simple element (the Garside element
    itself is allowed; normalization folds it away where needed)."""
    perm = list(range(1, st.n + 1))
    while True:
        rng.shuffle(perm)
        s = tuple(perm)
        if s != tuple(range(1, st.n + 1)):
            return s


def random_positive(rng: random.Random, st, max_len: int) -> GarsideElement:
    """Random positive element with infimum 0 and 1 <= ell <= max_len."""
    fac = [random_simple(rng, st) for _ in range(rng.randint(1, max_len))]
    e = make_element(st, 0, fac)
    if e.power:
        e = make_element(st, 0, e.factors)
    if e.is_identity:
        return make_element(st, 0, [st.atom(rng.randint(1, st.n - 1))])
    return e


def random_element(rng: random.Random, st, max_len: int) -> GarsideElement:
    return multiply(delta_power(st, rng.randint(-1, 1)),
                    random_positive(rng, st, max_len))


def random_vertex(rng: random.Random, st, max_len: int):
    return vertex_of(random_positive(rng, st, max_len))


def random_left_divisor(rng: random.Random, st, u: GarsideElement,
                        steps: int) -> GarsideElement:
    """Random walk down the prefix lattice of u, one atom at a time."""
    d = identity_element(st)
    for _ in range(steps):
        rem = multiply(invert(d), u)
        opts = [i for i in range(1, st.n)
                if left_divides(make_element(st, 0, [st.atom(i)]), rem)]
        if not opts:
            break
        d = multiply(d, make_element(st, 0, [st.atom(rng.choice(opts))]))
    return d


def random_right_divisor(rng: random.Random, st, u: GarsideElement,
                         steps: int) -> GarsideElement:
    """random_left_divisor in the opposite structure: the same draws, one
    atom at a time down the suffix lattice of u."""
    return _mirror(random_left_divisor(rng, st.opposite(), _mirror(u), steps))


def between_powers_instance(rng: random.Random, x: GarsideElement):
    """(z, m) with z a random prefix of x^m reached through x^lam, lam <= 4."""
    m = 5
    lam = rng.randint(0, 4)
    d = random_left_divisor(rng, x.structure, power(x, m - lam),
                            rng.randint(0, 2 * x.canonical_length))
    return multiply(power(x, lam), d), m


def initial_segment_instance(rng: random.Random, x: GarsideElement) -> GarsideElement:
    """z = x^lam * noise with 2 <= lam <= 4 and inf(z) = 0."""
    while True:
        lam = rng.randint(2, 4)
        z = multiply(power(x, lam), random_positive(rng, x.structure, 3))
        if z.power == 0:
            return z


def final_segment_instance(rng: random.Random, x: GarsideElement):
    """(z, k) with z = v * x^k for a random suffix v of x, 1 <= k <= 4."""
    k = rng.randint(1, 4)
    v = random_right_divisor(rng, x.structure, x,
                             rng.randint(0, 2 * x.canonical_length))
    return multiply(v, power(x, k)), k


def path_powers_instance(rng: random.Random, x: GarsideElement):
    """(z1, z2) whose maximal x-power prefixes differ by at least 3.

    The noise has fewer factors than x, so it cannot complete another
    x-prefix and the power gap is exact by construction.
    """
    st = x.structure
    lam1 = rng.randint(0, 1)
    lam2 = rng.randint(lam1 + 3, 4)
    while True:
        z1 = multiply(power(x, lam1), random_positive(rng, st, 2))
        z2 = multiply(power(x, lam2), random_positive(rng, st, 2))
        if z1.power == 0 and z2.power == 0:
            return z1, z2


# ---------------------------------------------------------------------------
# suite bodies


def _kernel_checks(rng: random.Random) -> list:
    checks = []
    b3, b4 = braid_structure(3), braid_structure(4)

    ok_norm = ok_weight = ok_assoc = ok_inv = ok_gcd = ok_tau = ok_rnf = True
    for _ in range(40):
        st = rng.choice((b3, b4))
        a = random_element(rng, st, 4)
        b = random_element(rng, st, 3)
        c = random_element(rng, st, 2)
        redo = make_element(st, a.power, a.factors)
        ok_norm &= redo == a and redo.factors == a.factors
        ok_weight &= all(st.is_left_weighted(s, t)
                         for s, t in zip(a.factors, a.factors[1:]))
        ok_assoc &= multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        ok_inv &= multiply(a, invert(a)).is_identity
        g = left_gcd(a, b)
        ok_gcd &= (left_divides(g, a) and left_divides(g, b)
                   and g == left_gcd(b, a))
        ok_tau &= (tau_element(multiply(a, b)) ==
                   multiply(tau_element(a), tau_element(b)))
        ok_tau &= tau_element(tau_element(a)) == a
        rfac, rp = right_normal_form(a)
        prod = identity_element(st)
        for f in rfac:
            prod = multiply(prod, make_element(st, 0, [f]))
        ok_rnf &= multiply(prod, delta_power(st, rp)) == a
    checks.append(SuiteCheck("normalization is idempotent", ok_norm))
    checks.append(SuiteCheck("adjacent factor pairs are left-weighted", ok_weight))
    checks.append(SuiteCheck("multiplication is associative", ok_assoc))
    checks.append(SuiteCheck("inverses multiply to the identity", ok_inv))
    checks.append(SuiteCheck("left gcd divides both arguments, symmetrically", ok_gcd))
    checks.append(SuiteCheck("tau is a squared-trivial automorphism", ok_tau))
    checks.append(SuiteCheck("right normal form multiplies back", ok_rnf))

    ok_comp = True
    for _ in range(20):
        st = rng.choice((b3, b4))
        a = random_positive(rng, st, 3)
        ok_comp &= multiply(a, complement(a)) == delta_power(st, a.sup)
    checks.append(SuiteCheck("y * complement(y) is the Garside power", ok_comp))

    z3 = abelian_structure(3)
    e1 = make_element(z3, 0, [(1, 0, 0)])
    checks.append(SuiteCheck(
        "rank-3 free abelian fixture multiplies coordinatewise",
        multiply(e1, make_element(z3, 0, [(0, 1, 1)])) == delta_power(z3, 1)))
    checks.append(SuiteCheck(
        "abelian squares stay infimum 0 off the diagonal",
        power(e1, 4).power == 0 and power(e1, 4).canonical_length == 4))
    return checks


def _absorb_checks(rng: random.Random, budget: int, cache_path=None) -> list:
    checks = []
    b3, b4 = braid_structure(3), braid_structure(4)

    got = enumerate_absorbable(b3, 3, budget=budget, cache_path=cache_path)
    want = {make_element(b3, 0, [b3.atom(1)]), make_element(b3, 0, [b3.atom(2)])}
    checks.append(SuiteCheck(
        "rank-3 enumeration up to length 3 is the two atoms",
        set(got) == want, f"got {len(got)} elements"))

    pool = enumerate_absorbable(b4, 2, budget=budget, cache_path=cache_path)
    ok_cert = ok_invcl = True
    for y in pool:
        cert = is_absorbable(y, budget=budget)
        ok_cert &= cert is not None and absorbs(cert.x, y)
        ok_cert &= cert.x.power == 0 and cert.x.sup == y.canonical_length
        ok_invcl &= absorbs(multiply(cert.x, y), invert(y))
    checks.append(SuiteCheck(
        "every enumerated element gets a minimal verified certificate",
        ok_cert, f"{len(pool)} elements"))
    checks.append(SuiteCheck(
        "the certificate transfers to the inverse", ok_invcl))

    ident = identity_element(b4)
    checks.append(SuiteCheck(
        "identity convention: vacuously absorbed, never certified",
        absorbs(make_element(b4, 0, [b4.atom(1)]), ident)
        and is_absorbable(ident) is None))

    ok_mixed = True
    for _ in range(10):
        y = random_element(rng, b4, 2)
        cert = is_absorbable(y, budget=budget)
        if cert is not None:
            prod = multiply(cert.x, y)
            ok_mixed &= prod.power == cert.x.power and prod.sup == cert.x.sup
    checks.append(SuiteCheck(
        "certificates on mixed-sign samples preserve both statistics", ok_mixed))

    y2 = parse_word(b4, "s1^2 s2^2 s3^2 s2^2 s1")
    cert2 = is_absorbable(y2, budget=budget)
    checks.append(SuiteCheck(
        "the length-5 rigid sample is absorbable with a certificate",
        cert2 is not None and absorbs(cert2.x, y2)))
    checks.append(SuiteCheck(
        "the length-2 interleaved sample is not absorbable",
        is_absorbable(parse_word(b4, "s1 s3 s1 s3"), budget=budget) is None))
    checks.append(SuiteCheck(
        "three-valued variant: yes on the absorbable sample",
        is_absorbable_prime(y2, budget=budget) == "yes"))
    checks.append(SuiteCheck(
        "three-valued variant: no on the interleaved sample",
        is_absorbable_prime(parse_word(b4, "s1 s3 s1 s3"), budget=budget) == "no"))
    return checks


def _complex_checks(rng: random.Random, budget: int) -> list:
    checks = []
    b3, b4 = braid_structure(3), braid_structure(4)

    ok_split = ok_sym = ok_lw = ok_vx = True
    for _ in range(30):
        st = rng.choice((b3, b4))
        v = random_vertex(rng, st, 4)
        w = random_vertex(rng, st, 4)
        if v == w:
            continue
        p = preferred_path(v, w)
        g = gcd_vertex(v, w)
        ok_split &= g in p.vertices
        if g in p.vertices:
            i = p.vertices.index(g)
            left = preferred_path(v, g).vertices if g != v else (v,)
            right = preferred_path(g, w).vertices if g != w else (w,)
            ok_split &= p.vertices[:i + 1] == left and p.vertices[i:] == right
        back = preferred_path(w, v)
        ok_sym &= back.vertices == tuple(reversed(p.vertices))
        ok_lw &= make_element(st, 0, p.labels).factors == p.labels
        k = rng.randint(-2, 2)
        ok_vx &= vertex_of(multiply(v.rep, delta_power(st, k))) == v
    checks.append(SuiteCheck("preferred paths split at the gcd vertex", ok_split))
    checks.append(SuiteCheck("reversed endpoints reverse the path", ok_sym))
    checks.append(SuiteCheck("path labels are left-weighted as given", ok_lw))
    checks.append(SuiteCheck("vertex of g and of g*Delta^k agree", ok_vx))

    ok_adj = ok_diam = True
    simples4 = [make_element(b4, 0, [s]) for s in b4.nontrivial_simples()]
    labels4 = simples4 + list(enumerate_absorbable(b4, 2, budget=budget))
    for _ in range(10):
        v = random_vertex(rng, b4, 3)
        w = vertex_of(multiply(v.rep, rng.choice(labels4)))
        if v == w:
            continue
        wit = are_adjacent(v, w, budget=budget)
        ok_adj &= wit is not None
        back = are_adjacent(w, v, budget=budget)
        ok_adj &= back is not None
        ok_diam &= adjacent_path_diameter_check(v, w, budget=budget)
    checks.append(SuiteCheck("edges are symmetric with explicit witnesses", ok_adj))
    checks.append(SuiteCheck(
        "preferred paths between neighbors have diameter 1", ok_diam))

    ok_thin = ok_ovl = True
    gap_seen = 0
    for _ in range(15):
        verts = []
        while len(verts) < 3:
            cand = random_vertex(rng, b4, 4)
            if cand not in verts:
                verts.append(cand)
        u, v, w = verts
        rep = triangle_thinness_report(u, v, w)
        ok_thin &= rep.max_gap <= 2
        gap_seen = max(gap_seen, rep.max_gap)
        for a, b in ((u, v), (v, w), (u, w)):
            d = left_gcd(a.rep, b.rep)
            r = multiply(invert(d), a.rep).sup
            ok_ovl &= overlap_length(a, b) >= r
    checks.append(SuiteCheck("random triangles are 2-thin with witnesses",
                             ok_thin, f"max gap {gap_seen}"))
    checks.append(SuiteCheck(
        "overlap length dominates the off-gcd tail length", ok_ovl))

    ok_act = True
    d2 = delta_power(b4, 2)
    for _ in range(15):
        v = random_vertex(rng, b4, 4)
        ok_act &= act(d2, v) == v
        g = random_element(rng, b4, 2)
        w = random_vertex(rng, b4, 4)
        if v != w:
            gv, gw = act(g, v), act(g, w)
            same = are_adjacent(v, w, budget=budget) is not None
            moved = gv != gw and are_adjacent(gv, gw, budget=budget) is not None
            ok_act &= same == moved
    checks.append(SuiteCheck(
        "the squared Garside element acts trivially; the action preserves edges",
        ok_act))
    return checks


def _special_checks(rng: random.Random, budget: int) -> list:
    checks = []
    b4 = braid_structure(4)
    b5 = braid_structure(5)

    for n in range(4, 11):
        rep = check_witness_properties(n)
        checks.append(SuiteCheck(f"witness element properties, {n} strands",
                                 rep.ok))

    x4 = distance_witness(4)
    display = ("s2", "s2 s1 s3", "s1 s3 s2 s1 s3", "s1 s3 s2 s1 s3",
               "s1 s3 s2", "s2")
    chunks = tuple(parse_word(b4, w).factors[0] for w in display)
    checks.append(SuiteCheck(
        "4-strand witness factors match the fixed spelling chunk by chunk",
        x4.power == 0 and x4.factors == chunks))

    ok_na = True
    for n in (4, 5, 6):
        xn = distance_witness(n)
        ok_na &= is_absorbable(xn, budget=budget) is None
        ok_na &= is_absorbable(complement(xn), budget=budget) is None
    checks.append(SuiteCheck(
        "witness elements and their complements are not absorbable (4-6 strands)",
        ok_na))

    ok_bp = ok_is = ok_fs = ok_pp = True
    for _ in range(12):
        z, m = between_powers_instance(rng, x4)
        ok_bp &= check_between_powers(x4, z, m).ok
        ok_is &= check_initial_segment(x4, initial_segment_instance(rng, x4)).ok
        z, k = final_segment_instance(rng, x4)
        ok_fs &= check_final_segment(x4, z, k).ok
        z1, z2 = path_powers_instance(rng, x4)
        ok_pp &= check_path_through_powers(x4, z1, z2).ok
    checks.append(SuiteCheck("power prefixes sit between consecutive powers",
                             ok_bp, "12 instances"))
    checks.append(SuiteCheck("normal form heads spell out the power prefix",
                             ok_is, "12 instances"))
    checks.append(SuiteCheck("normal form tails spell out the power suffix",
                             ok_fs, "12 instances"))
    checks.append(SuiteCheck("paths pass through the power vertices",
                             ok_pp, "12 instances"))

    ok_d3 = True
    for n in (4, 5):
        st = braid_structure(n)
        for k in (-2, -1, 1, 2):
            triple = delta_three_absorbables(n, k)
            prod = identity_element(st)
            for piece in triple:
                prod = multiply(prod, piece.factor)
                ok_d3 &= absorbs(piece.absorber, piece.factor)
            ok_d3 &= prod == delta_power(st, k) and len(triple) == 3
    checks.append(SuiteCheck(
        "Garside powers split into three absorbable factors", ok_d3))

    ytube = parse_word(b5, "s1 s2 s1 s4 s3 s2 s1  s1 s2 s1 s3 s2 s4  s4 s3 s2 s1")
    c = RoundCurve(1, 3)
    split = tube_decomposition(ytube, c)
    ok_fig = (push_round_curve(ytube, c) == RoundCurve(2, 4)
              and split is not None
              and split.interior == parse_word(b5, "s1 s2 s1 s1 s2")
              and split.tubular == parse_word(b5, "s4 s3 s2 s1 s1 s2 s3 s4 s4 s3 s2 s1")
              and absorbs(parse_word(b5, "s4^2"), split.interior)
              and absorbs(parse_word(b5, "s1^3"), split.tubular))
    checks.append(SuiteCheck("tube split of the worked example matches", ok_fig))
    pieces = nine_absorbable_decomposition(ytube, c, budget)
    prod = identity_element(b5)
    for piece in pieces:
        prod = multiply(prod, piece.factor)
    checks.append(SuiteCheck(
        "worked example decomposes within the nine-factor budget",
        prod == ytube and len(pieces) <= 9, f"{len(pieces)} factors"))

    checks.append(SuiteCheck(
        "squared Garside element decomposes into three factors",
        len(nine_absorbable_decomposition(delta_power(b4, 2),
                                          RoundCurve(2, 3), budget)) == 3))

    home = identity_vertex(b4)
    x4v = vertex_of(x4)
    checks.append(SuiteCheck(
        "identity and witness vertices are not neighbors",
        are_adjacent(home, x4v, budget=budget) is None))
    ub = distance_upper_bound(home, x4v, 2, 7, budget=budget)
    checks.append(SuiteCheck(
        "witness vertex within distance 6 of the identity",
        ub is not None and ub <= 6, f"upper bound {ub}"))

    probe = orbit_diameter_probe(parse_word(b4, "s1 s2 s3"), 4, 1, 3,
                                 budget=budget)
    ok_per = all(e.upper_bound is not None and e.upper_bound <= 3
                 for e in probe)
    checks.append(SuiteCheck("periodic orbit probe stays bounded", ok_per))

    keeper = multiply(ytube, make_element(b5, 0, [(4, 1, 2, 3, 5)]))
    probe = orbit_diameter_probe(keeper, 3, 1, 3, curve=c, budget=budget)
    ok_red = all(e.upper_bound is not None and e.upper_bound <= 9
                 for e in probe)
    checks.append(SuiteCheck(
        "tube-preserving orbit probe stays within nine", ok_red,
        str([e.upper_bound for e in probe])))
    return checks


def _example_checks(budget: int) -> list:
    """The fixed worked examples with their exact expected values."""
    checks = []
    b3, b4 = braid_structure(3), braid_structure(4)

    checks.append(SuiteCheck(
        "half twist from the three-strand word",
        parse_word(b3, "s1 s2 s1") == delta_power(b3, 1)))
    checks.append(SuiteCheck(
        "negative power parses to the fraction form",
        parse_word(b3, "D^-1 s1").power == -1
        and parse_word(b3, "D^-1 s1").canonical_length == 1))
    inv = invert(make_element(b3, 0, [b3.atom(1)]))
    checks.append(SuiteCheck(
        "inverse of an atom in three strands",
        inv == parse_word(b3, "D^-1 s1 s2")
        and multiply(make_element(b3, 0, [b3.atom(1)]), inv).is_identity))

    y = parse_word(b4, "s1^2 s2^2 s3^2 s2^2 s1")
    x = parse_word(b4, "s1 s2^4 s1^2 s2 s3")
    checks.append(SuiteCheck(
        "length-5 sample: absorber normal form as displayed",
        format_factors(x) == "s1 s2 | s2 | s2 | s2 s1 | s1 s2 s3"))
    checks.append(SuiteCheck(
        "length-5 sample: input normal form as displayed",
        format_factors(y) == "s1 | s1 s2 | s2 s3 | s3 s2 | s2 s1"))
    checks.append(SuiteCheck(
        "length-5 sample: absorbed product as displayed",
        absorbs(x, y) and format_factors(multiply(x, y)) ==
        "s1 s2 s1 | s1 s2 s1 s3 | s1 s2 s3 s2 | s2 s3 s2 | s2 s3 s2 s1"))
    checks.append(SuiteCheck("length-5 sample is rigid", is_rigid(y)))

    checks.append(SuiteCheck(
        "interleaved square is not absorbable",
        is_absorbable(parse_word(b4, "s1 s3 s1 s3"), budget=budget) is None))

    ok45 = True
    for n in (4, 5):
        st = braid_structure(n)
        for i in range(1, n):
            yi = multiply(invert(make_element(st, 0, [st.atom(i)])),
                          delta_power(st, 1))
            ok45 &= is_absorbable(yi, budget=budget) is None
    checks.append(SuiteCheck(
        "no atom-complement simple is absorbable (4 and 5 strands)", ok45))

    got = enumerate_absorbable(b3, 3, budget=budget)
    checks.append(SuiteCheck(
        "three-strand enumeration: exactly the two atoms",
        set(got) == {make_element(b3, 0, [b3.atom(1)]),
                     make_element(b3, 0, [b3.atom(2)])}))

    z3 = abelian_structure(3)
    ok_ab = True
    for k in range(1, 5):
        for i in range(3):
            unit = tuple(1 if j == i else 0 for j in range(3))
            yk = power(make_element(z3, 0, [unit]), k)
            cert = is_absorbable(yk, budget=budget)
            ok_ab &= cert is not None and absorbs(cert.x, yk)
    checks.append(SuiteCheck(
        "abelian fixture: generator multiples up to the fourth power absorb",
        ok_ab))

    x4 = distance_witness(4)
    checks.append(SuiteCheck(
        "witness power prefixes: trivial, square, one extra factor",
        max_power_dividing(x4, power(x4, 2)) == 2
        and max_power_dividing(x4, make_element(b4, 0, [b4.atom(1)])) == 0
        and max_power_dividing(
            x4, multiply(x4, make_element(b4, 0, [b4.atom(2)]))) == 1))
    checks.append(SuiteCheck(
        "witness lengths at nine and ten strands",
        distance_witness(9).canonical_length == 12
        and distance_witness(10).canonical_length == 12))
    return checks


_BODIES = {
    "kernel": lambda rng, budget, cache: _kernel_checks(rng),
    "absorb": _absorb_checks,
    "complex": lambda rng, budget, cache: _complex_checks(rng, budget),
    "special": lambda rng, budget, cache: _special_checks(rng, budget),
    "worked-examples": lambda rng, budget, cache: _example_checks(budget),
}


def run_suite(name: str, seed: int = 0, budget: int = DEFAULT_BUDGET,
              cache_path=None) -> SuiteResult:
    """Run one named suite (or all of them) and collect the report."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    names = SUITE_NAMES[:-1] if name == "all" else (name,)
    checks = []
    for part in names:
        rng = random.Random(f"{seed}:{part}")
        checks.extend(_BODIES[part](rng, budget, cache_path))
    notes = (SCOPE_NOTE,) if name in ("special", "all") else ()
    return SuiteResult(name, tuple(checks), notes)
