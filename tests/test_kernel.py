"""Normal-form arithmetic against the independent word-rewriting oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from garside_al import (
    GarsideStructure,
    SizeLimitExceeded,
    abelian_structure,
    braid_structure,
    complement,
    delta_power,
    fraction_form,
    identity_element,
    invert,
    is_rigid,
    left_divides,
    left_gcd,
    make_element,
    multiply,
    normalize,
    parse_word,
    power,
    right_divides,
    right_gcd,
    right_normal_form,
    simple_element,
    stats,
    tau_element,
)
from garside_al.element import GarsideElement, _lmul_simple, _rmul_simple
from oracles import (
    elements_equal_mixed,
    greedy_normal_form,
    left_weighted_pair,
    nf_of_mixed,
    perm_of_word,
    positive_words_equal,
    reduced_word,
    reference_normal_form,
    reference_right_normal_form,
)

B3 = braid_structure(3)
B4 = braid_structure(4)
B5 = braid_structure(5)


def from_word(struct, word):
    return make_element(struct, 0, [struct.atom(i) for i in word])


def to_mixed(a):
    """(power, atom word) form of an element, for feeding the oracle."""
    word = []
    for f in a.factors:
        word.extend(a.structure.simple_word(f))
    return a.power, tuple(word)


def random_word(rng, n, max_len):
    return tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, max_len)))


def test_normal_form_matches_oracle_on_random_words():
    rng = random.Random(1405)
    for _ in range(60):
        n = rng.choice((3, 4, 5))
        struct = braid_structure(n)
        word = random_word(rng, n, 12)
        e = from_word(struct, word)
        p, factors = greedy_normal_form(word, n)
        assert e.power == p
        assert list(e.factors) == factors
        assert all(struct.is_left_weighted(s, t)
                   for s, t in zip(e.factors, e.factors[1:]))
        assert all(left_weighted_pair(s, t)
                   for s, t in zip(e.factors, e.factors[1:]))


def test_normal_form_spec_values():
    assert from_word(B3, (1, 2, 1)) == delta_power(B3, 1)
    e = from_word(B3, (1, 1, 2))
    assert (e.power, e.factors) == (0, ((2, 1, 3), (3, 1, 2)))
    e = from_word(B4, (2, 1, 3, 2))  # one simple, already a permutation braid
    assert (e.power, e.canonical_length) == (0, 1)


def test_multiplication_agrees_with_word_concatenation():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.choice((3, 4))
        struct = braid_structure(n)
        u, v = random_word(rng, n, 6), random_word(rng, n, 6)
        prod = multiply(from_word(struct, u), from_word(struct, v))
        assert elements_equal_mixed(to_mixed(prod), (0, u + v), n)


def test_inverse_and_fraction_form():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.choice((3, 4))
        struct = braid_structure(n)
        a = multiply(delta_power(struct, rng.randint(-2, 2)),
                     from_word(struct, random_word(rng, n, 5)))
        assert multiply(a, invert(a)).is_identity
        assert multiply(invert(a), a).is_identity
        assert invert(a).power == -a.sup
        frac = fraction_form(a)
        assert multiply(invert(frac.negative), frac.positive) == a
        assert left_gcd(frac.negative, frac.positive).is_identity


def test_inverse_of_atom_value():
    # s1^-1 in three strands: multiply-back fixes the value
    inv = invert(from_word(B3, (1,)))
    assert inv.power == -1
    assert inv.factors == (perm_of_word((1, 2), 3),)


def test_stats_arithmetic_bounds():
    rng = random.Random(5150)
    for _ in range(50):
        n = rng.choice((3, 4))
        struct = braid_structure(n)
        a = multiply(delta_power(struct, rng.randint(-2, 2)),
                     from_word(struct, random_word(rng, n, 5)))
        b = multiply(delta_power(struct, rng.randint(-2, 2)),
                     from_word(struct, random_word(rng, n, 5)))
        k = rng.randint(-3, 3)
        ab = multiply(a, b)
        assert multiply(delta_power(struct, k), a).inf == k + a.inf
        assert ab.inf >= a.inf + b.inf
        assert ab.sup <= a.sup + b.sup
        assert invert(a).inf == -a.sup
        s = stats(a)
        assert (s.inf, s.sup, s.length) == (a.inf, a.sup, a.canonical_length)


def test_complement_formula_and_identity():
    rng = random.Random(88)
    for _ in range(30):
        n = rng.choice((3, 4))
        struct = braid_structure(n)
        a = from_word(struct, random_word(rng, n, 5))
        if a.power != 0:
            a = make_element(struct, 0, a.factors)
        c = complement(a)
        assert multiply(a, c) == delta_power(struct, a.sup)
        r = a.canonical_length
        expected = [struct.tau_pow(struct.right_complement(a.factors[i - 1]),
                                   r - i)
                    for i in range(r, 0, -1)]
        assert make_element(struct, 0, expected) == c
    with pytest.raises(ValueError):
        complement(delta_power(B3, -1))


def test_left_gcd_universal_property_exhaustive_small():
    rng = random.Random(4242)
    simples = [s for s in B4.nontrivial_simples()]
    candidates = [identity_element(B4)]
    candidates += [make_element(B4, 0, [s]) for s in simples]
    for _ in range(400):
        s, t = rng.choice(simples), rng.choice(simples)
        candidates.append(make_element(B4, 0, [s, t]))
    for _ in range(8):
        a = from_word(B4, random_word(rng, 4, 4))
        b = from_word(B4, random_word(rng, 4, 4))
        g = left_gcd(a, b)
        assert left_divides(g, a) and left_divides(g, b)
        for d in candidates:
            if left_divides(d, a) and left_divides(d, b):
                assert left_divides(d, g)


def test_left_gcd_equals_bruteforce_maximum():
    rng = random.Random(700)
    for _ in range(10):
        u = random_word(rng, 3, 6)
        v = random_word(rng, 3, 6)
        a, b = from_word(B3, u), from_word(B3, v)
        g = left_gcd(a, b)
        # brute force: the longest positive word prefix-dividing both
        best = identity_element(B3)
        frontier = [identity_element(B3)]
        while frontier:
            d = frontier.pop()
            if d.sup > best.sup or (d.sup == best.sup
                                    and not left_divides(d, best)):
                if left_divides(best, d):
                    best = d
            for i in (1, 2):
                nd = multiply(d, from_word(B3, (i,)))
                if left_divides(nd, a) and left_divides(nd, b):
                    frontier.append(nd)
        assert g == best


def test_right_gcd_mirrors_left():
    rng = random.Random(12)
    for _ in range(20):
        a = from_word(B4, random_word(rng, 4, 5))
        b = from_word(B4, random_word(rng, 4, 5))
        g = right_gcd(a, b)
        assert right_divides(g, a) and right_divides(g, b)


def test_right_gcd_sees_an_atom_behind_the_last_factor():
    # s1 s1 s3 has normal form s1 s3 | s1, yet s3 divides it on the right
    a, b = from_word(B4, (1, 1, 3)), from_word(B4, (3,))
    assert right_gcd(a, b) == b
    assert right_gcd(b, a) == b


def test_tau_is_conjugation_by_delta():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.choice((3, 4))
        struct = braid_structure(n)
        a = multiply(delta_power(struct, rng.randint(-1, 1)),
                     from_word(struct, random_word(rng, n, 4)))
        d = delta_power(struct, 1)
        assert tau_element(a) == multiply(multiply(invert(d), a), d)
        assert tau_element(a, -2) == a  # delta squared is central


def test_right_normal_form_properties():
    rng = random.Random(55)
    for _ in range(25):
        n = rng.choice((3, 4))
        struct = braid_structure(n)
        a = multiply(delta_power(struct, rng.randint(-1, 1)),
                     from_word(struct, random_word(rng, n, 6)))
        rfac, rp = right_normal_form(a)
        back = identity_element(struct)
        for f in rfac:
            back = multiply(back, make_element(struct, 0, [f]))
        assert multiply(back, delta_power(struct, rp)) == a
        assert rp == a.power
        # right-weighted: no atom can migrate from the tail of s into t
        assert all(struct.finishing_set(s) <= struct.starting_set(t)
                   for s, t in zip(rfac, rfac[1:]))


def test_rigidity_values():
    y = from_word(B4, (1, 1, 2, 2, 3, 3, 2, 2, 1))
    assert is_rigid(y)
    assert not is_rigid(from_word(B3, (1, 1, 2)))
    with pytest.raises(ValueError):
        is_rigid(identity_element(B3))


def test_power_agrees_with_repeated_multiplication():
    rng = random.Random(60)
    for _ in range(15):
        a = multiply(delta_power(B4, rng.randint(-1, 1)),
                     from_word(B4, random_word(rng, 4, 3)))
        k = rng.randint(0, 5)
        direct = identity_element(B4)
        for _ in range(k):
            direct = multiply(direct, a)
        assert power(a, k) == direct
        assert power(a, -k) == invert(direct)


def test_normalize_letter_engine():
    e = normalize(B3, [(1, 2), ("D", -1), (2, 1)])
    assert e == multiply(multiply(from_word(B3, (1, 1)), delta_power(B3, -1)),
                         from_word(B3, (2,)))
    assert normalize(B3, [(1, -1), (1, 1)]).is_identity


def test_normalize_rejects_letters_other_than_atom_indices_and_delta():
    # a raw simple value is not a letter, even a valid one
    for letter in (B3.atom(1), B3.delta, "s1", "d", None):
        with pytest.raises(ValueError, match="neither an atom index nor 'D'"):
            normalize(B3, [(letter, 1)])


def test_normalize_twists_once_however_many_inverse_letters(monkeypatch):
    # each inverse letter moves the delta exponent; re-twisting the prefix
    # per letter made parsing s1^-k quadratic in k
    calls = 0
    tau_pow = GarsideStructure.tau_pow

    def counted(self, s, k):
        nonlocal calls
        calls += 1
        return tau_pow(self, s, k)

    monkeypatch.setattr(GarsideStructure, "tau_pow", counted)
    e = parse_word(B4, "s1^-400")
    assert calls < 2000
    monkeypatch.undo()
    assert e == invert(parse_word(B4, "s1^400"))


def test_size_guard():
    with pytest.raises(SizeLimitExceeded):
        make_element(B3, 10 ** 7, [])


def test_factor_values_must_be_simples():
    with pytest.raises(ValueError, match="not a simple"):
        make_element(B3, 0, [(1, 1, 2)])  # not a permutation
    with pytest.raises(ValueError, match="not a simple"):
        make_element(B3, 0, [(2, 1)])  # wrong rank


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(3, 5),
       st.lists(st.integers(1, 4), max_size=6),
       st.lists(st.integers(1, 4), max_size=6))
def test_property_concatenation_vs_oracle(n, u, v):
    # 12 letters total keeps the word-closure oracle far from its cap
    struct = braid_structure(n)
    u = tuple(i for i in u if i < n)
    v = tuple(i for i in v if i < n)
    prod = multiply(from_word(struct, u), from_word(struct, v))
    p, factors = greedy_normal_form(u + v, n)
    assert (prod.power, list(prod.factors)) == (p, factors)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=8),
       st.lists(st.integers(1, 3), max_size=8))
def test_property_gcd_is_common_divisor(u, v):
    a, b = from_word(B4, tuple(u)), from_word(B4, tuple(v))
    g = left_gcd(a, b)
    assert left_divides(g, a) and left_divides(g, b)
    assert g == left_gcd(b, a)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=8), st.integers(-2, 2))
def test_property_round_trip_inverse(word, k):
    a = multiply(delta_power(B4, k), from_word(B4, tuple(word)))
    assert invert(invert(a)) == a
    assert multiply(a, invert(a)).is_identity


# ---------------------------------------------------------------------------
# long inputs: the cascades against the pair-sliding reference normaliser


def random_simple(rng, n):
    """A permutation braid of random length, the identity and delta included."""
    return perm_of_word(random_word(rng, n, n * (n - 1) // 2), n)


def random_simples(rng, n, count):
    if rng.random() < 0.5:
        return [random_simple(rng, n) for _ in range(count)]
    return [tuple(rng.sample(range(1, n + 1), n)) for _ in range(count)]


def nf(a):
    return a.power, a.factors


@pytest.mark.parametrize("n", (4, 6, 8))
def test_long_inputs_match_the_reference_normaliser(n):
    rng = random.Random(8000 + n)
    struct = braid_structure(n)
    delta = struct.delta
    for _ in range(4):
        pa, pb = rng.randint(-3, 3), rng.randint(0, 3)
        sa = random_simples(rng, n, rng.randint(1, 150))
        sb = random_simples(rng, n, rng.randint(1, 150))
        a, b = make_element(struct, pa, sa), make_element(struct, pb, sb)
        assert nf(a) == reference_normal_form(n, pa, sa)
        assert nf(b) == reference_normal_form(n, pb, sb)
        # delta^pa A delta^pb B, with the deltas spelled as simples
        assert nf(multiply(a, b)) == reference_normal_form(n, pa, sa + [delta] * pb + sb)
        ib = invert(b)
        assert nf(ib) == reference_normal_form(n, ib.power, ib.factors)
        assert reference_normal_form(n, ib.power, list(ib.factors) + [delta] * pb + sb) == (0, ())


@pytest.mark.parametrize("n", (4, 6, 8))
def test_cascades_let_a_full_delta_leave_through_the_front(n):
    rng = random.Random(8100 + n)
    struct = braid_structure(n)
    delta = struct.delta
    for _ in range(6):
        p = rng.randint(-2, 2)
        x = make_element(struct, p, random_simples(rng, n, rng.randint(1, 40)))
        if not x.factors:
            continue
        # x * d(x_r) = delta^(p+1) tau(x_1 ... x_(r-1))
        last = struct.right_complement(x.factors[-1])
        want = GarsideElement(struct, x.power + 1,
                              tuple(struct.tau(f) for f in x.factors[:-1]))
        assert _rmul_simple(struct, x, last) == want
        assert multiply(x, simple_element(struct, last)) == want
        if p >= 0:
            spelled = [delta] * x.power + list(x.factors) + [last]
            assert nf(want) == reference_normal_form(n, 0, spelled)
        # s * x with tau^p(s) the left complement of x_1 = delta^(p+1) x_2 ... x_r
        first = struct.tau_pow(struct.left_complement(x.factors[0]), -x.power)
        want = GarsideElement(struct, x.power + 1, x.factors[1:])
        assert _lmul_simple(struct, first, x) == want
        assert multiply(simple_element(struct, first), x) == want
        if p >= 0:
            spelled = [first] + [delta] * x.power + list(x.factors)
            assert nf(want) == reference_normal_form(n, 0, spelled)


@pytest.mark.parametrize("struct", (B3, B4, B5, abelian_structure(3)),
                         ids=lambda st_: st_.structure_id)
def test_left_cascade_takes_the_identity_and_delta_like_any_simple(struct):
    rng = random.Random(8200 + struct.n)
    simples = struct.nontrivial_simples()
    for _ in range(30):
        x = make_element(struct, rng.randint(-3, 3),
                         [rng.choice(simples) for _ in range(rng.randint(0, 6))])
        for s in (struct.identity, struct.delta):
            assert _lmul_simple(struct, s, x) == \
                multiply(simple_element(struct, s), x)


@pytest.mark.parametrize("n", (4, 6, 8))
def test_right_normal_form_matches_the_reversed_reference(n):
    rng = random.Random(8300 + n)
    struct = braid_structure(n)
    for _ in range(6):
        p = rng.randint(-3, 3)
        simples = random_simples(rng, n, rng.randint(1, 150))
        assert (right_normal_form(make_element(struct, p, simples))
                == reference_right_normal_form(n, p, simples))


def atom_extension_gcd(a, b, side):
    """gcd by peeling one atom at a time off both sides while some atom
    divides both; slow and simple."""
    struct = a.structure
    m = min(a.inf, b.inf)
    shift = delta_power(struct, -m)
    left = side == "left"
    ra, rb = (multiply(shift, a), multiply(shift, b)) if left else (
        multiply(a, shift), multiply(b, shift))
    g = identity_element(struct)
    progress = True
    while progress:
        progress = False
        for i in range(1, struct.rank + 1):
            atom = simple_element(struct, struct.atom(i))
            inv = invert(atom)
            qa = multiply(inv, ra) if left else multiply(ra, inv)
            qb = multiply(inv, rb) if left else multiply(rb, inv)
            if qa.inf >= 0 and qb.inf >= 0:
                ra, rb = qa, qb
                g = multiply(g, atom) if left else multiply(atom, g)
                progress = True
                break
    return multiply(invert(shift), g) if left else multiply(g, invert(shift))


def test_right_side_on_b12_matches_the_references():
    # B12's simples are never enumerated, so the reversal must work from
    # the structure's primitives alone
    rng = random.Random(8312)
    struct = braid_structure(12)
    for _ in range(4):
        p = rng.randint(-3, 3)
        simples = random_simples(rng, 12, rng.randint(1, 6))
        assert (right_normal_form(make_element(struct, p, simples))
                == reference_right_normal_form(12, p, simples))
        shared = make_element(struct, rng.randint(-2, 2),
                              random_simples(rng, 12, rng.randint(0, 3)))
        u = make_element(struct, 0, random_simples(rng, 12, rng.randint(0, 3)))
        v = make_element(struct, 0, random_simples(rng, 12, rng.randint(0, 3)))
        a, b = multiply(u, shared), multiply(v, shared)
        assert right_gcd(a, b) == atom_extension_gcd(a, b, "right")


@pytest.mark.parametrize("n", (4, 6, 8))
def test_gcds_match_atom_extension_up_to_length_40(n):
    rng = random.Random(8200 + n)
    struct = braid_structure(n)
    for _ in range(5):
        shared = make_element(struct, rng.randint(-2, 2),
                              random_simples(rng, n, rng.randint(0, 20)))
        u = make_element(struct, 0, random_simples(rng, n, rng.randint(0, 20)))
        v = make_element(struct, 0, random_simples(rng, n, rng.randint(0, 20)))
        a, b = multiply(shared, u), multiply(shared, v)
        assert left_gcd(a, b) == atom_extension_gcd(a, b, "left")
        a, b = multiply(u, shared), multiply(v, shared)
        assert right_gcd(a, b) == atom_extension_gcd(a, b, "right")
