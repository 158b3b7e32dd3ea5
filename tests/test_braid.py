"""Permutation-braid structure: exhaustive checks over all simples."""

import inspect
import itertools
import random

import pytest

from garside_al import (
    SearchBudgetExceeded,
    abelian_structure,
    braid_structure,
    invert,
    is_absorbable,
    left_gcd,
    make_element,
    multiply,
    preferred_path,
)
from garside_al import absorb, structure
from garside_al.abelian import AbelianStructure
from garside_al.alcomplex import vertex_of
from garside_al.element import _fold, right_gcd
from garside_al.braid import (
    BraidStructure,
    embed_simple,
    perm_inverse as braid_perm_inverse,
    simple_from_word,
)
from garside_al.special import _witness_factor_perms
from garside_al.structure import GarsideStructure, _Table
from oracles import (
    _compose as oracle_compose,
    _left_meet as oracle_left_meet,
    _right_divides as oracle_right_divides,
    _right_meet as oracle_right_meet,
    _tau as oracle_tau,
    descents,
    half_twist,
    inversions,
    perm_inverse,
    perm_of_word,
    reduced_word,
)

B3 = braid_structure(3)
B4 = braid_structure(4)


def all_simples(struct):
    return [tuple(q) for q in itertools.permutations(range(1, struct.n + 1))]


def test_composition_convention():
    # left-to-right stacking: (s*t)(i) = t(s(i))
    s1, s2 = B3.atom(1), B3.atom(2)
    assert B3.compose(s1, s2) == (3, 1, 2)
    assert B3.compose(s2, s1) == (2, 3, 1)
    assert B3.compose(B3.compose(s1, s2), s1) == B3.delta
    # non-length-additive product is rejected
    assert B3.compose(s1, s1) is None


def test_simple_word_round_trip():
    for struct in (B3, B4):
        for q in all_simples(struct):
            word = struct.simple_word(q)
            assert perm_of_word(word, struct.n) == q
            assert len(word) == len(inversions(q))


def test_divisibility_is_inversion_containment():
    for struct in (B3, B4):
        for s in all_simples(struct):
            for t in all_simples(struct):
                assert struct.left_divides_simple(s, t) == (
                    inversions(s) <= inversions(t))


def test_starting_and_finishing_sets_are_descents():
    for struct in (B3, B4):
        for s in all_simples(struct):
            if s == tuple(range(1, struct.n + 1)):
                continue
            assert struct.starting_set(s) == descents(s)
            assert struct.finishing_set(s) == descents(perm_inverse(s))


def test_complement_identities_exhaustive():
    for struct in (B3, B4):
        for s in all_simples(struct):
            c = struct.right_complement(s)
            assert struct.compose(s, c) == struct.delta
            # complementing twice walks one tau step
            assert struct.right_complement(c) == struct.tau(s)
            lc = struct.left_complement(s)
            assert struct.compose(lc, s) == struct.delta


# ---------------------------------------------------------------------------
# tau, the left complement, the simple product and the right quotient are
# derived from the right complement; check them against permutations


def _check_derived_primitives_on_perms(struct, pairs):
    delta = half_twist(struct.n)

    def ell(p):
        return len(inversions(p))

    for s, t in pairs:
        assert struct.tau(s) == oracle_tau(s), s
        assert struct.left_complement(s) == oracle_compose(delta, perm_inverse(s)), s
        p = oracle_compose(s, t)
        assert struct.compose(s, t) == (p if ell(p) == ell(s) + ell(t) else None), (s, t)
        # s * t^-1 is a simple with t as right factor when lengths add
        q = oracle_compose(s, perm_inverse(t))
        if ell(q) + ell(t) == ell(s):
            r = struct.right_quotient(s, t)
            assert r == q, (s, t)
            assert struct.compose(r, t) == s, (s, t)


@pytest.mark.parametrize("struct", (B3, B4), ids=lambda s: s.structure_id)
def test_derived_primitives_on_every_pair_of_simples(struct):
    simples = all_simples(struct)
    _check_derived_primitives_on_perms(struct, itertools.product(simples, repeat=2))


def test_derived_primitives_on_random_simples_of_b12(monkeypatch):
    # B12 has 12! simples, so none of this can come from an enumeration.
    # A random p is cut into s * t with lengths adding: (s, t) has a simple
    # product, p right-divides by t, and a random s' with the same t
    # mostly has none
    struct, rng = BraidStructure(12), random.Random(12)
    meets = []
    left_meet = GarsideStructure.left_meet
    monkeypatch.setattr(GarsideStructure, "left_meet",
                        lambda self, s, t: meets.append((s, t)) or left_meet(self, s, t))
    pairs = []
    for _ in range(300):
        p = tuple(rng.sample(range(1, 13), 12))
        word = reduced_word(p)
        k = rng.randint(0, len(word))
        s, t = perm_of_word(word[:k], 12), perm_of_word(word[k:], 12)
        pairs += [(s, t), (p, t), (tuple(rng.sample(range(1, 13), 12)), t)]
    _check_derived_primitives_on_perms(struct, pairs)
    assert meets == []


def test_derived_primitives_on_every_pair_of_simples_of_z3():
    z3 = abelian_structure(3)
    for s, t in itertools.product(z3.all_simples(), repeat=2):
        assert z3.tau(s) == s
        assert z3.left_complement(s) == tuple(1 - v for v in s)
        total = tuple(a + b for a, b in zip(s, t))
        assert z3.compose(s, t) == (total if max(total) <= 1 else None), (s, t)
        if all(b <= a for a, b in zip(s, t)):
            r = z3.right_quotient(s, t)
            assert r == tuple(a - b for a, b in zip(s, t)), (s, t)
            assert z3.compose(r, t) == s, (s, t)


def test_tau_formula():
    for struct in (B3, B4):
        n = struct.n
        for s in all_simples(struct):
            assert struct.tau(s) == tuple(n + 1 - s[n - i] for i in range(1, n + 1))
            assert struct.tau_pow(s, 2) == s


def test_left_weighted_matches_defining_property():
    # (s,t) left-weighted iff no atom moves from t into s keeping s simple
    for struct in (B3, B4):
        simples = all_simples(struct)
        atoms = [struct.atom(i) for i in range(1, struct.n)]
        for s in simples:
            if s == tuple(range(1, struct.n + 1)):
                continue
            for t in simples:
                if t == tuple(range(1, struct.n + 1)):
                    continue
                movable = any(
                    struct.compose(s, a) is not None
                    and struct.left_divides_simple(a, t)
                    for a in atoms)
                assert struct.is_left_weighted(s, t) == (not movable)


def test_meets_against_bruteforce():
    # common divisors are found by inversion-set containment, not by the
    # package's left_divides_simple, which is itself a meet
    for n in (3, 4, 5):
        struct = braid_structure(n)
        inv = {q: inversions(q) for q in all_simples(struct)}
        for s, t in itertools.product(inv, repeat=2):
            both = inv[s] & inv[t]
            best = max((q for q in inv if inv[q] <= both), key=lambda q: len(inv[q]))
            assert struct.left_meet(s, t) == best, (s, t)


@pytest.mark.parametrize("n", (6, 7, 8))
def test_meets_against_the_atom_extension_oracle(n):
    # half the pairs are random, half differ by a few value swaps, so that
    # their meets are long as well as short
    struct, rng = braid_structure(n), random.Random(n)
    for k in range(3000):
        s = tuple(rng.sample(range(1, n + 1), n))
        t = tuple(rng.sample(range(1, n + 1), n))
        if k % 2:
            t = s
            for _ in range(rng.randint(1, 3)):
                t = oracle_compose(t, perm_of_word((rng.randint(1, n - 1),), n))
        assert struct.left_meet(s, t) == oracle_left_meet(s, t), (s, t)


def test_compose_is_the_length_additive_product():
    for n in (3, 4, 5):
        struct = braid_structure(n)
        simples = all_simples(struct)
        for s, t in itertools.product(simples, repeat=2):
            p = oracle_compose(s, t)
            additive = len(inversions(p)) == len(inversions(s)) + len(inversions(t))
            assert struct.compose(s, t) == (p if additive else None), (s, t)


def test_meet_probes_no_products_and_shares_its_results(monkeypatch):
    products = []
    compose = GarsideStructure.compose
    monkeypatch.setattr(GarsideStructure, "compose",
                        lambda self, s, t: products.append((s, t)) or compose(self, s, t))
    struct = BraidStructure(8)
    half_twist3 = perm_of_word((1, 2, 1), 8)
    m = struct.left_meet(perm_of_word((1, 2, 1, 3, 4), 8), perm_of_word((1, 2, 1, 5, 6), 8))
    assert m == half_twist3
    assert products == []
    assert not struct._inversion_mask
    assert struct.left_meet(perm_of_word((2, 1, 2, 3), 8), perm_of_word((1, 2, 1, 4), 8)) is m


def test_left_quotient_is_exact():
    for struct in (B3, B4):
        simples = all_simples(struct)
        for s in simples:
            for t in simples:
                if struct.left_divides_simple(s, t):
                    q = struct.left_quotient(s, t)
                    assert struct.compose(s, q) == t


def test_quotients_of_non_divisors_are_refused():
    # s1^-1 s2 and s1 s2^-1 are not simples, although the raw permutation
    # arithmetic returns (3, 1, 2) for both
    s1, s2 = B3.atom(1), B3.atom(2)
    with pytest.raises(ValueError, match=r"^braid-classical:3: .* does not left-divide "):
        B3.left_quotient(s1, s2)
    with pytest.raises(ValueError, match=r"^braid-classical:3: .* does not right-divide "):
        B3.right_quotient(s1, s2)
    assert B3._left_quotient_raw(s1, s2) == (3, 1, 2)


def test_simple_from_word_and_rejection():
    assert simple_from_word(B4, (2, 1, 3)) == perm_of_word((2, 1, 3), 4)
    with pytest.raises(ValueError):
        simple_from_word(B3, (1, 1))  # not square-free in the braid sense


def test_rev_simple_reverses_words():
    for struct in (B3, B4):
        for q in all_simples(struct):
            word = struct.simple_word(q)
            assert braid_perm_inverse(q) == perm_of_word(tuple(reversed(word)), struct.n)


def test_embed_simple_offsets_support():
    s = B3.atom(1)  # acts on strands 1,2
    b5 = braid_structure(5)
    assert embed_simple(s, 0, 5) == b5.atom(1)
    assert embed_simple(s, 2, 5) == b5.atom(3)
    assert embed_simple(B3.delta, 1, 5) == simple_from_word(b5, (2, 3, 2))


def test_atom_index_bounds():
    with pytest.raises(ValueError):
        B3.atom(3)
    with pytest.raises(ValueError):
        B3.atom(0)


def test_nontrivial_simples_count():
    # identity and the half twist are both excluded
    assert len(B3.nontrivial_simples()) == 4
    assert len(B4.nontrivial_simples()) == 22


def _tables(struct):
    """Every table the structure keeps, by attribute name, and the code
    book's rows once the book is built."""
    tables = {name: t for name, t in vars(struct).items() if isinstance(t, _Table)}
    if struct._code_book is not None:
        tables["code book rows"] = struct._code_book.rows
    return tables


def _entries(table):
    """The entries of a table, the rows of a two-level table counted too."""
    return len(table) + sum(len(v) for v in table.values() if isinstance(v, _Table))


def _held_simples(struct):
    """Every simple the slide rows hold."""
    return [s for row in struct.rows.values() for step in row.values() if step for s in step]


def _contents(table):
    return {k: dict(v) if isinstance(v, _Table) else v for k, v in table.items()}


@pytest.mark.parametrize("struct", (B3, B4, abelian_structure(3)), ids=lambda s: s.structure_id)
def test_every_cached_primitive_equals_its_raw_method(struct):
    simples = list(struct.all_simples())
    book = struct.code_book()

    def coded_slide(c, f):
        step = struct._slide_raw(book.simples[c], book.simples[f])
        return None if step is None else tuple(book.code[s] for s in step)

    raws = {"rows": struct._slide_raw, "meets": struct._left_meet,
            "code book rows": coded_slide}
    tables = _tables(struct)
    assert tables.keys() == {"_inversion_mask", "_tau", "_right_complement", "_starting_set",
                             "_rev", "_simple_word", "_simple_bits", "rows", "meets",
                             "code book rows"}
    for name, table in tables.items():
        raw = raws.get(name) or getattr(struct, f"{name}_raw")
        public = getattr(struct, name[1:], None) if name.startswith("_") else None
        keys = range(len(book.simples)) if name == "code book rows" else simples
        if len(inspect.signature(raw).parameters) == 2:
            for a, b in itertools.product(keys, repeat=2):
                assert table[a][b] == raw(a, b), (name, a, b)
                assert public is None or public(a, b) == raw(a, b), (name, a, b)
        else:
            for a in keys:
                assert table[a] == raw(a), (name, a)
                assert public is None or public(a) == raw(a), (name, a)
    # _simple_bits holds the starting sets of s and of its right complement,
    # bit i - 1 for atom i, and None for a value that is no simple
    bits = struct._simple_bits

    def as_bits(atoms):
        return sum(1 << (i - 1) for i in atoms)

    for s in simples:
        assert bits[s] == (as_bits(struct.starting_set(s)),
                           as_bits(struct.starting_set(struct.right_complement(s)))), s
    for value in (tuple(v + 1 for v in struct.delta), struct.identity[1:] + (struct.n,)):
        assert bits[value] is None and not struct.is_simple_value(value), value
    # tau is an involution, so tau^-1 is tau
    tau = struct._tau
    assert all(tau[tau[s]] == s for s in simples)
    # the rows hold the tau table's own object for every simple, and so
    # does the meet table
    assert all(tau[tau[s]] is s for s in _held_simples(struct))
    assert all(tau[tau[s]] is s for row in struct.meets.values() for s in row.values())
    # searches keep their candidate sets in absorb.py's object, adding no
    # table to the structure
    rng = random.Random(301)
    for _ in range(10):
        chain = [rng.choice(struct.nontrivial_simples())]
        while len(chain) < 3:
            chain.append(rng.choice(struct.followers(chain[-1])))
        y = make_element(struct, 0, chain)
        is_absorbable(y if rng.random() < 0.5 else invert(y))
    assert isinstance(struct._candidates, absorb._Candidates)
    assert _tables(struct).keys() == tables.keys()


def test_structures_do_not_share_caches():
    b4, b5 = braid_structure(4), braid_structure(5)
    tables = []
    for st in (b4, b5):
        st.code_book()
        is_absorbable(make_element(st, 0, [st.atom(1)]))
        tables.append({**_tables(st), **{f"candidates.{name}": getattr(st._candidates, name)
                                         for name in ("pre", "inf", "rdiv")}})
    t4, t5 = tables
    assert t4.keys() == t5.keys() and "_simple_bits" in t4
    for name in t4:
        assert t4[name] is not t5[name], name
    before = {name: _contents(t) for name, t in t5.items()}
    # one fresh entry in every table of b4 leaves every table of b5 as it was
    key = b4.compose(b4.atom(3), b4.atom(1))
    for name, table in t4.items():
        # the candidate sets are keyed by code
        k = (1 if name == "code book rows" else b4.code_book().code[key]
             if name.startswith("candidates.") else key)
        row = table[k]
        if isinstance(row, _Table):
            row[k]
        assert table, name
    assert {name: _contents(t) for name, t in t5.items()} == before
    assert b4.left_meet(b4.delta, b4.atom(3)) == b4.atom(3)
    assert b4.rows[b4.atom(1)]


def _check_rev_on_pairs(struct, pairs, right_meet, finishing_set):
    """rev is an involution fixing the atoms and delta that reverses
    products, and the right meet and finishing set derived from it match
    the references."""
    rev = struct.rev
    assert all(rev(a) == a for a in struct.atoms) and rev(struct.delta) == struct.delta
    for s, t in pairs:
        for x in (s, t):
            assert rev(rev(x)) == x, x
            assert struct.finishing_set(x) == finishing_set(x), x
        p = struct.compose(s, t)
        assert (None if p is None else rev(p)) == struct.compose(rev(t), rev(s)), (s, t)
        assert struct.right_meet(s, t) == right_meet(s, t), (s, t)


def _braid_finishing_set(s):
    n = len(s)
    return frozenset(i for i in range(1, n) if oracle_right_divides(perm_of_word((i,), n), s))


# the reference right meet and finishing set of each structure class
_REFERENCES = {
    BraidStructure: (oracle_right_meet, _braid_finishing_set),
    AbelianStructure: (lambda s, t: tuple(map(min, s, t)),
                       lambda s: frozenset(i + 1 for i, v in enumerate(s) if v)),
}


@pytest.mark.parametrize("struct", (B3, B4, abelian_structure(3)), ids=lambda s: s.structure_id)
def test_rev_swaps_the_sides_on_every_pair_of_simples(struct):
    simples = list(struct.all_simples())
    _check_rev_on_pairs(struct, itertools.product(simples, repeat=2),
                        *_REFERENCES[type(struct)])


def test_rev_swaps_the_sides_on_random_simples_of_b12():
    # p = s * t with lengths adding, so s left-divides and t right-divides p
    struct, rng = BraidStructure(12), random.Random(1212)
    pairs = []
    for _ in range(150):
        p = tuple(rng.sample(range(1, 13), 12))
        word = reduced_word(p)
        k = rng.randint(0, len(word))
        s, t = perm_of_word(word[:k], 12), perm_of_word(word[k:], 12)
        pairs += [(s, p), (t, p), (s, t), (tuple(rng.sample(range(1, 13), 12)), p)]
    assert sum(struct.right_meet(a, b) == a for a, b in pairs) >= 150
    _check_rev_on_pairs(struct, pairs, *_REFERENCES[BraidStructure])


def _check_right_divisibility(struct, pairs):
    for s, t in pairs:
        assert struct.right_divides_simple(s, t) == (struct.right_meet(s, t) == s), (s, t)


@pytest.mark.parametrize("struct", (B3, B4, abelian_structure(3)), ids=lambda s: s.structure_id)
def test_right_divisibility_is_the_right_meet_on_every_pair_of_simples(struct):
    simples = list(struct.all_simples())
    _check_right_divisibility(struct, itertools.product(simples, repeat=2))
    # left divisibility and the starting set, both read off the masks
    for s, t in itertools.product(simples, repeat=2):
        assert struct.left_divides_simple(s, t) == (struct.left_meet(s, t) == s), (s, t)
    for s in simples:
        assert struct.starting_set(s) == {
            i for i in range(1, struct.rank + 1)
            if struct.left_divides_simple(struct.atom(i), s)}, s


def test_right_divisibility_is_the_right_meet_on_random_simples_of_b12():
    # p = s * t with lengths adding, so t right-divides p
    struct, rng = BraidStructure(12), random.Random(1215)
    pairs = []
    for _ in range(300):
        p = tuple(rng.sample(range(1, 13), 12))
        word = reduced_word(p)
        k = rng.randint(0, len(word))
        s, t = perm_of_word(word[:k], 12), perm_of_word(word[k:], 12)
        pairs += [(t, p), (s, p), (tuple(rng.sample(range(1, 13), 12)), p)]
    assert sum(struct.right_meet(s, t) == s for s, t in pairs) >= 300
    _check_right_divisibility(struct, pairs)


@pytest.mark.parametrize("struct", (B3, B4, braid_structure(5), abelian_structure(3)),
                         ids=lambda s: s.structure_id)
def test_slide_stops_exactly_at_left_weighted_pairs_and_keeps_the_product(struct):
    simples = list(struct.all_simples())
    for c, f in itertools.product(simples, repeat=2):
        step = struct.rows[c][f]
        assert (step is None) == struct.is_left_weighted(c, f), (c, f)
        if step is not None:
            assert (make_element(struct, 0, step)
                    == make_element(struct, 0, (c, f))), (c, f)


def _oracle_slide(c, f):
    """The domino step on (c, f) from the oracles alone: u = ∂c ^ f with
    ∂c = c^-1 delta, and (c u, u^-1 f), or None when u is 1."""
    n = len(c)
    u = oracle_left_meet(oracle_compose(perm_inverse(c), half_twist(n)), f)
    if u == tuple(range(1, n + 1)):
        return None
    return oracle_compose(c, u), oracle_compose(perm_inverse(u), f)


def _coordinate_slide(c, f):
    """The domino step on 0/1 vectors: u = min(1 - c, f) coordinatewise."""
    u = tuple(min(1 - a, b) for a, b in zip(c, f))
    if not any(u):
        return None
    return tuple(a + b for a, b in zip(c, u)), tuple(b - a for a, b in zip(u, f))


def _check_slides(struct, pairs):
    oracle = _coordinate_slide if isinstance(struct, AbelianStructure) else _oracle_slide
    tau = struct._tau
    for c, f in pairs:
        step = struct._slide(c, f)
        assert step == oracle(c, f), (c, f)
        # both outputs are the tau table's own objects
        assert step is None or all(tau[tau[x]] is x for x in step), (c, f)


@pytest.mark.parametrize("struct", (B3, B4, braid_structure(5), abelian_structure(3)),
                         ids=lambda s: s.structure_id)
def test_slide_equals_the_oracle_step_on_every_pair_of_simples(struct):
    simples = list(struct.all_simples())
    _check_slides(struct, itertools.product(simples, repeat=2))


@pytest.mark.parametrize("n", (8, 12))
def test_slide_equals_the_oracle_step_on_random_simples(n):
    # every other pair is the oracle's own slide of a random pair, which
    # is left-weighted, so that both branches of the slide run
    struct, rng = BraidStructure(n), random.Random(f"slide/{n}")
    pairs = []
    for k in range(2000):
        c, f = tuple(rng.sample(range(1, n + 1), n)), tuple(rng.sample(range(1, n + 1), n))
        if k % 2:
            c, f = _oracle_slide(c, f) or (c, f)
        pairs.append((c, f))
    assert sum(_oracle_slide(c, f) is None for c, f in pairs) >= 1000
    _check_slides(struct, pairs)


# ---------------------------------------------------------------------------
# the code book: integer codes for simples and the coded right cascade


@pytest.mark.parametrize("struct", (B3, abelian_structure(3)), ids=lambda s: s.structure_id)
def test_code_book_numbers_identity_first_and_delta_last(struct):
    book = struct.code_book()
    assert book is struct.code_book()
    assert book.simples == (struct.identity, *struct.nontrivial_simples(), struct.delta)
    assert book.code[struct.identity] == 0
    assert book.code[struct.delta] == len(book.simples) - 1
    assert book._tau == [book.code[struct.tau_pow(s, -1)] for s in book.simples]


def test_structures_do_not_share_code_books():
    fresh = BraidStructure(4)
    assert fresh.code_book() is not B4.code_book()
    assert fresh.code_book().rows is not B4.code_book().rows
    assert fresh.code_book().simples == B4.code_book().simples


@pytest.mark.parametrize("struct", (B3, B4, braid_structure(5), braid_structure(6),
                                    abelian_structure(3)), ids=lambda s: s.structure_id)
def test_coded_cascade_is_the_element_cascade(struct):
    book = struct.code_book()
    code = book.code
    simples = struct.nontrivial_simples()
    rng = random.Random(f"code-book/{struct.structure_id}")
    branches = {"delta exit": 0, "delta exit past a rest": 0, "identity rest": 0}
    for trial in range(400):
        x = vertex_of(make_element(struct, 0, [rng.choice(simples)
                                               for _ in range(rng.randint(0, 6))])).rep
        move = [rng.choice(simples) for _ in range(rng.randint(1, 3))]
        if x.factors and trial % 4:
            # the complement of the last factor takes the delta exit, and
            # the simples after it enter twisted; a proper multiple of it
            # exits with a rest, twisted by tau^-1; a proper divisor of it
            # leaves an identity rest
            comp = struct.right_complement(x.factors[-1])
            multiples = [s for s in simples
                         if s != comp and struct.left_divides_simple(comp, s)]
            divisors = [s for s in simples if struct.left_divides_simple(s, comp)]
            if trial % 4 == 1:
                move = [comp] + move[1:]
                branches["delta exit"] += 1
            elif trial % 4 == 2 and multiples:
                move = [rng.choice(multiples)]
                branches["delta exit past a rest"] += 1
            elif trial % 4 == 3 and divisors:
                move = [rng.choice(divisors)]
                branches["identity rest"] += 1
        # both leave L with x * move = L * delta^q, and L is the vertex
        want = list(x.factors)
        q_want = _fold(struct, want, 0, move)
        got = [code[f] for f in x.factors]
        q = _fold(book, got, 0, [code[s] for s in move])
        assert (q, got) == (q_want, [code[f] for f in want]), (x, move)
        product = multiply(x, make_element(struct, 0, move))
        assert tuple(want) == vertex_of(product).rep.factors, (x, move)
        assert q == product.power, (x, move)
    assert min(branches.values()) > 10, branches
    # every coded row entry the cascades filled is the structure's slide
    simples = book.simples
    for c, row in book.rows.items():
        for f, step in row.items():
            want = struct.rows[simples[c]][simples[f]]
            assert step == (None if want is None else tuple(code[s] for s in want))


# ---------------------------------------------------------------------------
# one bound on every table


def _watch_tables(monkeypatch, sized=True):
    """After every miss, record how often the table it counts against has
    been filled and, when sized, its entries; returns both records."""
    sizes, fills = [], {}
    missing = _Table.__missing__

    def watched(self, key):
        got = missing(self, key)
        owner = self._owner
        if sized:
            sizes.append(_entries(owner))
        fills[id(owner)] = fills.get(id(owner), 0) + 1
        return got

    monkeypatch.setattr(_Table, "__missing__", watched)
    return sizes, fills


def _b5_answers(struct):
    """Seeded B5 products, gcds, preferred paths and absorber searches,
    then the x5 witness search and its budget error."""
    rng = random.Random(2105)
    simples = struct.nontrivial_simples()
    answers = []
    for _ in range(40):
        a, b = (make_element(struct, rng.randint(-2, 2),
                             [rng.choice(simples) for _ in range(rng.randint(0, 8))])
                for _ in range(2))
        answers += [multiply(a, b), multiply(invert(a), b), left_gcd(a, b), right_gcd(a, b),
                    preferred_path(vertex_of(a), vertex_of(b))]
        chain = [rng.choice(simples)]
        for _ in range(rng.randint(0, 2)):
            chain.append(rng.choice(struct.followers(chain[-1])))
        y = make_element(struct, 0, chain)
        answers.append(is_absorbable(y if rng.random() < 0.5 else invert(y)))
    witness = make_element(struct, 0, _witness_factor_perms(5))
    answers.append(is_absorbable(witness))
    with pytest.raises(SearchBudgetExceeded) as err:
        is_absorbable(witness, budget=3000)
    return answers + [str(err.value)]


def test_a_small_bound_changes_no_answer(monkeypatch):
    want = _b5_answers(BraidStructure(5))
    # every sixth answer is an absorber search's certificate or None
    assert sum(cert is not None for cert in want[5::6]) > 5
    monkeypatch.setattr(structure, "TABLE_BOUND", 64)
    sizes, fills = _watch_tables(monkeypatch)
    struct = BraidStructure(5)
    # certificates compare their visited and pruned counts too
    assert _b5_answers(struct) == want
    # tables fill up to the bound, start over, and never pass it
    assert max(sizes) == 64
    assert max(fills.values()) > 20 * 64
    # make_element's table of simple bits, which the inputs fill past the bound
    assert fills[id(struct._simple_bits)] > 64
    assert 0 < len(struct._simple_bits) <= 64
    # the gcd descent's meet table, which the gcds and paths fill past it
    assert fills[id(struct.meets)] > 64
    assert 0 < _entries(struct.meets) <= 64
    # the candidate tables too, which the searches fill past the bound
    for name in ("pre", "inf", "rdiv"):
        table = getattr(struct._candidates, name)
        assert fills[id(table)] > 64, name
        assert 0 < len(table) <= 64, name


def test_every_b12_table_stays_within_the_bound(monkeypatch):
    # B12 enumerates nothing, so only the bound keeps its tables small
    struct, rng = BraidStructure(12), random.Random(12)
    _sizes, fills = _watch_tables(monkeypatch, sized=False)
    x = make_element(struct, 0, [])
    for _ in range(500):
        x = multiply(x, make_element(struct, 0, [tuple(rng.sample(range(1, 13), 12))
                                                 for _ in range(20)]))
        if len(x.factors) > 60:
            x = make_element(struct, 0, [])
    assert max(fills.values()) > structure.TABLE_BOUND
    for name, table in _tables(struct).items():
        assert _entries(table) <= structure.TABLE_BOUND, name


def test_rows_hold_the_tau_tables_simples():
    # tau is an involution, so tau[tau[s]] is s exactly when s is the tau
    # table's object; for B5 that table never reaches the bound
    struct, rng = BraidStructure(5), random.Random(3)
    simples = struct.nontrivial_simples()

    def chain():
        c = [rng.choice(simples)]
        for _ in range(5):
            c.append(rng.choice(struct.followers(c[-1])))
        return make_element(struct, 0, c)

    for _ in range(400):
        a, b = chain(), chain()
        multiply(a, b)
        left_gcd(a, b)
    held = _held_simples(struct)
    assert struct.rows
    tau = struct._tau
    assert all(tau[tau[s]] is s for s in held)
    # one object per distinct simple
    assert len({id(s) for s in held}) == len(set(held))


def test_a_tau_period_above_two_is_refused():
    # tau^-1 is read from the tau table, so tau must be an involution.  On
    # Z^3 with its right complement turned by one coordinate, tau = ∂² turns
    # the coordinates by two, and has order 3
    class PeriodThree(AbelianStructure):
        def _right_complement_raw(self, s):
            d = super()._right_complement_raw(s)
            return d[1:] + d[:1]

    with pytest.raises(ValueError, match="^free-abelian:3: tau is not an involution on the atoms$"):
        PeriodThree(3)
