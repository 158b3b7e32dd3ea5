"""Permutation-braid structure: exhaustive checks over all simples."""

import inspect
import itertools
import random

import pytest

from garside_al import abelian_structure, braid_structure, make_element, multiply
from garside_al.braid import (
    BraidStructure,
    embed_simple,
    perm_inverse as braid_perm_inverse,
    rev_element,
    shift_element,
    simple_from_word,
)
from oracles import (
    _compose as oracle_compose,
    _left_meet as oracle_left_meet,
    descents,
    inversions,
    perm_inverse,
    perm_of_word,
    positive_words_equal,
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


def test_meet_probes_no_products_and_shares_its_results():
    struct = BraidStructure(8)
    half_twist3 = perm_of_word((1, 2, 1), 8)
    m = struct.left_meet(perm_of_word((1, 2, 1, 3, 4), 8), perm_of_word((1, 2, 1, 5, 6), 8))
    assert m == half_twist3
    assert struct._compose.cache_info().currsize == 0
    assert struct._inversion_mask.cache_info().currsize == 0
    assert struct.left_meet(perm_of_word((2, 1, 2, 3), 8), perm_of_word((1, 2, 1, 4), 8)) is m


def test_left_quotient_is_exact():
    for struct in (B3, B4):
        simples = all_simples(struct)
        for s in simples:
            for t in simples:
                if struct.left_divides_simple(s, t):
                    q = struct.left_quotient(s, t)
                    assert struct.compose(s, q) == t


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


def test_shift_and_rev_elements():
    b5 = braid_structure(5)
    e = make_element(B3, 0, [B3.atom(1), B3.atom(2)])
    shifted = shift_element(e, 2, 5)
    assert shifted == make_element(b5, 0, [b5.atom(3), b5.atom(4)])
    rev = rev_element(e)
    # reversal of s1 . s2 is s2 . s1 as a word
    assert rev == make_element(B3, 0, [B3.atom(2), B3.atom(1)])
    assert positive_words_equal((2, 1), (2, 1))


def test_atom_index_bounds():
    with pytest.raises(ValueError):
        B3.atom(3)
    with pytest.raises(ValueError):
        B3.atom(0)


def test_nontrivial_simples_count():
    # identity and the half twist are both excluded
    assert len(B3.nontrivial_simples()) == 4
    assert len(B4.nontrivial_simples()) == 22


@pytest.mark.parametrize("struct", (B3, B4, abelian_structure(3)), ids=lambda s: s.structure_id)
def test_every_cached_primitive_equals_its_raw_method(struct):
    simples = list(struct.all_simples())
    for name in struct._CACHED:
        public, raw = getattr(struct, name), getattr(struct, f"_{name}_raw")
        arity = len(inspect.signature(raw).parameters)
        for args in itertools.product(simples, repeat=arity):
            assert public(*args) == raw(*args), (name, args)


def test_structures_do_not_share_caches():
    b4, b5 = braid_structure(4), braid_structure(5)
    for name in b4._CACHED:
        assert getattr(b4, f"_{name}") is not getattr(b5, f"_{name}"), name
    before = b5._left_meet.cache_info()
    b4.left_meet(b4.delta, b4.atom(3))
    assert b5._left_meet.cache_info() == before
    assert b4._left_meet.cache_info().currsize > 0
