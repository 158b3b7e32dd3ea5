"""Permutation-braid structure: exhaustive checks over all simples."""

import inspect
import itertools

import pytest

from garside_al import abelian_structure, braid_structure, make_element, multiply
from garside_al.braid import (
    embed_simple,
    perm_inverse as braid_perm_inverse,
    rev_element,
    shift_element,
    simple_from_word,
)
from oracles import (
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
    for struct in (B3, B4):
        simples = all_simples(struct)
        pairs = [(s, t) for s in simples for t in simples]
        for s, t in pairs:
            common = [q for q in simples
                      if struct.left_divides_simple(q, s)
                      and struct.left_divides_simple(q, t)]
            best = max(common, key=lambda q: len(inversions(q)))
            assert struct.left_meet(s, t) == best


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
