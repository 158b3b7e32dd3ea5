"""Absorbability: decision procedure against a brute-force oracle."""

import fcntl
import hashlib
import itertools
import os
import random
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

import garside_al
from garside_al import (
    SearchBudgetExceeded,
    CacheError,
    abelian_structure,
    absorbs,
    braid_structure,
    complement,
    delta_power,
    distance_witness,
    enumerate_absorbable,
    identity_element,
    invert,
    is_absorbable,
    is_absorbable_prime,
    left_divides,
    make_element,
    multiply,
    parse_word,
    power,
    tau_element,
)
from garside_al import absorb
from garside_al.absorb import DEFAULT_BUDGET
from garside_al.braid import BraidStructure
from garside_al.element import (
    GarsideElement,
    _lmul_simple,
    _rev,
    fraction_form,
    right_normal_form,
    simple_element,
)
from garside_al.special import _witness_factor_perms
from garside_al.structure import GarsideStructure
from garside_al.words import one_line

B3 = braid_structure(3)
B4 = braid_structure(4)
B5 = braid_structure(5)


def from_word(struct, word):
    return make_element(struct, 0, [struct.atom(i) for i in word])


def tail_candidates(struct, length):
    """Every element with infimum 0 and supremum `length`, brute force.

    By the minimality property the absorber search space can be restricted
    to this set, so comparing against it is an exhaustive second opinion.
    """
    out = set()
    pool = struct.nontrivial_simples()
    for combo in itertools.product(pool, repeat=length):
        e = make_element(struct, 0, combo)
        if e.power == 0 and e.canonical_length == length:
            out.add(e)
    return out


def bruteforce_absorbable(y):
    struct = y.structure
    if y.power != 0 and y.sup != 0:
        return False
    if y.is_identity:
        return False
    probe = y if y.power == 0 else invert(y)
    for x in tail_candidates(struct, probe.canonical_length):
        if absorbs(x, probe):
            return True
    return False


def positive_elements_up_to(struct, max_len):
    seen = set()
    for r in range(1, max_len + 1):
        for combo in itertools.product(struct.nontrivial_simples(), repeat=r):
            e = make_element(struct, 0, combo)
            if e.power == 0 and 1 <= e.canonical_length <= max_len:
                seen.add(e)
    return seen


def test_absorbs_is_the_two_statistics_condition():
    rng = random.Random(2)
    for _ in range(40):
        x = from_word(B4, tuple(rng.randint(1, 3) for _ in range(4)))
        y = from_word(B4, tuple(rng.randint(1, 3) for _ in range(3)))
        xy = multiply(x, y)
        assert absorbs(x, y) == (xy.inf == x.inf and xy.sup == x.sup)


def test_decision_matches_bruteforce_rank3_exhaustive():
    for y in positive_elements_up_to(B3, 2):
        got = is_absorbable(y)
        want = bruteforce_absorbable(y)
        assert (got is not None) == want, y
        if got is not None:
            assert absorbs(got.x, y)
            assert got.x.power == 0
            assert got.x.sup == y.canonical_length


def test_decision_matches_bruteforce_rank4_sampled():
    rng = random.Random(14)
    pool = sorted(positive_elements_up_to(B4, 2),
                  key=lambda e: (e.canonical_length, e.factors))
    for y in rng.sample(pool, 25):
        assert (is_absorbable(y) is not None) == bruteforce_absorbable(y), y


def test_negative_side_through_inverses():
    rng = random.Random(3)
    pool = [y for y in positive_elements_up_to(B3, 2)]
    for y in rng.sample(pool, 10):
        yi = invert(y)
        got = is_absorbable(yi)
        assert (got is not None) == (is_absorbable(y) is not None)
        if got is not None:
            assert absorbs(got.x, yi)


def test_mixed_statistics_never_absorbable():
    # inf and sup both nonzero: rejected without search
    y = multiply(delta_power(B4, 1), from_word(B4, (1,)))
    assert y.inf == 1 and y.sup == 2
    assert is_absorbable(y) is None


def test_identity_conventions():
    ident = identity_element(B4)
    assert absorbs(from_word(B4, (1,)), ident)
    assert is_absorbable(ident) is None
    assert is_absorbable_prime(ident) == "yes"


def test_enumeration_rank3_is_exactly_the_atoms():
    got = enumerate_absorbable(B3, 3)
    assert set(got) == {from_word(B3, (1,)), from_word(B3, (2,))}
    # deterministic order: length, then factor permutations
    assert list(got) == sorted(got, key=lambda e: (e.canonical_length,
                                                   e.factors))


def test_enumeration_rank4_matches_bruteforce():
    got = set(enumerate_absorbable(B4, 2))
    want = {y for y in positive_elements_up_to(B4, 2)
            if bruteforce_absorbable(y)}
    assert got == want


@pytest.mark.parametrize("struct, max_len", [
    (B3, 3), (B4, 3), (B5, 1), (abelian_structure(2), 3), (abelian_structure(3), 3)])
def test_enumeration_is_the_searched_set_of_all_products(struct, max_len):
    # the candidates come from every product of simples, not from followers,
    # so a chain the sub-chain closure wrongly skips shows up here
    want = sorted((y for y in positive_elements_up_to(struct, max_len)
                   if is_absorbable(y) is not None),
                  key=lambda e: (e.canonical_length, e.factors))
    for L in range(1, max_len + 1):
        assert list(enumerate_absorbable(struct, L)) == \
            [y for y in want if y.canonical_length <= L]


def test_enumeration_rank4_length4_is_pinned():
    got = enumerate_absorbable(B4, 4)
    rows = "\n".join("|".join(one_line(B4, f) for f in e.factors) for e in got)
    assert len(got) == 1344
    assert hashlib.sha256(rows.encode()).hexdigest() == \
        "6d7c792767bcb42bab8e8c7efc5e39aabd1b4f67b82a77c46495918d9aed8c95"


def test_enumeration_searches_only_chains_with_absorbable_sub_chains(monkeypatch):
    searches = []
    search = absorb.is_absorbable

    def counting(y, **kwargs):
        searches.append(y)
        return search(y, **kwargs)

    monkeypatch.setattr(absorb, "is_absorbable", counting)
    assert len(enumerate_absorbable(B4, 3)) == 376
    # every left-weighted chain up to length 3 would be 1,168 searches
    assert len(searches) == 447


def test_rigid_length5_example_with_certificate():
    y = parse_word(B4, "s1^2 s2^2 s3^2 s2^2 s1")
    x = parse_word(B4, "s1 s2^4 s1^2 s2 s3")
    assert absorbs(x, y)
    cert = is_absorbable(y)
    assert cert is not None and absorbs(cert.x, y)
    prod = multiply(x, y)
    expected = parse_word(
        B4, "s1 s2 s1  s1 s2 s1 s3  s1 s2 s3 s2  s2 s3 s2  s2 s3 s2 s1")
    assert prod == expected and prod.canonical_length == 5


def test_length5_search_accounting_is_exact():
    # the search is deterministic, so its node counts and its
    # lexicographically first certificate are fixed numbers
    cert = is_absorbable(parse_word(B4, "s1^2 s2^2 s3^2 s2^2 s1"))
    assert (cert.nodes_visited, cert.nodes_pruned) == (522, 465)
    assert cert.x == parse_word(B4, "s2 s2 s2 s2 s1 s1 s2 s3")


class _ReferenceCounter:
    def __init__(self, budget):
        self.visited = self.pruned = 0
        self.budget = budget

    def visit(self):
        self.visited += 1
        if self.visited > self.budget:
            raise SearchBudgetExceeded("reference budget")


def _reference_dfs(struct, m, leftmost, depth, k, counter):
    # the search one candidate at a time, each multiplied out and tested
    options = (struct.nontrivial_simples() if leftmost is None
               else struct.preceders(leftmost))
    for t in options:
        counter.visit()
        m2 = _lmul_simple(struct, t, m)
        if m2.power > 0 or m2.sup > k:
            counter.pruned += 1
            continue
        if depth + 1 == k:
            if m2.sup == k:
                return [t]
            continue
        got = _reference_dfs(struct, m2, t, depth + 1, k, counter)
        if got is not None:
            got.append(t)
            return got
    return None


def _reference_outcome(y, budget):
    """(absorber or None, visited, pruned), or "raised"."""
    target = y if y.inf == 0 else invert(y)
    counter = _ReferenceCounter(budget)
    try:
        got = _reference_dfs(y.structure, target, None, 0,
                             target.canonical_length, counter)
    except SearchBudgetExceeded:
        return "raised"
    x = None
    if got is not None:
        x = GarsideElement(y.structure, 0, tuple(got))
        if target is not y:
            x = multiply(x, invert(y))
    return x, counter.visited, counter.pruned


def test_survivor_tables_keep_the_search_accounting_exact(monkeypatch):
    # skipping the candidates a one-step test prunes must change neither
    # the certificate, nor the node counts, nor where the budget runs out
    counters = []

    class Recording(absorb._NodeCounter):
        def __init__(self, budget):
            super().__init__(budget)
            counters.append(self)

    monkeypatch.setattr(absorb, "_NodeCounter", Recording)
    rng = random.Random(20261018)
    outcomes = 0
    for struct, max_len in ((B4, 5), (B5, 3), (braid_structure(6), 2)):
        for _ in range(300):
            chain = [rng.choice(struct.nontrivial_simples())]
            for _ in range(rng.randint(1, max_len) - 1):
                chain.append(rng.choice(struct.followers(chain[-1])))
            y = GarsideElement(struct, 0, tuple(chain))
            if rng.random() < 0.25:
                y = invert(y)
            for budget in (50, 300, 10 ** 7):
                want = _reference_outcome(y, budget)
                try:
                    cert = is_absorbable(y, budget=budget)
                except SearchBudgetExceeded:
                    got = "raised"
                else:
                    got = (cert and cert.x, counters[-1].visited, counters[-1].pruned)
                    if cert is not None:
                        assert (cert.nodes_visited, cert.nodes_pruned) == got[1:]
                assert got == want, (chain, budget)
                outcomes += 1
    assert outcomes == 2700


def test_sup_test_on_simples_decides_what_the_cascade_keeps(monkeypatch):
    # at seeded search nodes, a table survivor t right-divides R, the
    # largest simple right divisor of X = delta^k m^-1, exactly when t * m
    # keeps inf 0 and sup k; the X a node receives is its parent's, held
    # as its reversal rev(X)
    seen = {True: 0, False: 0}
    nodes = []
    dfs = absorb._dfs

    def checking(struct, m, x, leftmost, depth, k, counter):
        if len(nodes) < 30:
            nodes.append(m)
            room = multiply(delta_power(struct, k), invert(m))
            parent_room = (room if leftmost is None
                           else multiply(room, simple_element(struct, leftmost)))
            assert x == _rev(parent_room), (m, leftmost)
            rfac, rpow = right_normal_form(room)
            r = struct.delta if rpow > 0 else rfac[-1] if rfac else struct.identity
            options = (struct.nontrivial_simples() if leftmost is None
                       else struct.preceders(leftmost))
            for i in struct._survivors[leftmost][m.factors[0]]:
                t = options[i]
                m2 = _lmul_simple(struct, t, m)
                keeps = m2.power == 0 and m2.sup == k
                assert struct.right_divides_simple(t, r) == keeps, (m, t)
                seen[keeps] += 1
        return dfs(struct, m, x, leftmost, depth, k, counter)

    monkeypatch.setattr(absorb, "_dfs", checking)
    rng = random.Random(1517)
    groups = ((B3, 5), (B4, 4), (B5, 3), (braid_structure(6), 2),
              (abelian_structure(3), 3), (abelian_structure(4), 3))
    for struct, max_len in groups:
        for _ in range(12):
            chain = [rng.choice(struct.nontrivial_simples())]
            for _ in range(rng.randint(1, max_len) - 1):
                chain.append(rng.choice(struct.followers(chain[-1])))
            y = GarsideElement(struct, 0, tuple(chain))
            nodes.clear()
            is_absorbable(y if rng.random() < 0.75 else invert(y))
            assert nodes
    assert seen[True] > 1000 and seen[False] > 10000, seen


def test_search_over_more_candidates_than_two_byte_indices_hold():
    # Z^17 has 2^17 - 2 candidates for each factor
    struct = abelian_structure(17)
    cert = is_absorbable(make_element(struct, 0, [struct.atom(1)]))
    assert cert is not None and cert.x.factors == (struct.atom(17),)


def _entries(table):
    """The entries of a two-level table, its rows counted too."""
    return len(table) + sum(len(row) for row in table.values())


def _count_products_and_right_meets(monkeypatch):
    """Count the calls of the product and of the right meet, which the
    search must not make; the raw right meet is counted, so a call of
    the public method counts too."""
    calls = {"compose": 0, "right_meet": 0}

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)
        return counted

    monkeypatch.setattr(GarsideStructure, "compose",
                        counting("compose", GarsideStructure.compose))
    monkeypatch.setattr(GarsideStructure, "_right_meet_raw",
                        counting("right_meet", GarsideStructure._right_meet_raw))
    return calls


def test_b6_witness_budget_boundary(monkeypatch):
    y = distance_witness(6)
    struct = y.structure
    calls = _count_products_and_right_meets(monkeypatch)
    size = _entries(struct._left_meet)
    assert is_absorbable(y, budget=850_735) is None
    with pytest.raises(SearchBudgetExceeded):
        is_absorbable(y, budget=850_734)
    # the search steps with the slide alone
    assert _entries(struct._left_meet) == size
    assert calls == {"compose": 0, "right_meet": 0}


def test_search_leaves_no_meet_or_product_and_interns_every_slide(monkeypatch):
    struct = BraidStructure(5)
    y = make_element(struct, 0, _witness_factor_perms(5))
    calls = _count_products_and_right_meets(monkeypatch)
    assert is_absorbable(y) is None
    assert not struct._left_meet
    assert calls == {"compose": 0, "right_meet": 0}

    def entries():
        return sum(len(row) for row in struct.rows.values())

    before = entries()
    outputs = set()
    pairs = list(itertools.product(struct.nontrivial_simples(), repeat=2))
    for c, f in pairs:
        step = struct.rows[c][f]
        if step is not None:
            for s in step:
                assert struct._interned.get(s) is s
                outputs.add(id(s))
    # some answers came from the search's row entries, and every simple
    # the slides hand out is one shared object
    assert entries() - before < len(pairs)
    assert len(outputs) <= 120


def test_interleaved_square_not_absorbable():
    assert is_absorbable(parse_word(B4, "s1 s3 s1 s3")) is None


def test_atom_complements_not_absorbable():
    for struct in (B4, B5):
        for i in range(1, struct.n):
            y = multiply(invert(from_word(struct, (i,))),
                         delta_power(struct, 1))
            assert is_absorbable(y) is None
            # ... even though the atom itself is absorbable
            assert is_absorbable(from_word(struct, (i,))) is not None


def test_inverse_and_tau_closure_on_enumerated_set():
    for y in enumerate_absorbable(B4, 2):
        assert is_absorbable(invert(y)) is not None
        assert is_absorbable(tau_element(y)) is not None
        assert is_absorbable(invert(tau_element(y))) is not None


def test_subword_closure():
    # positive subwords of positive absorbable elements stay absorbable
    rng = random.Random(8)
    pool = list(enumerate_absorbable(B4, 2))
    atoms = [from_word(B4, (i,)) for i in (1, 2, 3)]
    for y in rng.sample(pool, min(12, len(pool))):
        divisors = [d for d in positive_elements_up_to(B4, y.canonical_length)
                    if left_divides(d, y)]
        for u in divisors:
            rest = multiply(invert(u), y)
            for v in [d for d in divisors if left_divides(d, rest)]:
                mid = v
                if not mid.is_identity:
                    assert is_absorbable(mid) is not None


def test_certificate_minimality():
    for y in enumerate_absorbable(B4, 2):
        k = y.canonical_length
        if k < 2:
            continue
        for x in tail_candidates(B4, k - 1):
            assert not absorbs(x, y), (x, y)


def test_budget_exhaustion_raises():
    y = parse_word(B4, "s1^2 s2^2 s3^2 s2^2 s1")
    with pytest.raises(SearchBudgetExceeded):
        is_absorbable(y, budget=5)


def test_budget_error_says_how_far_the_search_got():
    y = parse_word(B4, "s1^2 s2^2 s3^2 s2^2 s1")
    with pytest.raises(SearchBudgetExceeded) as err:
        is_absorbable(y, budget=5)
    # the survivor tables count candidates in runs, so the run that
    # crosses the budget is counted whole before the search stops; this
    # run ends at a table survivor not yet tested, which is not pruned
    assert str(err.value) == (
        "absorber search exceeded the 5-node budget with 9 nodes visited "
        "and 6 pruned; the deepest call reached depth 2")
    # a node's trailing run, after its last survivor, is pruned whole
    with pytest.raises(SearchBudgetExceeded) as err:
        is_absorbable(parse_word(B4, "s1 s3 s1 s3"), budget=5)
    assert str(err.value) == (
        "absorber search exceeded the 5-node budget with 13 nodes visited "
        "and 12 pruned; the deepest call reached depth 1")


@pytest.mark.parametrize("word, budgets, outcomes, digest", [
    ("s1^2 s2^2 s3^2 s2^2 s1", 522, 522,
     "8666f704e671d058c414418b658fda5501bd3587d650fb0dbb01679694293634"),
    ("s1 s3 s1 s3", 199, 60,
     "cb21a9a482df2f164b59c4a0196ffbce7c5eee3ba527afa8090b39889e89f91c"),
])
def test_budget_message_at_every_budget_is_pinned(word, budgets, outcomes, digest):
    # where the search stops, at each budget from 1 up, is the one-candidate-
    # at-a-time count: the digest of the messages (or of the answer's node
    # counts) was recorded from the search that tests every table survivor
    y = parse_word(B4, word)
    got = []
    for budget in range(1, budgets + 1):
        try:
            cert = is_absorbable(y, budget=budget)
        except SearchBudgetExceeded as err:
            got.append(str(err))
        else:
            got.append(repr(cert and (cert.nodes_visited, cert.nodes_pruned)))
    assert len(set(got)) == outcomes
    assert hashlib.sha256("\n".join(got).encode()).hexdigest() == digest


def test_cache_round_trip(tmp_path):
    path = tmp_path / "absorb.cache"
    first = enumerate_absorbable(B3, 3, cache_path=str(path))
    text = path.read_text()
    assert text.startswith("GARSIDE-ABSORB v3 braid-classical:3 n=3 L=3")
    rows = text.splitlines()[1:-1]
    digest = hashlib.sha256("\n".join(rows).encode("ascii")).hexdigest()[:16]
    assert text.endswith(f"\nEND {len(first)} {digest}\n")
    again = enumerate_absorbable(B3, 3, cache_path=str(path))
    assert again == first
    # a different key ignores the existing block and appends its own
    other = enumerate_absorbable(B3, 2, cache_path=str(path))
    assert set(other) <= set(first)
    assert path.read_text().count("GARSIDE-ABSORB") == 2


def test_cache_rejects_tampering(tmp_path):
    # the sound B3 block at L = 3 holds the rows 132 and 213 (the atoms);
    # each case replaces them, and every rejection has its own message
    cases = {
        ("999", "213"): "cache: '999' is not a simple element",
        ("1x2", "213"): "cache: unparsable permutation '1x2'",
        # s1 followed by s2 is not left-weighted
        ("132", "213|132"): "cache: entry '213|132' is not left-weighted",
        ("132", "213|213|213|213"):
            "cache: entry '213|213|213|213' exceeds the block's length bound",
        ("213", "132"): "cache: block entries out of order",
        ("132", "132"): "cache: duplicate block entries",
        # s1 s2 is not absorbable, and entry 0 is re-searched
        ("231",): "cache: spot check failed for entry 0",
    }
    for k, (rows, message) in enumerate(cases.items()):
        path = tmp_path / f"absorb-{k}.cache"
        enumerate_absorbable(B3, 3, cache_path=str(path))
        lines = path.read_text().splitlines()
        assert lines[1:-1] == ["132", "213"]
        # a trailer that matches the tampered rows, so that validation sees them
        lines[1:] = [*rows, absorb._cache_trailer(rows)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CacheError) as err:
            enumerate_absorbable(B3, 3, cache_path=str(path))
        assert str(err.value) == message, rows


def test_cache_refuses_delta_and_identity_factors(tmp_path):
    # each block is sorted, left-weighted and has a sound first entry, so
    # only the factor check stands between it and a wrong answer
    blocks = {1: ["132", "213", "321"], 2: ["132", "213", "213|123"]}
    for max_len, rows in blocks.items():
        path = tmp_path / f"absorb-{max_len}.cache"
        lines = [absorb._cache_header(B3, max_len), *rows, absorb._cache_trailer(rows)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CacheError) as err:
            enumerate_absorbable(B3, max_len, cache_path=str(path))
        assert str(err.value) == (
            f"cache: entry {rows[-1]!r} has a factor equal to delta or the identity")
        searched = enumerate_absorbable(B3, max_len)
        assert [one_line(B3, el.factors[0]) for el in searched] == ["132", "213"]


def test_cache_reads_comma_separated_entries(tmp_path):
    # past 9 coordinates one_line separates entries by commas
    z10 = abelian_structure(10)
    # two adjacent coordinates set, so each leaves room for an absorber
    singles = sorted(tuple(int(i in (j, j + 1)) for i in range(10)) for j in range(5))
    block = tuple(make_element(z10, 0, [s]) for s in singles)
    assert all(is_absorbable(el) is not None for el in block)
    path = tmp_path / "absorb.cache"
    absorb._cache_append(z10, 1, str(path), block)
    rows = path.read_text().splitlines()[1:-1]
    assert rows[0] == "0,0,0,0,1,1,0,0,0,0" and len(rows) == 5
    assert absorb._cache_load(z10, 1, str(path), DEFAULT_BUDGET) == block


def test_cache_path_that_is_a_directory_is_refused(tmp_path):
    with pytest.raises(CacheError) as err:
        absorb._cache_load(B3, 1, str(tmp_path), DEFAULT_BUDGET)
    assert str(err.value) == (
        f"cache: cannot read {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'")


def test_enumeration_refuses_a_length_bound_below_one():
    with pytest.raises(ValueError, match="^enumerate_absorbable: max_len must be >= 1$"):
        enumerate_absorbable(B3, 0)


def test_cache_block_cut_short_is_skipped_and_recomputed(tmp_path):
    path = tmp_path / "absorb.cache"
    full = enumerate_absorbable(B4, 2, cache_path=str(path))
    assert len(full) == 96
    lines = path.read_text().splitlines(keepends=True)
    torn = "".join(lines[:5]) + lines[5][:3]
    for text in ["".join(lines[:cut]) for cut in range(len(lines))] + [torn]:
        path.write_text(text)
        # the cut block lacks its trailer: recompute and append a whole block
        assert enumerate_absorbable(B4, 2, cache_path=str(path)) == full
        size = path.stat().st_size
        # the next load skips the cut block and finds the appended one
        assert enumerate_absorbable(B4, 2, cache_path=str(path)) == full
        assert path.stat().st_size == size


def test_cache_block_with_a_wrong_count_is_skipped(tmp_path):
    path = tmp_path / "absorb.cache"
    full = enumerate_absorbable(B3, 3, cache_path=str(path))
    text = path.read_text()
    path.write_text(text.replace(f"END {len(full)}", f"END {len(full) + 1}"))
    assert enumerate_absorbable(B3, 3, cache_path=str(path)) == full
    assert path.read_text().count("GARSIDE-ABSORB") == 2


def test_cache_block_with_a_swapped_row_is_skipped(tmp_path):
    # one row becomes another left-weighted chain that keeps the block sorted
    # and free of repeats, away from the rows the spot check re-searches:
    # only the trailer digest tells this block from a sound one
    path = tmp_path / "absorb.cache"
    full = enumerate_absorbable(B4, 2, cache_path=str(path))
    chains = [el.factors for el in full]
    assert len(chains) < absorb._SPOT_CHECK_STRIDE  # only row 0 is re-searched
    k, swap = next(
        (k, c) for c in absorb._chains(B4, 2) if c not in chains
        for k in range(1, len(chains) - 1)
        if (len(chains[k - 1]), chains[k - 1]) < (len(c), c)
        < (len(chains[k + 1]), chains[k + 1]))
    lines = path.read_text().splitlines()
    lines[1 + k] = "|".join(one_line(B4, f) for f in swap)
    path.write_text("\n".join(lines) + "\n")
    assert enumerate_absorbable(B4, 2, cache_path=str(path)) == full
    assert path.read_text().count("GARSIDE-ABSORB") == 2


def test_cache_block_in_format_v2_is_recomputed(tmp_path):
    path = tmp_path / "absorb.cache"
    full = enumerate_absorbable(B3, 3, cache_path=str(path))
    lines = path.read_text().splitlines()
    # the block as format v2 wrote it, with no digest in the trailer
    lines[0] = lines[0].replace(" v3 ", " v2 ")
    lines[-1] = f"END {len(full)}"
    path.write_text("\n".join(lines) + "\n")
    assert enumerate_absorbable(B3, 3, cache_path=str(path)) == full
    assert path.read_text().count("GARSIDE-ABSORB") == 2


_CACHE_WRITER = """
import sys, time
from garside_al import braid_structure, enumerate_absorbable
from garside_al.absorb import _cache_append
n, max_len, path, start, count = sys.argv[1:]
st = braid_structure(int(n))
elements = enumerate_absorbable(st, int(max_len))
while time.time() < float(start):
    time.sleep(0.005)
for _ in range(int(count)):
    _cache_append(st, int(max_len), path, elements)
"""


def test_interleaved_cache_writers_leave_every_block_whole(tmp_path):
    # two processes append blocks for different keys to one file at once;
    # each block is one write on an O_APPEND descriptor, so none is split
    path = tmp_path / "absorb.cache"
    keys, count = [(B4, 2), (B5, 1)], 150
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(garside_al.__file__)),
         env.get("PYTHONPATH", "")])
    start = time.time() + 1.0
    writers = [subprocess.Popen(
        [sys.executable, "-c", _CACHE_WRITER, str(k.n), str(L), str(path),
         repr(start), str(count)], env=env) for k, L in keys]
    for w in writers:
        assert w.wait(timeout=120) == 0
    lines = path.read_text().splitlines()
    total = 0
    for k, L in keys:
        want = enumerate_absorbable(k, L)
        header = absorb._cache_header(k, L)
        starts = [i + 1 for i, line in enumerate(lines) if line == header]
        assert len(starts) == count
        for i in starts:
            assert len(absorb._complete_block(lines, i) or ()) == len(want)
        assert absorb._cache_load(k, L, str(path), DEFAULT_BUDGET) == want
        assert enumerate_absorbable(k, L, cache_path=str(path)) == want
        total += count * (len(want) + 2)
    assert len(lines) == total


def test_cache_append_waits_while_another_writer_holds_the_lock(tmp_path):
    # the lock holder's block is half written; an append that did not wait
    # would see a torn last line and patch it with a stray newline
    def block(struct, max_len):
        scratch = tmp_path / f"block-{max_len}"
        absorb._cache_append(struct, max_len, str(scratch),
                             enumerate_absorbable(struct, max_len))
        return scratch.read_bytes()

    held, appended = block(B3, 1), block(B3, 2)
    path = tmp_path / "absorb.cache"
    with open(path, "ab") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        fh.write(held[:len(held) // 2])
        fh.flush()
        appender = threading.Thread(target=absorb._cache_append, args=(
            B3, 2, str(path), enumerate_absorbable(B3, 2)))
        appender.start()
        appender.join(timeout=0.5)
        assert appender.is_alive()
        assert path.read_bytes() == held[:len(held) // 2]
        fh.write(held[len(held) // 2:])
    appender.join(timeout=30)
    assert not appender.is_alive()
    assert path.read_bytes() == held + appended


def test_prime_variant_answers_come_from_their_branches(monkeypatch):
    searched = []
    chains = absorb._chains
    monkeypatch.setattr(absorb, "_chains",
                        lambda *args: searched.append(args) or chains(*args))
    # y = u^-1 v with u^-1 not absorbable, so the answer is no before the
    # numerator v is looked at or any candidate is searched
    decided = []
    search = absorb.is_absorbable
    monkeypatch.setattr(absorb, "is_absorbable",
                        lambda y, **kw: decided.append(y) or search(y, **kw))
    y = parse_word(B4, "s2 s1^-1 s3^-1")
    fr = fraction_form(y)
    assert is_absorbable(invert(fr.negative)) is None
    assert is_absorbable_prime(y) == "no"
    assert decided == [invert(fr.negative)] and searched == []
    # inf -1, sup 2, both fraction parts absorbable: the two-factor
    # candidate search answers yes
    y = parse_word(B4, "s3 s1^-1 s3 s2")
    assert (y.inf, y.sup) == (-1, 2)
    fr = fraction_form(y)
    decided.clear()
    assert is_absorbable_prime(y) == "yes"
    assert decided == [invert(fr.negative), fr.positive]
    assert all(search(x) is not None for x in decided)
    assert searched == [(B4, absorb._PRIME_SEARCH_LEN)]
    assert absorb._PRIME_SEARCH_LEN == 2


def test_prime_variant_values():
    assert is_absorbable_prime(parse_word(B4, "s1^2 s2^2 s3^2 s2^2 s1")) == "yes"
    assert is_absorbable_prime(parse_word(B4, "s1 s3 s1 s3")) == "no"
    # every absorbable element answers yes
    for y in enumerate_absorbable(B4, 2):
        assert is_absorbable_prime(y) == "yes"
    # and the complement direction is only a necessary condition, so the
    # mixed fraction with absorbable parts never answers no
    y = multiply(invert(from_word(B3, (1,))), from_word(B3, (2,)))
    assert is_absorbable_prime(y) in ("yes", "unknown")


def test_complement_of_absorbable_can_be_non_absorbable():
    # atoms absorb, their complements do not
    y = from_word(B4, (1,))
    assert is_absorbable(y) is not None
    assert is_absorbable(complement(y)) is None


def test_runtime_of_headline_searches():
    t0 = time.monotonic()
    assert is_absorbable(parse_word(B4, "s1^2 s2^2 s3^2 s2^2 s1")) is not None
    assert time.monotonic() - t0 < 60
    t0 = time.monotonic()
    assert is_absorbable(parse_word(B4, "s1 s3 s1 s3")) is None
    assert time.monotonic() - t0 < 5


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=5))
def test_property_absorbable_implies_prime_yes(word):
    y = from_word(B4, tuple(word))
    if y.power == 0 and is_absorbable(y) is not None:
        assert is_absorbable_prime(y) == "yes"
