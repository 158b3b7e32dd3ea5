"""Vertices, adjacency, preferred paths, and the thinness machinery.

The adjacency decision is checked against a shift-scan oracle that walks
every Delta shift in a window around [-sup, -inf] and applies the raw
definition to each candidate label.  The decision procedure only probes
two shifts; the oracle does not know that.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st_

from garside_al import (
    SearchBudgetExceeded,
    abelian_structure,
    act,
    adjacent_path_diameter_check,
    are_adjacent,
    braid_structure,
    delta_power,
    distance_upper_bound,
    distance_witness,
    format_element,
    gcd_vertex,
    identity_vertex,
    initial_segment_witnesses,
    invert,
    is_absorbable,
    left_gcd,
    make_element,
    simple_element,
    multiply,
    overlap_length,
    parse_word,
    preferred_path,
    triangle_thinness_report,
    vertex_of,
)
from garside_al import absorb, alcomplex, element
from garside_al.absorb import DEFAULT_BUDGET
from garside_al.braid import BraidStructure
from garside_al.element import _reduced_fraction, complement, delta_prefix, tau_element
from garside_al.suites import random_element, random_positive, random_vertex
from oracles import _tau as oracle_tau, reference_normal_form

B3 = braid_structure(3)
B4 = braid_structure(4)

EX2_WORD = "s1 s1 s2 s2 s3 s3 s2 s2 s1"


def scan_adjacent(v, w):
    """Definition-faithful adjacency oracle: try every shift in a window
    two wider than [-sup(z), -inf(z)] and test each candidate label
    directly (single nontrivial factor, or absorbable)."""
    st = v.structure
    z = multiply(invert(v.rep), w.rep)
    for k in range(-z.sup - 2, -z.inf + 3):
        m = multiply(z, delta_power(st, k))
        if m.is_identity:
            continue
        if m.power == 0 and m.canonical_length == 1:
            return True
        if is_absorbable(m) is not None:
            return True
    return False


def vertices_b3_pool():
    # all vertices with a positive representative of at most two factors
    pool = {identity_vertex(B3)}
    simples = [simple_element(B3, s) for s in B3.nontrivial_simples()]
    for a in simples:
        pool.add(vertex_of(a))
        for b in simples:
            pool.add(vertex_of(multiply(a, b)))
    return sorted(pool, key=lambda v: (v.rep.canonical_length, v.rep.factors))


def fold_path(v, labels):
    """The vertices of the path from v spelled by labels, one per-simple
    cascade per step: the running product is kept as L * Delta^e, and L
    is the step's vertex."""
    st = v.structure
    fac, e, out = list(v.rep.factors), 0, [v]
    for f in labels:
        e = element._fold(st, fac, e, (f,))
        out.append(vertex_of(make_element(st, 0, fac)))
    return out


PATH_STRUCTURES = [*(braid_structure(n) for n in range(3, 9)),
                   abelian_structure(3), abelian_structure(4)]


def path_pairs(struct):
    """24 seeded vertex pairs: they share a prefix, are equal, or one
    divides the other, at lengths up to 60."""
    rng = random.Random(f"path-fold/{struct.structure_id}")
    simples = list(struct.all_simples())

    def draw(length):
        return make_element(struct, 0, [rng.choice(simples) for _ in range(length)])

    for case in range(24):
        long = case % 6 == 0
        shared = draw(rng.randint(0, 40 if long else 8))
        v = vertex_of(multiply(shared, draw(rng.randint(0, 20 if long else 6))))
        w = (v if case % 8 == 1 else
             vertex_of(multiply(v.rep, draw(rng.randint(0, 6)))) if case % 8 == 3 else
             vertex_of(multiply(shared, draw(rng.randint(0, 20 if long else 6)))))
        yield v, w


# ---------------------------------------------------------------------------
# vertices and the action


class TestVertices:
    def test_delta_powers_collapse_to_identity_vertex(self):
        assert vertex_of(delta_power(B3, 5)) == identity_vertex(B3)
        assert vertex_of(delta_power(B3, -2)) == identity_vertex(B3)

    def test_normalization_twists_by_tau(self):
        g = multiply(delta_power(B3, 1), parse_word(B3, "s2"))
        assert format_element(vertex_of(g).rep) == "s1"

    def test_inf_zero_representative_kept_verbatim(self):
        x4 = distance_witness(4)
        v = vertex_of(x4)
        assert v.rep == x4 and v.rep.power == 0

    def test_representative_always_has_power_zero(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_element(rng, B4, 4)
            assert vertex_of(g).rep.power == 0

    def test_act_by_delta_squared_is_trivial_in_b4(self):
        rng = random.Random(12)
        d2 = delta_power(B4, 2)
        for _ in range(20):
            v = random_vertex(rng, B4, 4)
            assert act(d2, v) == v

    def test_act_on_identity_vertex(self):
        g = parse_word(B4, "s2 s3 s1")
        assert act(g, identity_vertex(B4)) == vertex_of(g)

    def test_act_by_delta_flips_strand_index(self):
        v = vertex_of(parse_word(B4, "s1"))
        assert format_element(act(delta_power(B4, 1), v).rep) == "s3"

    def test_action_is_by_graph_automorphisms(self):
        # adjacency and its absence both transport along the action
        g = parse_word(B4, "s3 s2")
        one = identity_vertex(B4)
        for word, expect in [("s1 s2", True), (EX2_WORD, True)]:
            w = vertex_of(parse_word(B4, word))
            assert (are_adjacent(one, w) is not None) is expect
            moved = are_adjacent(act(g, one), act(g, w))
            assert (moved is not None) is expect

    @given(st_.integers(min_value=-4, max_value=4), st_.randoms())
    @settings(max_examples=40, deadline=None)
    def test_vertex_ignores_delta_factor(self, k, pyr):
        rng = random.Random(pyr.getrandbits(32))
        g = random_element(rng, B3, 4)
        assert vertex_of(multiply(g, delta_power(B3, k))) == vertex_of(g)
        assert vertex_of(multiply(delta_power(B3, k), g)) == act(
            delta_power(B3, k), vertex_of(g))


# ---------------------------------------------------------------------------
# adjacency


class TestAdjacency:
    def test_single_factor_difference_gives_simple_witness(self):
        w = are_adjacent(identity_vertex(B3), vertex_of(parse_word(B3, "s1 s2")))
        assert w is not None and w.kind == "simple" and w.shift == 0
        assert format_element(w.label) == "s1 s2"

    def test_squared_generator_is_not_adjacent_to_identity(self):
        # both shifted labels are length-2 non-absorbables in rank 3
        assert are_adjacent(identity_vertex(B3),
                            vertex_of(parse_word(B3, "s1 s1"))) is None

    def test_absorbable_witness_for_nested_band_braid(self):
        w = are_adjacent(identity_vertex(B4), vertex_of(parse_word(B4, EX2_WORD)))
        assert w is not None and w.kind == "absorbable"
        assert w.certificate is not None
        assert w.certificate.x.power == 0
        assert w.certificate.x.sup == w.label.canonical_length

    def test_reversed_pair_uses_supremum_shift(self):
        v = vertex_of(parse_word(B4, EX2_WORD))
        w = are_adjacent(v, identity_vertex(B4))
        assert w is not None and w.kind == "absorbable" and w.shift == 0
        assert w.label.sup == 0

    def test_witness_label_carries_one_vertex_to_the_other(self):
        rng = random.Random(13)
        one = identity_vertex(B4)
        for _ in range(30):
            w = random_vertex(rng, B4, 3)
            if w == one:
                continue
            hit = are_adjacent(one, w)
            if hit is not None:
                assert vertex_of(hit.label) == w

    def test_equal_vertices_are_rejected(self):
        v = vertex_of(parse_word(B3, "s1"))
        with pytest.raises(ValueError):
            are_adjacent(v, v)

    def test_matches_shift_scan_oracle_on_all_short_b3_pairs(self):
        pool = vertices_b3_pool()
        for i, v in enumerate(pool):
            for w in pool[i + 1:]:
                got = are_adjacent(v, w) is not None
                assert got == scan_adjacent(v, w), (v, w)

    def test_matches_shift_scan_oracle_on_sampled_b4_pairs(self):
        rng = random.Random(14)
        checked = 0
        while checked < 40:
            v = random_vertex(rng, B4, 3)
            w = random_vertex(rng, B4, 3)
            if v == w:
                continue
            assert (are_adjacent(v, w) is not None) == scan_adjacent(v, w)
            checked += 1

    def test_adjacency_is_symmetric(self):
        rng = random.Random(15)
        for _ in range(25):
            v = random_vertex(rng, B4, 3)
            w = random_vertex(rng, B4, 3)
            if v == w:
                continue
            assert (are_adjacent(v, w) is None) == (are_adjacent(w, v) is None)

    def test_budget_exhaustion_propagates(self):
        one = identity_vertex(B4)
        v = vertex_of(parse_word(B4, EX2_WORD))
        with pytest.raises(SearchBudgetExceeded):
            are_adjacent(one, v, budget=3)


# ---------------------------------------------------------------------------
# preferred paths and the gcd vertex


class TestPreferredPaths:
    def test_path_to_self_is_a_single_vertex(self):
        v = vertex_of(parse_word(B3, "s1 s2"))
        p = preferred_path(v, v)
        assert len(p) == 0 and p.vertices == (v,)

    def test_two_step_path_for_squared_generator(self):
        p = preferred_path(identity_vertex(B3), vertex_of(parse_word(B3, "s1 s1")))
        s1 = B3.atom(1)
        assert p.labels == (s1, s1)
        assert [format_element(v.rep) for v in p.vertices] == ["1", "s1", "s1 s1"]

    def test_witness_path_is_spelled_by_its_factors(self):
        x4 = distance_witness(4)
        p = preferred_path(identity_vertex(B4), vertex_of(x4))
        assert len(p) == 6
        assert p.labels == x4.factors

    def test_consecutive_labels_are_left_weighted(self):
        rng = random.Random(16)
        for _ in range(25):
            v = random_vertex(rng, B4, 4)
            w = random_vertex(rng, B4, 4)
            p = preferred_path(v, w)
            for a, b in zip(p.labels, p.labels[1:]):
                assert B4.is_left_weighted(a, b)

    def test_intermediate_vertices_are_translated_prefixes(self):
        v = vertex_of(parse_word(B4, "s2 s2"))
        w = vertex_of(parse_word(B4, "s2 s1 s3 s2 s1 s1"))
        z = multiply(invert(v.rep), w.rep)
        x = multiply(z, delta_power(B4, -z.power))
        p = preferred_path(v, w)
        assert p.vertices[0] == v and p.vertices[-1] == w
        for i, q in enumerate(p.vertices):
            assert q == vertex_of(multiply(v.rep, delta_prefix(x, i)))

    @pytest.mark.parametrize("n", (4, 5, 6, 7, 8))
    def test_path_vertices_match_the_reference_normaliser(self, n):
        # v and w share a prefix, so the path first cancels v's tail: its
        # running product sheds a delta at most of those steps
        st = braid_structure(n)
        rng = random.Random(f"path-reference/{n}")
        exits = 0
        for _ in range(4):
            shared = random_positive(rng, st, 10)
            v = vertex_of(multiply(shared, random_positive(rng, st, 6)))
            w = vertex_of(multiply(shared, random_positive(rng, st, 6)))
            path = preferred_path(v, w)
            assert path.vertices[-1] == w
            last = 0
            for i, q in enumerate(path.vertices):
                p, fac = reference_normal_form(
                    n, 0, list(v.rep.factors) + list(path.labels[:i]))
                # the vertex of delta^p F is tau^-p(F), and tau is an involution
                want = fac if p % 2 == 0 else tuple(oracle_tau(f) for f in fac)
                assert q.rep.power == 0 and q.rep.factors == want, (n, i)
                exits += p - last
                last = p
        assert exits > 0

    @pytest.mark.parametrize("struct", PATH_STRUCTURES, ids=lambda s: s.structure_id)
    def test_path_equals_the_per_simple_fold_of_its_labels(self, struct):
        # the path is read off the gcd and its cofactors, yet its labels are
        # the vertex of v_rep^-1 w_rep and its vertices are the running
        # product from v, step by step
        for v, w in path_pairs(struct):
            for a, b in ((v, w), (w, v)):
                path = preferred_path(a, b)
                assert path.labels == vertex_of(multiply(invert(a.rep), b.rep)).rep.factors
                assert list(path.vertices) == fold_path(a, path.labels), (a, b)

    @pytest.mark.parametrize("struct", PATH_STRUCTURES, ids=lambda s: s.structure_id)
    def test_reversed_endpoints_reverse_the_path(self, struct):
        # the thinness report reads each side from its second corner as the
        # first corner's path reversed
        kinds = set()
        for v, w in path_pairs(struct):
            assert preferred_path(w, v).vertices == \
                tuple(reversed(preferred_path(v, w).vertices)), (v, w)
            kinds.add("equal" if v == w else
                      "divides" if gcd_vertex(v, w) in (v, w) else "shared")
        assert kinds == {"equal", "divides", "shared"}

    def test_a_climb_that_sheds_a_delta_is_an_internal_error(self, monkeypatch):
        # a climb's running products divide an inf-0 representative, so a
        # fold that reports a Delta can only be a fault of the kernel
        fold = alcomplex._fold
        monkeypatch.setattr(alcomplex, "_fold", lambda *a: fold(*a) or 1)
        with pytest.raises(AssertionError, match="^internal error: a climb from the "
                                                 "gcd vertex shed a Delta$"):
            preferred_path(identity_vertex(B3), vertex_of(parse_word(B3, "s1 s2")))

    def test_gcd_vertex_examples(self):
        v = vertex_of(parse_word(B3, "s1 s1"))
        w = vertex_of(parse_word(B3, "s1 s2"))
        assert format_element(gcd_vertex(v, w).rep) == "s1"
        assert gcd_vertex(v, v) == v
        assert gcd_vertex(identity_vertex(B3), w) == identity_vertex(B3)

    def test_gcd_vertex_lies_on_the_preferred_path(self):
        rng = random.Random(17)
        for _ in range(25):
            v = random_vertex(rng, B4, 4)
            w = random_vertex(rng, B4, 4)
            path = preferred_path(v, w).vertices
            assert gcd_vertex(v, w) in path
            # the path shrinks to the gcd vertex and grows after it, so no
            # vertex is longer than both ends (_path_vertices checks no size)
            i = path.index(gcd_vertex(v, w))
            lengths = [len(q.rep.factors) for q in path]
            assert lengths[:i + 1] == sorted(lengths[:i + 1], reverse=True)
            assert lengths[i:] == sorted(lengths[i:])


# ---------------------------------------------------------------------------
# certified distance upper bounds


class TestDistanceBounds:
    def test_zero_for_equal_vertices(self):
        v = vertex_of(parse_word(B3, "s1 s1"))
        assert distance_upper_bound(v, v, 1, 3) == 0

    def test_squared_generator_sits_at_distance_two(self):
        # not adjacent, and the factor path realizes 2, so the bound is exact
        d = distance_upper_bound(identity_vertex(B3),
                                 vertex_of(parse_word(B3, "s1 s1")), 1, 3)
        assert d == 2

    def test_radius_cutoff_returns_none(self):
        assert distance_upper_bound(identity_vertex(B3),
                                    vertex_of(parse_word(B3, "s1 s1")), 1, 1) is None

    def test_short_generators_overestimate_long_absorbable_edges(self):
        # the true distance is 1, but the length-5 edge label is outside
        # the length-2 generator pool; the bound stays a certified bound
        one = identity_vertex(B4)
        v = vertex_of(parse_word(B4, EX2_WORD))
        assert are_adjacent(one, v) is not None
        assert distance_upper_bound(one, v, 2, 4) == 3

    def test_witness_vertex_within_six(self):
        d = distance_upper_bound(identity_vertex(B4),
                                 vertex_of(distance_witness(4)), 2, 7)
        assert d is not None and d <= 6

    def test_bound_never_beats_an_exact_adjacency_answer(self):
        rng = random.Random(18)
        one = identity_vertex(B3)
        for _ in range(15):
            w = random_vertex(rng, B3, 3)
            if w == one:
                continue
            d = distance_upper_bound(one, w, 2, 4)
            adjacent = are_adjacent(one, w) is not None
            assert d is not None
            assert (d == 1) == adjacent


def reference_distance(v, w, gen_len, radius):
    """The bidirectional search expanding by every generator: the vertex
    of u.rep * g for each g of the undeduplicated generator list."""
    if v == w:
        return 0
    gens = alcomplex._generators(v.structure, gen_len, DEFAULT_BUDGET, None)
    dist_v, dist_w = {v: 0}, {w: 0}
    front_v, front_w = [v], [w]
    depth_v = depth_w = 0
    best = None
    while front_v and front_w:
        if best is not None and depth_v + depth_w >= best:
            break
        if depth_v + depth_w >= radius:
            break
        if len(front_v) <= len(front_w):
            dist, other, front, depth = dist_v, dist_w, front_v, depth_v
        else:
            dist, other, front, depth = dist_w, dist_v, front_w, depth_w
        grown = []
        for u in front:
            for g in gens:
                t = vertex_of(multiply(u.rep, g))
                if t in dist:
                    continue
                dist[t] = depth + 1
                grown.append(t)
                if t in other and (best is None or depth + 1 + other[t] < best):
                    best = depth + 1 + other[t]
        if dist is dist_v:
            front_v, depth_v = grown, depth_v + 1
        else:
            front_w, depth_w = grown, depth_w + 1
    return best if best is not None and best <= radius else None


class TestVertexMoves:
    @pytest.mark.parametrize("n, gen_len, gens, moves", [
        (4, 1, 44, 22), (5, 1, 236, 118), (4, 2, 198, 168)])
    def test_generators_up_to_delta(self, n, gen_len, gens, moves):
        # gens counts distinct generators; the raw list repeats the
        # absorbable simples, which _vertex_moves drops with their vertex
        st = braid_structure(n)
        raw = alcomplex._generators(st, gen_len, DEFAULT_BUDGET, None)
        assert len({(g.power, g.factors) for g in raw}) == gens
        found = alcomplex._vertex_moves(st, gen_len, DEFAULT_BUDGET, None)
        # each move maps to 1, its distance from the identity vertex
        assert isinstance(found, dict) and len(found) == moves
        assert set(found.values()) == {1}

    @pytest.mark.parametrize("n, gen_len", [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1)])
    def test_moves_are_the_raw_generators_deduplicated_by_vertex(self, n, gen_len):
        st = BraidStructure(n)
        gens = [simple_element(st, s) for s in st.nontrivial_simples()]
        gens += absorb.enumerate_absorbable(st, gen_len)
        gens += [invert(g) for g in gens]
        assert alcomplex._generators(st, gen_len, DEFAULT_BUDGET, None) == gens
        code = st.code_book().code
        first_seen = {}
        for g in gens:
            key = tuple(code[f] for f in vertex_of(g).rep.factors)
            first_seen.setdefault(key, len(first_seen))
        moves = alcomplex._vertex_moves(st, gen_len, DEFAULT_BUDGET, None)
        assert tuple(moves) == tuple(sorted(first_seen, key=first_seen.get))
        # tau maps the move set onto itself, in another order
        tau = st.code_book()._tau
        assert {tuple(tau[f] for f in m) for m in moves} == set(moves)
        assert len(gens) > len({(g.power, g.factors) for g in gens}) > len(moves)

    # B5 with generator length 2 is left out: its 5,356 generators take
    # seconds to enumerate, and the reference search expands each of them.
    # B6 pairs are single simples: both are adjacent to the identity
    # vertex, so the reference search over B6's 1,436 generators stops
    # after one layer a side, while the search covers a 720-simple table.
    # Its answers are None (radius 1) and distances up to 2, so it is held
    # to two distinct answers instead of three.
    @pytest.mark.parametrize("n, gen_len, pairs, v_len, w_len, kinds", [
        pytest.param(*row, id="-".join(map(str, row[:3]))) for row in (
            (3, 1, 12, 3, 4, 3), (3, 2, 12, 3, 4, 3), (3, 3, 12, 3, 4, 3),
            (4, 1, 10, 3, 4, 3),
            (4, 2, 6, 3, 4, 3), (5, 1, 4, 3, 4, 3), (6, 1, 4, 1, 1, 2))])
    def test_bound_matches_the_search_over_every_generator(self, n, gen_len, pairs,
                                                           v_len, w_len, kinds):
        st = braid_structure(n)
        moves = alcomplex._vertex_moves(st, gen_len, DEFAULT_BUDGET, None)
        rng = random.Random(f"moves/{n}/{gen_len}")
        answers = set()
        for _ in range(pairs):
            v = random_vertex(rng, st, rng.randint(1, v_len))
            w = random_vertex(rng, st, rng.randint(1, w_len))
            for radius in range(1, 5):
                want = reference_distance(v, w, gen_len, radius)
                assert distance_upper_bound(v, w, gen_len, radius) == want, \
                    (v, w, gen_len, radius)
                answers.add(want)
        assert None in answers and len(answers) >= kinds
        # every search above took the stored set: a rebuild would replace it,
        # and a build under a budget of 1 would raise
        assert alcomplex._vertex_moves(st, gen_len, 1, None) is moves

    def test_one_cache_load_serves_every_query(self, tmp_path, monkeypatch):
        st = BraidStructure(4)
        path = str(tmp_path / "absorb.cache")
        loads = []
        load = absorb._cache_load

        def counting(*args):
            loads.append(args[:2])
            return load(*args)

        monkeypatch.setattr(absorb, "_cache_load", counting)
        rng = random.Random("moves/cache")
        for _ in range(20):
            v = random_vertex(rng, st, rng.randint(1, 3))
            w = random_vertex(rng, st, rng.randint(1, 3))
            distance_upper_bound(v, w, 2, 3, cache_path=path)
        assert loads == [(st, 2)]
        with open(path, encoding="ascii") as fh:
            assert fh.read().count("GARSIDE-ABSORB") == 1

    def test_a_build_out_of_budget_stores_nothing(self):
        st = BraidStructure(4)
        v = identity_vertex(st)
        # ell 4: the bracket [2, 4] leaves a search, so the move set is built
        w = vertex_of(parse_word(st, "s1 s1 s2 s2 s3 s3"))
        with pytest.raises(SearchBudgetExceeded, match="absorber search"):
            distance_upper_bound(v, w, 2, 3, budget=10)
        assert st._move_sets == {}
        assert distance_upper_bound(v, w, 2, 3) == reference_distance(v, w, 2, 3)

    def test_structures_do_not_share_move_sets(self, monkeypatch):
        shared = alcomplex._vertex_moves(B4, 1, DEFAULT_BUDGET, None)
        fresh = BraidStructure(4)
        builds = []
        build = alcomplex._generators

        def counting(*args):
            builds.append(args[0])
            return build(*args)

        monkeypatch.setattr(alcomplex, "_generators", counting)
        moves = alcomplex._vertex_moves(fresh, 1, DEFAULT_BUDGET, None)
        assert len(builds) == 1 and builds[0] is fresh
        assert moves == shared and moves is not shared
        assert B4._move_sets[1] is shared

    def test_the_search_stops_at_the_first_meeting(self):
        alcomplex._vertex_moves(B4, 2, DEFAULT_BUDGET, None)
        v = vertex_of(parse_word(B4, "s1 s3"))
        w = vertex_of(parse_word(B4, "s1 s2 s1 s3 s2 s2 s2 s1"))
        assert alcomplex._coset_difference(v, w).canonical_length == 4
        assert reference_distance(v, w, 2, 4) == 2
        # B4 has 168 moves at generator length 2: one layer from the start,
        # then the first meeting comes 105 expansions into the target's
        # layer; finishing that layer first would take 2 * 168 = 336
        assert distance_upper_bound(v, w, 2, 4, budget=273) == 2
        with pytest.raises(SearchBudgetExceeded):
            distance_upper_bound(v, w, 2, 4, budget=272)

    def test_the_start_side_first_layer_folds_nothing(self, monkeypatch):
        moves = alcomplex._vertex_moves(B4, 2, DEFAULT_BUDGET, None)
        book = B4.code_book()
        folds = []
        fold = alcomplex._fold

        def counting(t, *args):
            if t is book:
                folds.append(args[0])
            return fold(t, *args)

        monkeypatch.setattr(alcomplex, "_fold", counting)
        # the pair of test_the_search_stops_at_the_first_meeting: it meets
        # 105 expansions into the target's first layer.  The start side's
        # layer is the move set itself; each of the target's expansions
        # folds once.
        v = vertex_of(parse_word(B4, "s1 s3"))
        w = vertex_of(parse_word(B4, "s1 s2 s1 s3 s2 s2 s2 s1"))
        assert distance_upper_bound(v, w, 2, 4) == 2
        assert len(folds) == 105 < len(moves)
        # a target among the moves is found in the start side's layer
        folds.clear()
        w = vertex_of(parse_word(B4, "s1 s2 s3 s3 s2 s1"))
        assert distance_upper_bound(identity_vertex(B4), w, 2, 4) == 1
        assert folds == []

    @pytest.mark.parametrize("n, gen_len, radius, pairs", [
        (3, 2, 3, 12), (4, 2, 3, 8)])
    def test_budget_boundaries_are_translation_invariant(self, n, gen_len, radius, pairs):
        # (v, w), (g v, g w) and ((), vertex_of(z)) name one z = v_rep^-1 w_rep
        # up to tau and Delta, so each answers, or spends its budget with the
        # same message, at every budget around the smallest one that answers.
        # twisted counts the translates whose z is tau(z) Delta^c.
        st = braid_structure(n)
        alcomplex._vertex_moves(st, gen_len, DEFAULT_BUDGET, None)
        rng = random.Random(f"translate/{n}/{gen_len}")
        cases = []
        while len(cases) < pairs:
            v = random_vertex(rng, st, 3)
            w = random_vertex(rng, st, 5)
            g = random_element(rng, st, 3)
            if alcomplex._coset_difference(v, w).canonical_length > gen_len:
                cases.append((v, w, g))
        if n == 4:
            v = vertex_of(parse_word(st, "s1 s3"))
            w = vertex_of(parse_word(st, "s1 s2 s1 s3 s2 s2 s2 s1"))
            cases.append((v, w, parse_word(st, "s2 s1")))

        def outcome(v, w, budget):
            try:
                return repr(distance_upper_bound(v, w, gen_len, radius, budget=budget))
            except SearchBudgetExceeded as err:
                return str(err)

        searched = twisted = 0
        for v, w, g in cases:
            twisted += multiply(g, v.rep).inf & 1
            rooted = (identity_vertex(st), vertex_of(multiply(invert(v.rep), w.rep)))
            lo, hi = -1, 1
            while outcome(*rooted, hi).startswith("distance search"):
                lo, hi = hi, 2 * hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if outcome(*rooted, mid).startswith("distance search"):
                    lo = mid
                else:
                    hi = mid
            searched += hi > 0
            for budget in range(hi - 2, hi + 2):
                want = outcome(*rooted, budget)
                assert outcome(v, w, budget) == want, (v, w, budget)
                assert outcome(act(g, v), act(g, w), budget) == want, (v, w, g, budget)
        assert searched == len(cases) and 0 < twisted < len(cases)

    # At generator lengths 2 and 3 B3's moves are its four proper simples,
    # so its searches run deep cheaply, never meet, and pin the layer
    # counts for both parities of inf(v_rep^-1 w_rep).  B4's searches meet,
    # so they pin the order of the moves within a layer; past the first
    # layers one costs about a second of bisection, so B4 gives only three.
    @pytest.mark.parametrize("n, gen_len, pairs, v_len, w_len, deep, digest, answers", [
        pytest.param(
            3, 2, 150, 4, 8, (18, 30),
            "add1f852dc3d62eb56e69be3cbe6bd8a7c0e5a8d0465a07f820741235a3b719c",
            "631f85fc412e44c027ffc1e8076c06cef11fd000440c175af1241f8c7a99b6ab",
            id="b3-len2"),
        pytest.param(
            3, 3, 150, 4, 10, (21, 45),
            "40d4b645b01015eb011529e5eef5bf3b7aee5d39f8be7700e30ad4ee28bfcbc2",
            "4fb9845b073031052e13dd42ca13aed8b5fa1d238876ce684a3b438b9fbee425",
            id="b3-len3"),
        pytest.param(
            4, 2, 20, 2, 6, (3, 0),
            "9270098888c4591035c7e802dff12b7c0386ec5c75d3df892307d612b0201341",
            "5da236b57a55045d8d80ceacb56a8b4e98c0d824c5971e0a040bcdf1c19fe446",
            id="b4-len2"),
    ])
    def test_answers_and_budget_boundaries_are_pinned(self, n, gen_len, pairs, v_len,
                                                      w_len, deep, digest, answers):
        # per pair and radius 1-5: the answer, the smallest budget that
        # answers, and the message one unit below it.  digest was recorded
        # from the search rooted at the identity, expanding every vertex by
        # the moves in their stored order, so it pins the expansion order as
        # well as the answers; answers digests the answers alone, which no
        # expansion order may move.  deep counts, by the
        # parity of inf(z), the searches that expand a vertex past the
        # first layer of each side (more than one layer of moves a side).
        st = braid_structure(n)
        moves = alcomplex._vertex_moves(st, gen_len, DEFAULT_BUDGET, None)

        def run(v, w, radius, budget):
            try:
                return False, repr(distance_upper_bound(v, w, gen_len, radius,
                                                        budget=budget))
            except SearchBudgetExceeded as err:
                return True, str(err)

        def outcome(v, w, radius):
            failed, answer = run(v, w, radius, 0)
            if not failed:
                return answer, 0, "-"
            lo, hi = 0, 1
            while True:
                failed, answer = run(v, w, radius, hi)
                if not failed:
                    break
                lo, hi = hi, 2 * hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                failed, got = run(v, w, radius, mid)
                if failed:
                    lo = mid
                else:
                    hi, answer = mid, got
            return answer, hi, run(v, w, radius, hi - 1)[1]

        rng = random.Random(f"sweep/{n}/{gen_len}")
        rows, found, past = [], [], [0, 0]
        for _ in range(pairs):
            v = random_vertex(rng, st, rng.randint(1, v_len))
            w = random_vertex(rng, st, rng.randint(1, w_len))
            if v == identity_vertex(st):
                continue
            parity = alcomplex._coset_difference(v, w).inf % 2
            for radius in range(1, 6):
                answer, budget, below = outcome(v, w, radius)
                rows.append(f"{answer}|{budget}|{below}")
                found.append(answer)
                past[parity] += budget > 2 * len(moves)
        assert tuple(past) == deep
        assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == digest
        assert hashlib.sha256("\n".join(found).encode()).hexdigest() == answers

    def test_search_leaves_the_slide_cache_alone(self):
        st = BraidStructure(4)
        alcomplex._vertex_moves(st, 2, DEFAULT_BUDGET, None)
        rng = random.Random("moves/slide-cache")
        pairs = [(random_vertex(rng, st, 3), random_vertex(rng, st, 4))
                 for _ in range(8)]
        # the bracket's product v_rep^-1 w_rep is kernel work and fills the
        # slide cache; taking it first leaves only the search to watch.
        # Pairs at ell 1 are answered without a search and are dropped.
        pairs = [(v, w) for v, w in pairs
                 if alcomplex._coset_difference(v, w).canonical_length >= 2]
        assert len(pairs) >= 4
        def entries(rows):
            return sum(len(row) for row in rows.values())

        before = entries(st.rows)
        for v, w in pairs:
            distance_upper_bound(v, w, 2, 4)
        assert entries(st.rows) == before
        n = len(st.code_book().simples)
        assert 0 < entries(st.code_book().rows) <= n * n

    def test_budget_error_says_how_far_the_search_got(self):
        alcomplex._vertex_moves(B3, 2, DEFAULT_BUDGET, None)
        v = identity_vertex(B3)
        w = vertex_of(parse_word(B3, "s1 s1 s1 s2 s2 s2"))
        # ell 5: the bracket [3, 5] leaves a search up to radius 4
        with pytest.raises(SearchBudgetExceeded) as err:
            distance_upper_bound(v, w, 2, 4, budget=5)
        # the start side grew one layer with B3's four moves; the fifth
        # expansion is the target's first, and the sixth is over budget
        assert str(err.value) == (
            "distance search spent its 5-expansion budget at depth 1 from the "
            "start and 0 from the target, while expanding the target side's "
            "frontier of size 1")
        # B4 at generator length 2 has 168 moves.  The start side's first
        # layer spends one unit a move in the stored order, so a target
        # among the moves answers 1 at its position's budget, and a target
        # off them answers only past the whole layer.
        moves = alcomplex._vertex_moves(B4, 2, DEFAULT_BUDGET, None)
        assert len(moves) == 168
        v = identity_vertex(B4)
        for word, answer, budget in (("s1 s2 s3 s3 s2 s1", 1, 58),
                                     ("s2 s3 s2 s2 s3", 1, 168),
                                     ("s1 s2 s1 s3 s2 s2 s1", 2, 168)):
            w = vertex_of(parse_word(B4, word))
            assert distance_upper_bound(v, w, 2, 4, budget=budget) == answer
            with pytest.raises(SearchBudgetExceeded) as err:
                distance_upper_bound(v, w, 2, 4, budget=budget - 1)
            assert str(err.value) == (
                f"distance search spent its {budget - 1}-expansion budget at "
                "depth 0 from the start and 0 from the target, while expanding "
                "the start side's frontier of size 1"), word


class TestDistanceBracket:
    """distance_upper_bound brackets the distance in [ceil(r / L), r] for
    r = ell(v_rep^-1 w_rep) and generator length L, and searches only the
    open part of the bracket, up to radius min(radius, r - 1)."""

    # B5 takes gen_len 1 only: its gen_len-2 reference takes seconds a query
    @pytest.mark.parametrize("n, gen_len, pairs", [
        (3, 2, 8), (4, 1, 6), (4, 2, 8), (5, 1, 2)])
    def test_every_branch_matches_the_reference(self, n, gen_len, pairs,
                                                monkeypatch):
        st = braid_structure(n)
        builds = []
        moves_of = alcomplex._vertex_moves

        def counting(*args):
            builds.append(args[1])
            return moves_of(*args)

        monkeypatch.setattr(alcomplex, "_vertex_moves", counting)
        rng = random.Random(f"bracket/{n}/{gen_len}")
        seen = set()
        for _ in range(pairs):
            v = random_vertex(rng, st, rng.randint(1, 3))
            w = random_vertex(rng, st, rng.randint(1, 4))
            r = alcomplex._coset_difference(v, w).canonical_length
            lb = -(-r // gen_len)
            for radius in range(1, 5):
                builds.clear()
                got = distance_upper_bound(v, w, gen_len, radius)
                assert got == reference_distance(v, w, gen_len, radius), \
                    (v, w, gen_len, radius)
                if lb > radius:
                    branch = "beyond the radius"
                    assert got is None
                elif lb == r:
                    branch = "one point"
                    assert got == r
                elif got is None:
                    branch = "searched, r beyond the radius"
                elif got < r:
                    branch = "searched, found below r"
                else:
                    branch = "searched, nothing below r"
                    assert got == r
                assert builds == ([gen_len] if branch.startswith("searched")
                                  else []), branch
                seen.add(branch)
        assert {"beyond the radius", "one point"} <= seen
        if gen_len > 1:
            assert "searched, nothing below r" in seen
            assert "searched, r beyond the radius" in seen
        if (n, gen_len) == (4, 2):
            assert "searched, found below r" in seen

    def test_the_search_stops_below_the_canonical_length(self):
        alcomplex._vertex_moves(B3, 2, DEFAULT_BUDGET, None)
        v = identity_vertex(B3)
        w = vertex_of(parse_word(B3, "s1 s1 s2 s2 s1 s1"))
        assert alcomplex._coset_difference(v, w).canonical_length == 4
        # B3 has four moves: the layers to depth 3 take 4 + 4 + 16 = 24
        # expansions, and the factor path answers 4 without a fourth layer
        assert distance_upper_bound(v, w, 2, 4, budget=24) == 4
        assert distance_upper_bound(v, w, 2, 9, budget=24) == 4
        with pytest.raises(SearchBudgetExceeded):
            distance_upper_bound(v, w, 2, 4, budget=23)

    def test_generator_length_one_needs_no_search(self, tmp_path):
        # no move set or code book, no cache file and no budget: the
        # bracket is one point, even where simples cannot be enumerated
        missing = str(tmp_path / "no-such-dir" / "absorb.cache")
        rng = random.Random("bracket/gen-len-1")
        for n in (4, 12):
            st = BraidStructure(n)
            answers = []
            for _ in range(6):
                v = random_vertex(rng, st, 3)
                w = random_vertex(rng, st, 4)
                r = len(preferred_path(v, w))
                for radius in range(1, 5):
                    got = distance_upper_bound(v, w, 1, radius, budget=1,
                                               cache_path=missing)
                    assert got == (r if r <= radius else None)
                    answers.append((v, w, radius, got))
            # the absorber builds the code book, so look before
            # reference_distance runs it
            assert st._move_sets == {} and st._code_book is None
            if n == 4:
                for v, w, radius, got in answers:
                    assert got == reference_distance(v, w, 1, radius)


# ---------------------------------------------------------------------------
# segment witnesses, overlaps, thin triangles


class TestSegmentWitnesses:
    def test_connector_for_short_example_pair(self):
        v = vertex_of(parse_word(B3, "s1 s2"))
        w = vertex_of(parse_word(B3, "s1"))
        ws = initial_segment_witnesses(v, w)
        assert len(ws) == 1
        assert ws[0].index == 1
        assert format_element(ws[0].connector) == "s2"
        assert format_element(ws[0].absorber) == "s1"

    def test_swapped_order_gives_identity_connector(self):
        v = vertex_of(parse_word(B3, "s1"))
        w = vertex_of(parse_word(B3, "s1 s2"))
        ws = initial_segment_witnesses(v, w)
        assert len(ws) == 1 and ws[0].connector.is_identity

    def test_self_pair_connectors_all_identity(self):
        v = vertex_of(parse_word(B4, "s1 s2 s3 s2"))
        for wit in initial_segment_witnesses(v, v):
            assert wit.connector.is_identity

    def test_witnesses_recombine_to_prefixes(self):
        rng = random.Random(19)
        for _ in range(30):
            v = random_vertex(rng, B4, 4)
            w = random_vertex(rng, B4, 4)
            d = left_gcd(v.rep, w.rep)
            for wit in initial_segment_witnesses(v, w):
                assert wit.absorber == delta_prefix(d, wit.index)
                assert multiply(wit.absorber, wit.connector) == \
                    delta_prefix(v.rep, wit.index)

    def test_overlap_example_and_lower_bound(self):
        v = vertex_of(parse_word(B3, "s1 s1"))
        w = vertex_of(parse_word(B3, "s1 s2"))
        assert overlap_length(v, w) == 2
        assert overlap_length(v, v) == 0

    def test_overlap_at_least_remainder_sup(self):
        rng = random.Random(20)
        for _ in range(30):
            v = random_vertex(rng, B4, 4)
            w = random_vertex(rng, B4, 4)
            r = multiply(invert(left_gcd(v.rep, w.rep)), v.rep).sup
            assert overlap_length(v, w) >= r

    def test_overlap_matches_the_gcd_formula(self):
        # the reference is the overlap's definition, taken with two more
        # products and a gcd: v_rep^-1 w_rep = a^-1 b reduced, r = sup(a),
        # and the sup of gcd(complement(v_rep), complement(a) tau^r(b)).
        # short counts the pairs whose gcd is complement(v_rep) itself
        # (m = sup(v_rep) - r <= 0), twisted those whose one gcd cascade
        # takes w's factors twisted by tau (m > 0, r odd).
        short = twisted = 0
        for struct in [braid_structure(n) for n in range(2, 9)] + [
                abelian_structure(3), abelian_structure(4)]:
            rng = random.Random(f"overlap/{struct.structure_id}")
            simples = list(struct.all_simples())  # identity and Delta included

            def draw(power, length):
                return make_element(struct, power,
                                    [rng.choice(simples) for _ in range(length)])

            for case in range(60):
                shared = draw(rng.randint(-3, 3), rng.randint(0, 6))
                v = vertex_of(multiply(shared, draw(rng.randint(-2, 2), rng.randint(0, 8))))
                w = v if case % 5 == 0 else vertex_of(multiply(
                    shared, draw(rng.randint(-2, 2), rng.randint(0, 8))))
                a_inv, b = _reduced_fraction(multiply(invert(v.rep), w.rep))
                a = invert(a_inv)
                r = a.sup
                want = left_gcd(complement(v.rep),
                                multiply(complement(a), tau_element(b, r))).sup
                assert overlap_length(v, w) == want, (v, w)
                s = v.rep.canonical_length
                short += s <= r
                twisted += s > r and r % 2
        assert short >= 120 and twisted >= 120, (short, twisted)

    def test_one_descent_and_no_coset_difference_per_query(self, monkeypatch):
        # overlap_length, gcd_vertex and preferred_path each take one gcd
        # descent, which folds nothing, and no v_rep^-1 w_rep product; the
        # overlap folds once unless its gcd is complement(v_rep) itself, and
        # the path makes one product, N^-1 D, and folds each climb from the
        # gcd vertex until its first landing
        folds, descents, products = [], [], []
        fold, descent, product = element._fold, alcomplex._descent, alcomplex.multiply

        def counting(t, *args):
            # whether the fold reads a normal form's tail as it stands
            folds.append(args[3:] == (True,))
            return fold(t, *args)

        def forbidden(*args):
            raise AssertionError("a coset difference or a fraction was taken")

        def climb_folds(path):
            # a climb along y from g folds step j until y_j lands, that is
            # until vertex j is vertex j - 1 with y_j appended
            for j, (before, after) in enumerate(zip(path, path[1:]), 1):
                if after.rep.factors[:-1] == before.rep.factors:
                    return j
            return len(path) - 1

        rng = random.Random(37)
        b8 = braid_structure(8)
        cases = []
        for case in range(20):
            v = random_vertex(rng, b8, 12)
            w = vertex_of(multiply(v.rep if case % 2 else random_positive(rng, b8, 6),
                                   random_element(rng, b8, 6)))
            d = left_gcd(v.rep, w.rep)
            n, q = multiply(invert(d), v.rep), multiply(invert(d), w.rep)
            r = max(-multiply(invert(v.rep), w.rep).inf, 0)
            cases.append((v, w, vertex_of(d), n, q, r))
        monkeypatch.setattr(element, "_fold", counting)
        monkeypatch.setattr(alcomplex, "_fold", counting)
        monkeypatch.setattr(alcomplex, "_descent", lambda *a: descents.append(a) or descent(*a))
        monkeypatch.setattr(alcomplex, "multiply",
                            lambda *a: products.append(a) or product(*a))
        monkeypatch.setattr(alcomplex, "_coset_difference", forbidden)
        monkeypatch.setattr(element, "_reduced_fraction", forbidden)
        gcd_folds = slid = 0
        for v, w, g, n, q, r in cases:
            s = v.rep.canonical_length
            assert n.sup == r
            for call, want in ((overlap_length, 1 if s > r else 0), (gcd_vertex, 0)):
                folds.clear(), descents.clear(), products.clear()
                call(v, w)
                assert (folds, len(descents), len(products)) == ([True] * want, 1, 0), \
                    (call, v, w)
            gcd_folds += s > r
            folds.clear(), descents.clear(), products.clear()
            path = preferred_path(v, w).vertices
            k = len(n.factors)
            assert path[k] == g
            climbs = climb_folds(path[k::-1]) + climb_folds(path[k:])
            assert (len(folds), len(descents), len(products)) == (1 + climbs, 1, 1), (v, w)
            # the climbs fold one simple at a time, the product N^-1 D a tail
            assert folds.count(True) == 1, (v, w)
            slid += climbs - (k > 0) - (len(q.factors) > 0)
        assert 5 <= gcd_folds < 20
        # some climbs slide before they land, so the count is no step count
        assert slid > 20, slid

    def test_overlap_refuses_mixed_structures(self):
        with pytest.raises(ValueError, match="different structures"):
            overlap_length(vertex_of(parse_word(B3, "s1 s2")),
                           vertex_of(parse_word(B4, "s1 s3")))


class TestThinTriangles:
    def triangle(self):
        return (identity_vertex(B3),
                vertex_of(parse_word(B3, "s1 s1")),
                vertex_of(parse_word(B3, "s1 s2")))

    def test_short_triangle_gaps_at_most_two(self):
        rep = triangle_thinness_report(*self.triangle())
        assert rep.entries and rep.max_gap <= 2

    def test_report_line_format(self):
        rep = triangle_thinness_report(*self.triangle())
        lines = rep.lines()
        assert "s1 -> s1 s2 : len=1 via s2" in lines
        assert "s1 s2 -> s1 : len=1 via inv(s2)" in lines
        assert any(ln.endswith("len=0 via -") for ln in lines)

    def test_degenerate_triangle_needs_no_moves(self):
        one = identity_vertex(B3)
        v = vertex_of(parse_word(B3, "s1 s1"))
        assert triangle_thinness_report(one, v, v).max_gap == 0

    def test_targets_lie_on_the_other_two_edges(self):
        u, v, w = self.triangle()
        edges = {"uv": set(preferred_path(u, v).vertices),
                 "vw": set(preferred_path(v, w).vertices),
                 "wu": set(preferred_path(w, u).vertices)}
        rep = triangle_thinness_report(u, v, w)
        for e in rep.entries:
            others = set().union(*(pts for name, pts in edges.items()
                                   if name != e.edge))
            assert e.target in others

    def test_random_b4_triangles_are_two_thin(self):
        rng = random.Random(21)
        for _ in range(12):
            u = random_vertex(rng, B4, 5)
            v = random_vertex(rng, B4, 5)
            w = random_vertex(rng, B4, 5)
            assert triangle_thinness_report(u, v, w).max_gap <= 2

    def test_labels_connect_each_entry_to_its_target(self):
        # The labels are read from the representative corner * (x and
        # Delta^i) of the start, which can differ from start.rep by a power
        # of Delta; tau is an involution, so the walk is tried from the
        # shifts by Delta^0 and Delta^1, and one of them must end on the
        # target through adjacent vertices.
        rng = random.Random(23)
        checked = 0
        for t in range(60):
            st = (B3, B4)[t % 2]
            u, v, w = (random_vertex(rng, st, 5) for _ in range(3))
            if t % 4 == 3:
                w = v
            for e in triangle_thinness_report(u, v, w).entries:
                for j in (0, 1):
                    g = multiply(e.start.rep, delta_power(st, j))
                    walk = [vertex_of(g)]
                    for sign, y in e.labels:
                        g = multiply(g, invert(y) if sign < 0 else y)
                        walk.append(vertex_of(g))
                    if walk[-1] == e.target:
                        break
                else:
                    pytest.fail(f"labels of {e.line()} do not reach the target")
                for p, q in zip(walk, walk[1:]):
                    if p != q:
                        assert are_adjacent(p, q) is not None, e.line()
                        checked += 1
        assert checked > 60

    def test_one_gcd_walk_per_corner(self, monkeypatch):
        calls = {"left_gcd": 0, "_gcd_walk": 0}

        def counting(name):
            inner = getattr(alcomplex, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(alcomplex, name, counting(name))
        u, v, w = self.triangle()
        assert triangle_thinness_report(u, v, w).max_gap <= 2
        assert calls == {"left_gcd": 3, "_gcd_walk": 3}
        initial_segment_witnesses(v, w)
        assert calls == {"left_gcd": 4, "_gcd_walk": 4}

    def test_failed_connector_is_fatal(self, monkeypatch):
        monkeypatch.setattr(alcomplex, "absorbs", lambda mid, y: False)
        u, v, w = self.triangle()
        with pytest.raises(alcomplex.WitnessError,
                           match="^corner u step 1 toward y: connector failed "
                                 "absorption check$"):
            triangle_thinness_report(u, v, w)
        with pytest.raises(alcomplex.WitnessError,
                           match="^initial segment witness step 1 toward y: "
                                 "connector failed absorption check$"):
            initial_segment_witnesses(v, w)

    def test_incomplete_coverage_is_fatal(self, monkeypatch):
        monkeypatch.setattr(alcomplex, "left_gcd",
                            lambda a, b: alcomplex.identity_element(a.structure))
        with pytest.raises(alcomplex.WitnessError,
                           match="^edge uv: corner segments cover 0\\+0 < 2 steps$"):
            triangle_thinness_report(*self.triangle())

    def test_each_side_is_read_off_one_descent(self, monkeypatch):
        # one gcd descent per side and no coset difference; a side's
        # vertices climb from the gcd vertex, so no fold leaves its list
        # shorter
        splits, folds = [], []
        split, fold = alcomplex._split, alcomplex._fold

        def counting_fold(t, fac, *args):
            before = len(fac)
            e = fold(t, fac, *args)
            folds.append(len(fac) - before)
            return e

        def forbidden(*args):
            raise AssertionError("a coset difference was taken")

        monkeypatch.setattr(alcomplex, "_split", lambda *a: splits.append(a) or split(*a))
        monkeypatch.setattr(alcomplex, "_fold", counting_fold)
        monkeypatch.setattr(alcomplex, "_coset_difference", forbidden)
        rng = random.Random(44)
        for t in range(24):
            st = (B4, braid_structure(5), braid_structure(6))[t % 3]
            u, v, w = (random_vertex(rng, st, 8) for _ in range(3))
            splits.clear()
            assert triangle_thinness_report(u, v, w).max_gap <= 2
            assert splits == [(u, v), (v, w), (u, w)]
        assert folds and min(folds) >= 0

    def test_reports_on_seeded_triangles_are_pinned(self):
        # 60 triangles per structure: every fourth repeats a corner (in
        # turn u = v, v = w, w = u and all three), every fifth has the
        # identity vertex as its first corner
        rows = []
        for st in (B3, B4, braid_structure(5), abelian_structure(3)):
            rng = random.Random(f"thin/{st.structure_id}")
            simples = list(st.nontrivial_simples())
            for t in range(60):
                u, v, w = (vertex_of(make_element(
                    st, 0, [rng.choice(simples) for _ in range(rng.randint(1, 6))]))
                    for _ in range(3))
                if t % 5 == 0:
                    u = identity_vertex(st)
                if t % 4 == 1:
                    u, v, w = ((u, u, w), (u, v, v), (u, v, u), (u, u, u))[t // 4 % 4]
                rep = triangle_thinness_report(u, v, w)
                rows.append(f"{st.structure_id} {t} max_gap={rep.max_gap}")
                rows.extend(rep.lines())
        assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == \
            "2a4d89964b494fc09d8e3e31913e92828c9e9572b2bd8bf6f3840f7d51f043a5"


class TestAdjacentPathDiameter:
    def test_single_edge_path(self):
        assert adjacent_path_diameter_check(
            identity_vertex(B3), vertex_of(parse_word(B3, "s1 s2")))

    def test_absorbable_edge_scattered_into_subpaths(self):
        one = identity_vertex(B4)
        v = vertex_of(parse_word(B4, EX2_WORD))
        assert adjacent_path_diameter_check(one, v)
        assert adjacent_path_diameter_check(v, one)

    def test_rejects_non_adjacent_input(self):
        with pytest.raises(ValueError):
            adjacent_path_diameter_check(identity_vertex(B3),
                                         vertex_of(parse_word(B3, "s1 s1")))

    def test_holds_on_random_adjacent_pairs(self):
        rng = random.Random(22)
        one = identity_vertex(B4)
        found = 0
        while found < 10:
            w = vertex_of(random_positive(rng, B4, 2))
            if w == one or are_adjacent(one, w) is None:
                continue
            assert adjacent_path_diameter_check(one, w)
            found += 1
