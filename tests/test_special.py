"""The distance witness family, power tracking, and the decomposition
toolbox for braids that keep a round curve round."""

import random

import pytest

from garside_al import (
    RoundCurve,
    absorbs,
    are_adjacent,
    braid_structure,
    check_between_powers,
    check_final_segment,
    check_initial_segment,
    check_path_through_powers,
    check_witness_properties,
    delta_power,
    delta_three_absorbables,
    distance_upper_bound,
    distance_witness,
    distance_witness_factor,
    format_element,
    identity_element,
    identity_vertex,
    invert,
    is_absorbable,
    left_gcd,
    make_element,
    max_power_dividing,
    multiply,
    nine_absorbable_decomposition,
    orbit_diameter_probe,
    parse_word,
    power,
    push_round_curve,
    right_normal_form,
    tube_decomposition,
    vertex_of,
)
from garside_al import alcomplex
from garside_al.braid import BraidStructure
from garside_al.element import delta_prefix, left_divides, right_divides
from garside_al.special import _witness_factor_perms
from garside_al.suites import random_right_divisor

B4 = braid_structure(4)
B5 = braid_structure(5)

X4_DISPLAY = ["s2", "s2 s1 s3", "s1 s3 s2 s1 s3", "s1 s3 s2 s1 s3",
              "s1 s3 s2", "s2"]

TUBE_WORD = "s1 s2 s1 s4 s3 s2 s1  s1 s2 s1 s3 s2 s4  s4 s3 s2 s1"


def x4():
    return distance_witness(4)


def tube_braid():
    return parse_word(B5, TUBE_WORD)


# ---------------------------------------------------------------------------
# the witness family


class TestWitnessFamily:
    def test_four_strand_witness_matches_the_display(self):
        x = x4()
        assert x.power == 0 and x.canonical_length == 6
        for factor, chunk in zip(x.factors, X4_DISPLAY):
            assert factor == parse_word(B4, chunk).factors[0]

    def test_length_formula_and_zero_infimum(self):
        for n in range(4, 11):
            x = distance_witness(n)
            assert x.power == 0
            assert x.canonical_length == 2 * ((n + 1) // 2) + 2

    def test_twelve_factors_bookended_by_the_middle_atom(self):
        for n in (9, 10):
            x = distance_witness(n)
            atom = braid_structure(n).atom(5)
            assert x.canonical_length == 12
            assert x.factors[0] == atom and x.factors[-1] == atom

    def test_transcription_is_left_weighted_as_listed(self):
        # the builder writes factors directly; normalization must not move
        # anything, otherwise the transcription drifted
        for n in range(4, 11):
            perms = _witness_factor_perms(n)
            st = braid_structure(n)
            assert all(st.is_left_weighted(a, b)
                       for a, b in zip(perms, perms[1:]))
            assert tuple(perms) == distance_witness(n).factors

    def test_property_report_passes_for_the_whole_range(self):
        for n in range(4, 11):
            report = check_witness_properties(n)
            assert report.ok, "\n".join(report.lines())

    def test_left_and_right_normal_forms_agree(self):
        x = x4()
        rfac, rpow = right_normal_form(x)
        assert rpow == 0 and tuple(rfac) == x.factors

    def test_too_few_strands_rejected(self):
        with pytest.raises(ValueError):
            distance_witness(3)

    def test_wing_factor_is_a_simple_with_frozen_spelling(self):
        w = distance_witness_factor(5)
        assert w.power == 0 and w.canonical_length == 1
        assert format_element(w) == "s1 s3 s2 s1 s4"
        with pytest.raises(ValueError):
            distance_witness_factor(4)

    def test_witness_and_its_complement_resist_absorption(self):
        # the whole point of the family: same shifted statistics as a power
        # of Delta, but nothing absorbs it in either direction
        for n in (4, 5, 6):
            x = distance_witness(n)
            comp = multiply(invert(x), delta_power(x.structure, x.sup))
            assert is_absorbable(x) is None
            assert is_absorbable(comp) is None

    def test_identity_vertex_is_far_from_the_witness_vertex(self):
        one = identity_vertex(B4)
        vx = vertex_of(x4())
        assert are_adjacent(one, vx) is None
        bound = distance_upper_bound(one, vx, 2, 7)
        assert bound is not None and 2 <= bound <= 6


# ---------------------------------------------------------------------------
# power tracking


class TestPowerTracking:
    def test_max_power_examples(self):
        x = x4()
        assert max_power_dividing(x, power(x, 2)) == 2
        assert max_power_dividing(x, parse_word(B4, "s1")) == 0
        assert max_power_dividing(x, multiply(x, parse_word(B4, "s2"))) == 1

    def test_max_power_rejects_shifted_input(self):
        x = x4()
        with pytest.raises(ValueError):
            max_power_dividing(x, multiply(delta_power(B4, 1), x))
        with pytest.raises(ValueError):
            max_power_dividing(identity_element(B4), x)

    def test_between_powers_on_fixed_instances(self):
        x = x4()
        head3 = delta_prefix(x, 3)
        assert check_between_powers(x, head3).ok
        assert check_between_powers(x, power(x, 2), m=2).ok
        z = multiply(x, delta_prefix(x, 1))
        rep = check_between_powers(x, z)
        assert rep.ok
        assert left_gcd(z, power(x, 2)).factors[:6] == x.factors

    def test_between_powers_rejects_a_wrong_power_claim(self):
        x = x4()
        with pytest.raises(ValueError):
            check_between_powers(x, multiply(x, parse_word(B4, "s2")), m=1)

    def test_initial_segment_on_fixed_instances(self):
        x = x4()
        assert check_initial_segment(x, multiply(power(x, 2),
                                                 parse_word(B4, "s2"))).ok
        assert check_initial_segment(x, power(x, 3)).ok
        with pytest.raises(ValueError):
            check_initial_segment(x, x)  # lam = 1 is out of scope

    def test_final_segment_on_fixed_instances(self):
        x = x4()
        assert check_final_segment(x, power(x, 2), 2).ok
        assert check_final_segment(x, multiply(parse_word(B4, "s2"), x), 1).ok
        with pytest.raises(ValueError):
            check_final_segment(x, parse_word(B4, "s2"), 1)

    def test_path_through_powers_on_fixed_instances(self):
        x = x4()
        z2 = multiply(power(x, 4), parse_word(B4, "s2"))
        assert check_path_through_powers(x, parse_word(B4, "s2"), z2).ok
        assert check_path_through_powers(x, identity_element(B4),
                                         power(x, 3)).ok
        with pytest.raises(ValueError):
            check_path_through_powers(x, x, power(x, 3))

    def test_power_sandwich_on_random_prefixes(self):
        rng = random.Random(31)
        x = x4()
        x5 = power(x, 5)
        for _ in range(20):
            z = delta_prefix(x5, rng.randint(0, x5.canonical_length))
            lam = max_power_dividing(x, z)
            assert left_divides(power(x, lam), z)
            assert left_divides(z, power(x, lam + 1))

    def test_suffix_powers_stay_in_normal_form_as_written(self):
        # any positive suffix of the witness, followed by witness powers,
        # is already a normal form by juxtaposition
        rng = random.Random(32)
        x = x4()
        for _ in range(15):
            v = random_right_divisor(rng, B4, x, rng.randint(1, 6))
            if v.is_identity:
                continue
            for m in (1, 2):
                z = multiply(v, power(x, m))
                assert z.factors == v.factors + x.factors * m
                for _ in range(4):
                    i = rng.randint(1, z.canonical_length)
                    t = delta_prefix(z, i)
                    assert not left_gcd(v, t).is_identity


# ---------------------------------------------------------------------------
# Garside power decomposition


class TestDeltaTriples:
    def check_triple(self, n, k):
        st = braid_structure(n)
        pieces = delta_three_absorbables(n, k)
        assert len(pieces) == 3
        prod = identity_element(st)
        for p in pieces:
            assert absorbs(p.absorber, p.factor)
            prod = multiply(prod, p.factor)
        assert prod == delta_power(st, k)
        return pieces

    def test_single_twist_in_b4(self):
        pieces = self.check_triple(4, 1)
        words = [(format_element(p.factor), format_element(p.absorber))
                 for p in pieces]
        assert words == [("s1", "s3"), ("s3", "s1"), ("s2 s1 s3 s2", "s1")]

    def test_higher_powers_and_rank(self):
        for n, k in [(4, 2), (5, 1), (5, 2)]:
            self.check_triple(n, k)

    def test_negative_power_reverses_the_triple(self):
        pieces = self.check_triple(4, -1)
        pos = delta_three_absorbables(4, 1)
        assert [p.factor for p in pieces] == \
            [invert(p.factor) for p in reversed(pos)]

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            delta_three_absorbables(3, 1)
        with pytest.raises(ValueError):
            delta_three_absorbables(4, 0)


# ---------------------------------------------------------------------------
# round curves, tubes, and the bounded decomposition


class TestRoundCurves:
    def test_curve_validation(self):
        with pytest.raises(ValueError):
            RoundCurve(3, 3)
        with pytest.raises(ValueError):
            RoundCurve(4, 2)
        assert RoundCurve(1, 3).lo == 1

    def test_disjoint_support_keeps_the_curve(self):
        assert push_round_curve(parse_word(B5, "s1"),
                                RoundCurve(3, 4)) == RoundCurve(3, 4)

    def test_straddling_crossing_breaks_roundness(self):
        assert push_round_curve(parse_word(B4, "s2"), RoundCurve(1, 2)) is None

    def test_half_twist_reverses_the_interval(self):
        assert push_round_curve(delta_power(B4, 1),
                                RoundCurve(1, 2)) == RoundCurve(3, 4)

    def test_tube_braid_moves_the_curve(self):
        assert push_round_curve(tube_braid(),
                                RoundCurve(1, 3)) == RoundCurve(2, 4)
        # one round trip through the tube is not available: second power
        # starts from the moved interval
        moved = multiply(tube_braid(), tube_braid())
        assert push_round_curve(moved, RoundCurve(1, 3)) is None

    def test_tube_split_of_the_worked_example(self):
        split = tube_decomposition(tube_braid(), RoundCurve(1, 3))
        assert split is not None
        assert split.interior == parse_word(B5, "s1 s2 s1  s1 s2")
        assert split.tubular == parse_word(
            B5, "s4 s3 s2 s1  s1 s2 s3 s4  s4 s3 s2 s1")
        assert multiply(split.interior, split.tubular) == tube_braid()
        assert absorbs(parse_word(B5, "s4^2"), split.interior)
        assert absorbs(parse_word(B5, "s1^3"), split.tubular)

    def test_tube_split_degenerate_sides(self):
        inside = parse_word(B5, "s1 s2 s1")
        outside = parse_word(B5, "s4")
        c = RoundCurve(1, 3)
        si = tube_decomposition(inside, c)
        assert si.interior == inside and si.tubular.is_identity
        so = tube_decomposition(outside, c)
        assert so.interior.is_identity and so.tubular == outside

    def test_tube_split_requires_roundness(self):
        assert tube_decomposition(parse_word(B4, "s2"), RoundCurve(1, 2)) is None


class TestNinePieceDecomposition:
    def run_case(self, y, c, expect_max=9):
        pieces = nine_absorbable_decomposition(y, c)
        assert len(pieces) <= expect_max
        prod = identity_element(y.structure)
        for p in pieces:
            assert absorbs(p.absorber, p.factor)
            prod = multiply(prod, p.factor)
        assert prod == y
        return pieces

    def test_worked_example_needs_two_pieces(self):
        pieces = self.run_case(tube_braid(), RoundCurve(1, 3))
        assert len(pieces) == 2
        split = tube_decomposition(tube_braid(), RoundCurve(1, 3))
        assert pieces[0].factor == split.interior
        assert pieces[1].factor == split.tubular

    def test_identity_needs_nothing(self):
        assert nine_absorbable_decomposition(identity_element(B4),
                                             RoundCurve(1, 2)) == ()

    def test_full_twist_uses_the_delta_triple(self):
        pieces = self.run_case(delta_power(B4, 2), RoundCurve(1, 2))
        assert len(pieces) == 3

    def test_twist_conjugate_regression(self):
        # inf 0, length 2, keeps [2,3] round; exercises the searched
        # absorber for the tube twist head
        y = power(multiply(invert(parse_word(B4, "s2")),
                           delta_power(B4, 1)), 2)
        assert (y.power, y.canonical_length) == (0, 2)
        pieces = self.run_case(y, RoundCurve(2, 3))
        assert len(pieces) == 4

    def test_interior_with_both_end_punctures_outside(self):
        pieces = self.run_case(parse_word(B5, "s2 s3 s2"), RoundCurve(2, 4))
        assert len(pieces) == 1
        assert pieces[0].rule.startswith("interior, both ends outside: ")

    def test_interior_half_twist_cleared_with_one_puncture_outside(self):
        pieces = self.run_case(parse_word(B5, "s1 s2 s1 s3 s2 s1 s1"),
                               RoundCurve(1, 4))
        assert [p.rule.split(":")[0] for p in pieces] == [
            "interior half twist, atom 1 power",
            "interior half twist, atom 1 complement",
            "interior, one end outside"]
        # the tube's half twist divides once: k = 1
        assert pieces[0].factor == parse_word(B5, "s1")

    @pytest.mark.parametrize("word, curve", [("s1 s2 s1 s3 s2 s3", (3, 4)),
                                             ("D s1 s2 s1 s3 s2 s3", (1, 2))])
    def test_twist_cleared_remainder_sits_in_the_moved_tube(self, word, curve):
        # an odd number of tube twist lifts reflects the tube's interval, and
        # the remainder's absorber is an atom power inside the reflected one
        pieces = self.run_case(parse_word(B4, word), RoundCurve(*curve))
        assert pieces[-1].rule.startswith("tubular, twist cleared: ")

    def test_moved_curve_is_rejected(self):
        with pytest.raises(Exception):
            nine_absorbable_decomposition(parse_word(B4, "s2"), RoundCurve(1, 2))


class TestOrbitProbe:
    def test_half_twist_fixes_the_identity_vertex(self):
        probe = orbit_diameter_probe(delta_power(B4, 1), 3, 1, 2)
        assert [(e.power, e.upper_bound) for e in probe] == \
            [(1, 0), (2, 0), (3, 0)]

    def test_radius_and_generator_length_below_one_are_refused(self):
        g = parse_word(B4, "s1 s2 s3")
        for gen_len, radius in ((1, 0), (0, 1), (0, 0)):
            with pytest.raises(ValueError, match="generator length and radius must be >= 1"):
                orbit_diameter_probe(g, 2, gen_len, radius)

    def test_empty_decomposition_puts_the_power_at_home(self):
        # the identity keeps every curve round and decomposes into no factors
        probe = orbit_diameter_probe(delta_power(B4, 0), 2, 1, 2, curve=RoundCurve(1, 3))
        assert [(e.power, e.upper_bound, e.search_bound, e.decomposition_bound)
                for e in probe] == [(1, 0, 0, 0), (2, 0, 0, 0)]

    def test_periodic_braid_orbit_stays_bounded(self):
        probe = orbit_diameter_probe(parse_word(B4, "s1 s2 s3"), 4, 1, 3)
        assert [(e.power, e.upper_bound) for e in probe] == \
            [(1, 1), (2, 2), (3, 1), (4, 0)]

    def test_probe_builds_its_generators_once(self, monkeypatch):
        # a fresh structure: the shared B4 already holds its move sets
        st = BraidStructure(4)
        builds = []
        build = alcomplex._generators

        def counting(*args, **kwargs):
            builds.append(args[:2])
            return build(*args, **kwargs)

        monkeypatch.setattr(alcomplex, "_generators", counting)
        for _ in range(2):
            probe = orbit_diameter_probe(parse_word(st, "s1 s2 s3"), 3, 1, 3)
            assert [(e.power, e.upper_bound) for e in probe] == \
                [(1, 1), (2, 2), (3, 1)]
        assert distance_upper_bound(identity_vertex(st),
                                    vertex_of(parse_word(st, "s1 s2")), 1, 3) == 1
        assert builds == [(st, 1)] and builds[0][0] is st

    def test_tube_preserving_braid_stays_within_nine(self):
        keeper = multiply(tube_braid(),
                          make_element(B5, 0, [(4, 1, 2, 3, 5)]))
        c = RoundCurve(1, 3)
        for i in range(1, 4):
            assert push_round_curve(power(keeper, i), c) == c
        probe = orbit_diameter_probe(keeper, 3, 1, 3, curve=c)
        bounds = [(e.power, e.upper_bound, e.search_bound,
                   e.decomposition_bound) for e in probe]
        assert bounds == [(1, 2, None, 2), (2, 5, None, 5), (3, 5, None, 5)]
        assert all(e.upper_bound <= 9 for e in probe)
