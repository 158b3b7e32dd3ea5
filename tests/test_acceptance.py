"""Release gate: thirteen headline behaviors, one PASS/FAIL line each.

Run as `pytest tests/test_acceptance.py -v` (add -s to see the lines
inline).  Every criterion carries its stated runtime tolerance; a body
that overruns fails even if the math is right.
"""

import itertools
import random
import time
from contextlib import contextmanager

from garside_al import (
    RoundCurve,
    abelian_structure,
    absorbs,
    act,
    adjacent_path_diameter_check,
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
    enumerate_absorbable,
    format_factors,
    gcd_vertex,
    identity_element,
    identity_vertex,
    invert,
    is_absorbable,
    left_gcd,
    make_element,
    multiply,
    nine_absorbable_decomposition,
    overlap_length,
    parse_word,
    power,
    preferred_path,
    run_suite,
    simple_element,
    triangle_thinness_report,
    tube_decomposition,
    vertex_of,
)
from garside_al.suites import (
    SCOPE_NOTE,
    between_powers_instance,
    final_segment_instance,
    initial_segment_instance,
    path_powers_instance,
    random_vertex,
)

B3 = braid_structure(3)
B4 = braid_structure(4)
B5 = braid_structure(5)


@contextmanager
def criterion(num, label, limit=None):
    t0 = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - t0
        if limit is not None:
            assert elapsed < limit, f"took {elapsed:.1f}s, limit {limit}s"
    except BaseException:
        print(f"FAIL criterion {num}: {label}")
        raise
    print(f"PASS criterion {num}: {label}"
          + (f" ({time.monotonic() - t0:.1f}s)" if limit else ""))


def test_criterion_01_absorbable_certificate_and_product_form():
    with criterion(1, "nested band braid absorbed with the frozen "
                      "5-factor product", limit=60):
        y = parse_word(B4, "s1^2 s2^2 s3^2 s2^2 s1")
        cert = is_absorbable(y)
        assert cert is not None and absorbs(cert.x, y)
        x = parse_word(B4, "s1 s2^4 s1^2 s2 s3")
        assert absorbs(x, y)
        assert format_factors(multiply(x, y)) == \
            "s1 s2 s1 | s1 s2 s1 s3 | s1 s2 s3 s2 | s2 s3 s2 | s2 s3 s2 s1"


def test_criterion_02_interleaved_square_resists_absorption():
    with criterion(2, "commuting-pair square not absorbable, exhaustively",
                   limit=5):
        y = parse_word(B4, "s1 s3 s1 s3")
        assert is_absorbable(y) is None
        # independent sweep: no inf-0 sup-2 element keeps both statistics
        simples = [simple_element(B4, s) for s in B4.nontrivial_simples()]
        for pair in itertools.product(simples, repeat=2):
            x = multiply(*pair)
            if x.power != 0 or x.sup != 2:
                continue
            assert not absorbs(x, y)


def test_criterion_03_atom_complements_resist_absorption():
    with criterion(3, "inverse-atom half twists not absorbable in ranks "
                      "4 and 5", limit=600):
        for st in (B4, B5):
            for i in range(1, st.n):
                y = multiply(invert(make_element(st, 0, [st.atom(i)])),
                             delta_power(st, 1))
                assert is_absorbable(y) is None


def test_criterion_04_rank_three_enumeration_is_the_two_atoms():
    with criterion(4, "rank-3 absorbables up to length 3 are the two atoms",
                   limit=5):
        got = {format_factors(a) for a in enumerate_absorbable(B3, 3)}
        assert got == {"s1", "s2"}


def test_criterion_05_lattice_generator_multiples_absorb():
    with criterion(5, "free abelian generator multiples absorbable "
                      "through power 4"):
        z3 = abelian_structure(3)
        for i in range(3):
            unit = simple_element(z3, tuple(int(j == i) for j in range(3)))
            for k in range(1, 5):
                y = power(unit, k)
                cert = is_absorbable(y)
                assert cert is not None and absorbs(cert.x, y)


def test_criterion_06_garside_powers_split_into_three_absorbables():
    with criterion(6, "Garside element powers are triple products of "
                      "absorbables"):
        for n in (4, 5):
            st = braid_structure(n)
            for k in (-2, -1, 1, 2):
                pieces = delta_three_absorbables(n, k)
                assert len(pieces) == 3
                prod = identity_element(st)
                for p in pieces:
                    assert absorbs(p.absorber, p.factor)
                    prod = multiply(prod, p.factor)
                assert prod == delta_power(st, k)


def test_criterion_07_distance_witness_golden_suite():
    with criterion(7, "distance witness family verified for 4 to 10 strands"):
        for n in range(4, 11):
            report = check_witness_properties(n)
            assert report.ok, "\n".join(report.lines())
        x4 = distance_witness(4)
        display = ["s2", "s2 s1 s3", "s1 s3 s2 s1 s3", "s1 s3 s2 s1 s3",
                   "s1 s3 s2", "s2"]
        assert x4.canonical_length == 6
        for factor, chunk in zip(x4.factors, display):
            assert factor == parse_word(B4, chunk).factors[0]
        for n in (9, 10):
            x = distance_witness(n)
            atom = braid_structure(n).atom(5)
            assert x.canonical_length == 12
            assert x.factors[0] == atom and x.factors[-1] == atom


def test_criterion_08_power_tracking_on_seeded_instances():
    with criterion(8, "power tracking checks on 100 seeded instances each",
                   limit=600):
        x = distance_witness(4)
        rng = random.Random(800)
        for _ in range(100):
            z, m = between_powers_instance(rng, x)
            assert check_between_powers(x, z, m=m).ok
        rng = random.Random(801)
        for _ in range(100):
            assert check_initial_segment(x, initial_segment_instance(rng, x)).ok
        rng = random.Random(802)
        for _ in range(100):
            z, k = final_segment_instance(rng, x)
            assert check_final_segment(x, z, k).ok
        rng = random.Random(803)
        for _ in range(100):
            z1, z2 = path_powers_instance(rng, x)
            assert check_path_through_powers(x, z1, z2).ok


def test_criterion_09_preferred_path_properties_on_seeded_pairs():
    with criterion(9, "preferred path properties on 200 seeded pairs "
                      "plus adjacent-pair diameters"):
        rng = random.Random(900)
        done = 0
        while done < 200:
            st = B3 if done % 2 else B4
            v = random_vertex(rng, st, 6)
            w = random_vertex(rng, st, 6)
            if v == w:
                continue
            p = preferred_path(v, w)
            g = gcd_vertex(v, w)
            assert g in p.vertices
            i = p.vertices.index(g)
            left = preferred_path(v, g).vertices if g != v else (v,)
            right = preferred_path(g, w).vertices if g != w else (w,)
            assert p.vertices[:i + 1] == left and p.vertices[i:] == right
            assert preferred_path(w, v).vertices == \
                tuple(reversed(p.vertices))
            assert make_element(st, 0, p.labels).factors == p.labels
            done += 1

        labels = [simple_element(B4, s) for s in B4.nontrivial_simples()]
        labels += list(enumerate_absorbable(B4, 2))
        done = 0
        while done < 20:
            v = random_vertex(rng, B4, 4)
            w = vertex_of(multiply(v.rep, rng.choice(labels)))
            if v == w:
                continue
            assert adjacent_path_diameter_check(v, w)
            done += 1


def test_criterion_10_triangles_are_two_thin_with_overlap():
    with criterion(10, "two-thin triangles and overlap bound on 100 seeded "
                       "samples", limit=1800):
        rng = random.Random(1000)
        for _ in range(100):
            u = random_vertex(rng, B4, 6)
            v = random_vertex(rng, B4, 6)
            w = random_vertex(rng, B4, 6)
            assert triangle_thinness_report(u, v, w).max_gap <= 2
            for a, b in ((u, v), (v, w), (w, u)):
                r = multiply(invert(left_gcd(a.rep, b.rep)), a.rep).sup
                assert overlap_length(a, b) >= r


def test_criterion_11_tube_decomposition_regression():
    with criterion(11, "tube example splits and decomposes with "
                       "verified absorbers"):
        y = parse_word(B5, "s1 s2 s1 s4 s3 s2 s1  s1 s2 s1 s3 s2 s4  s4 s3 s2 s1")
        c = RoundCurve(1, 3)
        split = tube_decomposition(y, c)
        assert split is not None
        assert split.interior == parse_word(B5, "s1 s2 s1  s1 s2")
        assert split.tubular == parse_word(B5,
                                           "s4 s3 s2 s1  s1 s2 s3 s4  s4 s3 s2 s1")
        assert absorbs(parse_word(B5, "s4^2"), split.interior)
        assert absorbs(parse_word(B5, "s1^3"), split.tubular)
        pieces = nine_absorbable_decomposition(y, c)
        assert 0 < len(pieces) <= 9
        prod = identity_element(B5)
        for p in pieces:
            assert absorbs(p.absorber, p.factor)
            prod = multiply(prod, p.factor)
        assert prod == y


def test_criterion_12_distance_facts_for_the_witness_vertex():
    with criterion(12, "witness vertex distance facts and full twist "
                       "acting trivially"):
        one = identity_vertex(B4)
        vx = vertex_of(distance_witness(4))
        assert are_adjacent(one, vx) is None
        bound = distance_upper_bound(one, vx, 2, 7)
        assert bound is not None and bound <= 6
        rng = random.Random(1200)
        d2 = delta_power(B4, 2)
        for _ in range(100):
            v = random_vertex(rng, B4, 5)
            assert act(d2, v) == v


def test_criterion_13_scope_statement_in_suite_output():
    with criterion(13, "suite output states the non-reproducible results "
                       "and their substitutes"):
        result = run_suite("special")
        assert result.ok
        assert SCOPE_NOTE in result.notes
        joined = "\n".join(result.lines())
        for token in ("N/2", "60", "39", "locally infinite",
                      "non-constructive", "designated finite substitutes",
                      "power tracking", "preferred paths",
                      "triangle thinness"):
            assert token in joined, f"scope statement must mention {token!r}"


def test_absorb_and_complex_suites_pass_every_check():
    for name in ("absorb", "complex"):
        result = run_suite(name, seed=0)
        assert result.checks, name
        assert result.ok, [c.line() for c in result.checks if not c.ok]
