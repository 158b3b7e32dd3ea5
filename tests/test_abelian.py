"""Free abelian fixture: the simplest structure the kernel can drive."""

import itertools
import os
import random
import subprocess
import sys

import pytest

import garside_al
from garside_al import (
    abelian_structure,
    absorbs,
    delta_power,
    enumerate_absorbable,
    invert,
    is_absorbable,
    left_gcd,
    make_element,
    multiply,
    power,
    right_gcd,
    right_normal_form,
)

Z3 = abelian_structure(3)
Z4 = abelian_structure(4)


def unit(struct, i):
    return make_element(
        struct, 0, [tuple(1 if j == i else 0 for j in range(struct.n))])


def test_structure_constants():
    assert Z3.delta == (1, 1, 1)
    assert sorted(Z3.atoms) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert len(list(Z3.all_simples())) == 8


def test_multiplication_is_coordinatewise():
    a = unit(Z3, 0)
    b = unit(Z3, 1)
    assert multiply(a, b) == multiply(b, a)
    assert multiply(multiply(a, b), unit(Z3, 2)) == delta_power(Z3, 1)


def test_normal_form_counts_coordinates():
    # e1^3 * e2: factors are the support vectors in decreasing size
    e = multiply(power(unit(Z3, 0), 3), unit(Z3, 1))
    assert e.power == 0
    assert e.canonical_length == 3
    assert e.factors[0] == (1, 1, 0)
    assert e.factors[1] == (1, 0, 0) and e.factors[2] == (1, 0, 0)


def test_stats_of_generator_multiples():
    for k in range(1, 5):
        e = power(unit(Z3, 0), k)
        assert (e.inf, e.sup, e.canonical_length) == (0, k, k)
        assert invert(e).inf == -k


def test_generator_multiples_absorbable_with_cross_witness():
    for struct in (Z3, Z4):
        for k in range(1, 5):
            for i in range(struct.n):
                y = power(unit(struct, i), k)
                j = (i + 1) % struct.n
                assert absorbs(power(unit(struct, j), k), y)
                cert = is_absorbable(y)
                assert cert is not None and absorbs(cert.x, y)


def test_rank_two_has_no_absorbable_elements():
    z2 = abelian_structure(2)
    assert enumerate_absorbable(z2, 3) == ()


def test_gcd_is_coordinatewise_min():
    a = multiply(power(unit(Z3, 0), 2), unit(Z3, 1))   # (2,1,0)
    b = multiply(unit(Z3, 0), power(unit(Z3, 2), 3))   # (1,0,3)
    g = left_gcd(a, b)
    assert g == unit(Z3, 0)


def test_right_side_equals_left_side():
    # everything commutes and tau is trivial, so the right normal form is
    # the left one read backwards and the two gcds agree
    rng = random.Random(303)
    simples = list(Z3.all_simples())
    for _ in range(300):
        a, b = (make_element(Z3, rng.randint(-3, 3),
                             [rng.choice(simples) for _ in range(rng.randint(0, 8))])
                for _ in range(2))
        assert right_normal_form(a) == (tuple(reversed(a.factors)), a.power)
        assert right_gcd(a, b) == left_gcd(a, b)


def test_mixed_sign_vectors():
    e = multiply(invert(unit(Z3, 0)), unit(Z3, 1))  # the vector (-1, 1, 0)
    assert (e.inf, e.sup, e.canonical_length) == (-1, 1, 2)
    assert multiply(e, invert(e)).is_identity


def test_two_coordinate_vector_is_not_absorbable():
    # absorbing (1,1,0) would need inf 0 and sup 1 after adding it, which
    # pins every coordinate of the absorber to 0
    y = multiply(unit(Z3, 0), unit(Z3, 1))
    assert is_absorbable(y) is None


def test_invalid_rank():
    with pytest.raises(ValueError):
        abelian_structure(0)


def test_non_simple_factor_rejected():
    # coordinates above 1 are not simples; they must not slip into factors
    with pytest.raises(ValueError, match="not a simple"):
        make_element(Z3, 0, [(2, 0, 0)])


def test_quotients_of_non_divisors_are_refused_under_o():
    # the abelian left quotient's own assert is stripped by -O; the public
    # quotients test divisibility themselves
    probe = (
        "from garside_al import abelian_structure\n"
        "z = abelian_structure(2)\n"
        "for name in ('left_quotient', 'right_quotient'):\n"
        "    try:\n"
        "        print(getattr(z, name)((1, 0), (0, 1)))\n"
        "    except ValueError as err:\n"
        "        print(err)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(garside_al.__file__)),
         env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-O", "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [
        "free-abelian:2: (1, 0) does not left-divide (0, 1)",
        "free-abelian:2: (0, 1) does not right-divide (1, 0)"]
