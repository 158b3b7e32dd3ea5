"""Plain-permutation helpers for input generation and answer invariants.

Nothing here imports garside_al: these functions are the benchmark's own
reading of the classical braid Garside structure, so the invariants they
check do not share code with the library under test.

Conventions match the library: a simple of B_n is a permutation tuple s of
1..n, where s[i-1] is the final position of the strand that enters at
position i.  The starting set of s (atoms that left-divide it) is its
descent set {i : s[i-1] > s[i]}; the finishing set is the descent set of the
inverse.  A pair (s, t) is left-weighted when the starting set of t lies in
the finishing set of s.
"""

from __future__ import annotations

import random


def identity(n: int) -> tuple:
    return tuple(range(1, n + 1))


def half_twist(n: int) -> tuple:
    return tuple(range(n, 0, -1))


def inverse(s: tuple) -> tuple:
    out = [0] * len(s)
    for i, v in enumerate(s):
        out[v - 1] = i + 1
    return tuple(out)


def descents(s: tuple) -> frozenset:
    return frozenset(i for i in range(1, len(s)) if s[i - 1] > s[i])


def left_weighted(s: tuple, t: tuple) -> bool:
    return descents(t) <= descents(inverse(s))


def is_permutation(s, n: int) -> bool:
    return isinstance(s, tuple) and sorted(s) == list(range(1, n + 1))


def normal_form_violations(power: int, factors: tuple, n: int) -> list:
    """Reasons why (power, factors) is not a left normal form of B_n."""
    bad = []
    if not isinstance(power, int):
        bad.append(f"power {power!r} is not an integer")
    ident, delta = identity(n), half_twist(n)
    for i, f in enumerate(factors):
        if not is_permutation(f, n):
            bad.append(f"factor {i} is not a permutation of 1..{n}")
            return bad
        if f == ident:
            bad.append(f"factor {i} is the identity")
        if f == delta:
            bad.append(f"factor {i} is the half twist")
    for i, (s, t) in enumerate(zip(factors, factors[1:])):
        if not left_weighted(s, t):
            bad.append(f"factors {i},{i + 1} are not left-weighted")
    return bad


def random_proper_simple(rng: random.Random, n: int) -> tuple:
    """A uniform random simple other than the identity and the half twist."""
    ident, delta = identity(n), half_twist(n)
    perm = list(ident)
    while True:
        rng.shuffle(perm)
        s = tuple(perm)
        if s != ident and s != delta:
            return s


def random_follower(rng: random.Random, prev: tuple) -> tuple:
    """A uniform random proper simple t with (prev, t) left-weighted.

    Such t are the permutations whose descents lie in the finishing set D
    of prev, that is, the ones increasing on each block of positions cut at
    D.  Shuffling the values and sorting each block draws them uniformly;
    the identity is rejected, and the half twist cannot occur because prev
    is proper, so D misses some position.
    """
    n = len(prev)
    cuts = sorted(descents(inverse(prev))) + [n]
    ident = identity(n)
    values = list(ident)
    while True:
        rng.shuffle(values)
        out, start = [], 0
        for cut in cuts:
            out.extend(sorted(values[start:cut]))
            start = cut
        t = tuple(out)
        if t != ident:
            return t


def random_chain(rng: random.Random, n: int, length: int, after=None) -> tuple:
    """A left-weighted chain of proper simples, which is its own normal form.

    The first factor is uniform among proper simples (or among the proper
    followers of `after`), each later one uniform among the proper
    followers of the previous one.
    """
    out = []
    prev = after
    for _ in range(length):
        s = random_proper_simple(rng, n) if prev is None else random_follower(rng, prev)
        out.append(s)
        prev = s
    return tuple(out)
