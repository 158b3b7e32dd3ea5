"""Independent oracles for the test suite.

Everything here is computed from first principles on plain tuples, without
importing the package under test: positive braid words are compared through
the rewriting closure of the braid relations (length-preserving, so the
closure is finite), and normal forms are rebuilt by a brute-force greedy
sweep over that closure.  Slow but trustworthy; meant for short words.

For long inputs, reference_normal_form normalizes a list of permutation
braids by repeated local sliding of adjacent pairs, the package's original
engine, here with its own permutation arithmetic; reference_right_normal_form
reads right normal forms off it through the reverse anti-automorphism.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

CLOSURE_CAP = 300_000


def rewrite_closure(word: tuple, cap: int = CLOSURE_CAP) -> frozenset:
    """All positive words equal to `word` under the braid relations."""
    seen = {tuple(word)}
    frontier = [tuple(word)]
    while frontier:
        w = frontier.pop()
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if abs(a - b) >= 2:
                cand = w[:i] + (b, a) + w[i + 2:]
                if cand not in seen:
                    seen.add(cand)
                    frontier.append(cand)
        for i in range(len(w) - 2):
            a, b, c = w[i], w[i + 1], w[i + 2]
            if a == c and abs(a - b) == 1:
                cand = w[:i] + (b, a, b) + w[i + 3:]
                if cand not in seen:
                    seen.add(cand)
                    frontier.append(cand)
        if len(seen) > cap:
            raise RuntimeError(f"closure larger than {cap}; word too long")
    return frozenset(seen)


def positive_words_equal(u: tuple, v: tuple) -> bool:
    """Group equality of positive words (positive braids embed, so the
    rewriting closure decides it)."""
    u, v = tuple(u), tuple(v)
    if len(u) != len(v):
        return False
    return v in rewrite_closure(u)


# ---------------------------------------------------------------------------
# permutations, from scratch


def perm_of_word(word: tuple, n: int) -> tuple:
    """Image tuple of the word: (u * s_i)(j) = s_i(u(j)), so appending a
    letter swaps the endpoint values i and i+1."""
    out = list(range(1, n + 1))
    for i in word:
        out = [i + 1 if v == i else i if v == i + 1 else v for v in out]
    return tuple(out)


def perm_inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def descents(p: tuple) -> frozenset:
    return frozenset(i + 1 for i in range(len(p) - 1) if p[i] > p[i + 1])


def inversions(p: tuple) -> frozenset:
    n = len(p)
    return frozenset((i, j) for i in range(1, n) for j in range(i + 1, n + 1)
                     if p[i - 1] > p[j - 1])


def reduced_word(p: tuple) -> tuple:
    """One reduced word, peeling valid first letters (position descents)."""
    p = list(p)
    out = []
    while True:
        d = next((i for i in range(1, len(p)) if p[i - 1] > p[i]), None)
        if d is None:
            return tuple(out)
        out.append(d)
        p[d - 1], p[d] = p[d], p[d - 1]


def half_twist(n: int) -> tuple:
    return tuple(range(n, 0, -1))


def all_perms(n: int):
    return (tuple(q) for q in permutations(range(1, n + 1)))


# ---------------------------------------------------------------------------
# prefix order and greedy normal form on positive words


@lru_cache(maxsize=None)
def _closure_cached(word: tuple) -> frozenset:
    return rewrite_closure(word)


def word_has_prefix(word: tuple, prefix_word: tuple) -> bool:
    """Does the positive braid of `word` have the braid of `prefix_word`
    as a left divisor?  Exhaustive: some spelling must start with some
    spelling of the prefix."""
    k = len(prefix_word)
    if k == 0:
        return True
    if k > len(word):
        return False
    heads = _closure_cached(tuple(prefix_word))
    return any(w[:k] in heads for w in _closure_cached(tuple(word)))


def simple_prefixes(word: tuple, n: int) -> set:
    """All permutations whose braids left-divide the word."""
    out = set()
    for q in all_perms(n):
        if word_has_prefix(word, reduced_word(q)):
            out.add(q)
    return out


def maximal_simple_prefix(word: tuple, n: int) -> tuple:
    """The longest simple left divisor; unique by the lattice property."""
    best = tuple(range(1, n + 1))
    for q in simple_prefixes(word, n):
        if len(inversions(q)) > len(inversions(best)):
            best = q
    return best


def greedy_normal_form(word: tuple, n: int):
    """(delta_power, factor_perms) computed greedily from the closure."""
    word = tuple(word)
    p = 0
    dword = reduced_word(half_twist(n))
    while word_has_prefix(word, dword):
        # strip one half twist: find a spelling that starts with one
        for w in _closure_cached(word):
            if w[:len(dword)] in _closure_cached(dword):
                word = w[len(dword):]
                break
        p += 1
    factors = []
    while word:
        q = maximal_simple_prefix(word, n)
        qw = reduced_word(q)
        for w in _closure_cached(word):
            if w[:len(qw)] in _closure_cached(qw):
                word = w[len(qw):]
                break
        factors.append(q)
    return p, factors


def left_weighted_pair(s: tuple, t: tuple) -> bool:
    """Descent-set characterization, computed directly."""
    return descents(t) <= descents(perm_inverse(s))


# ---------------------------------------------------------------------------
# mixed words: (power, word) pairs with the half twist cleared out


def nf_of_mixed(power: int, word: tuple, n: int):
    """Normal form of delta^power * (positive word)."""
    p, factors = greedy_normal_form(word, n)
    return power + p, factors


def elements_equal_mixed(pw1, pw2, n: int) -> bool:
    """Equality of delta^p * word pairs, via clearing to positive words."""
    (p1, w1), (p2, w2) = pw1, pw2
    shift = min(p1, p2)
    dword = reduced_word(half_twist(n))
    full1 = dword * (p1 - shift) + tuple(w1)
    full2 = dword * (p2 - shift) + tuple(w2)
    return positive_words_equal(full1, full2)


# ---------------------------------------------------------------------------
# reference normaliser for long inputs: permutation braids, pair sliding


def _compose(s: tuple, t: tuple) -> tuple:
    """The product s t of permutation braids, s first: (s t)(i) = t(s(i))."""
    return tuple(t[v - 1] for v in s)


def _tau(s: tuple) -> tuple:
    """delta^-1 s delta; the half twist is its own inverse as a permutation."""
    d = half_twist(len(s))
    return _compose(_compose(d, s), d)


_inversions = lru_cache(maxsize=None)(inversions)


@lru_cache(maxsize=None)
def _left_meet(s: tuple, t: tuple) -> tuple:
    """The largest common left divisor: left divisors of a permutation
    braid are those whose inversion sets it contains, so grow the meet one
    atom at a time inside both inversion sets."""
    n = len(s)
    both = _inversions(s) & _inversions(t)
    cur = tuple(range(1, n + 1))
    grown = True
    while grown:
        grown = False
        for i in range(1, n):
            ext = _compose(cur, perm_of_word((i,), n))
            inv = _inversions(ext)
            if len(inv) == len(_inversions(cur)) + 1 and inv <= both:
                cur, grown = ext, True
                break
    return cur


def reference_normal_form(n: int, power: int, simples) -> tuple:
    """(p, factors) of delta^power * s_1 ... s_k, each s_i a permutation.

    A pair (s, t) that is not left-weighted becomes (s u, u^-1 t) with
    u = (s^-1 delta) meet t; a delta hops left past s as tau(s); the loop
    steps back after every change until every pair is left-weighted.
    """
    ident = tuple(range(1, n + 1))
    delta = half_twist(n)
    fac = [tuple(s) for s in simples if tuple(s) != ident]
    j = 1
    while j < len(fac):
        s, t = fac[j - 1], fac[j]
        if s == delta:
            j += 1
            continue
        if t == delta:
            fac[j - 1], fac[j] = delta, _tau(s)
            if j > 1:
                j -= 1
            continue
        u = _left_meet(_compose(perm_inverse(s), delta), t)
        if u == ident:
            j += 1
            continue
        fac[j - 1] = _compose(s, u)
        rest = _compose(perm_inverse(u), t)
        if rest == ident:
            del fac[j]
        else:
            fac[j] = rest
        if j > 1:
            j -= 1
    p = 0
    while fac and fac[0] == delta:
        fac.pop(0)
        p += 1
    return power + p, tuple(fac)


def reference_right_normal_form(n: int, power: int, simples) -> tuple:
    """(factors, p) with delta^power * s_1 ... s_k = factors * delta^p and
    every adjacent pair right-weighted.

    The reverse anti-automorphism (read a word backwards) swaps left and
    right divisibility, sends a permutation braid to its inverse permutation
    and fixes delta, so it carries left normal forms to right normal forms:
    rev(delta^power s_1 ... s_k) = rev(s_k) ... rev(s_1) delta^power
    = delta^power tau^power(rev(s_k)) ... tau^power(rev(s_1)), normalized by
    reference_normal_form and reversed back.
    """
    rev = [perm_inverse(tuple(s)) for s in reversed(simples)]
    if power % 2:
        rev = [_tau(s) for s in rev]
    p, fac = reference_normal_form(n, power, rev)
    return tuple(perm_inverse(f) for f in reversed(fac)), p
