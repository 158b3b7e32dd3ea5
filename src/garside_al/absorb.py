"""Absorbability: decision search, certificates, enumeration, on-disk cache.

An element y with inf(y) = 0 or sup(y) = 0 is absorbable when some x
satisfies inf(xy) = inf(x) and sup(xy) = sup(x).  A minimal absorber can
always be taken with inf 0 and exactly ell(y) canonical factors, so the
search space is the set of left-weighted sequences x_1 ... x_k over the
nontrivial proper simples, k = ell(y).  The search builds x right to left:
prepending a positive factor never decreases the inf or the sup of the
running product x_i ... x_k * y, so a partial suffix whose product already
has inf > 0 or sup > k can be discarded with everything above it.

Every running product m the search extends has inf 0 and sup k: y has,
and a candidate t for the next factor is multiplied out only when t * m
keeps both.  Both halves are decided on simples, before any cascade
(El-Rifai and Morton, Quart. J. Math. 45, 1994; Dehornoy et al.,
Foundations of Garside Theory, Ch. I and V):

* inf(t * m) = 0 iff the right complement of t does not left-divide the
  first factor m_1 of m;
* sup(t * m) <= k iff t * m left-divides delta^k, that is iff t
  right-divides the positive X = delta^k m^-1, that is iff t right-divides
  R, the largest simple right divisor of X.

Survivor tables, the structure table _survivors[leftmost factor of the
suffix][m_1] (bounded like every structure table), list the candidates
that pass the inf test and are not left-weighted with m_1 (such a t stays
a factor of its own, so the sup grows to k + 1).  The search holds X
reversed, since rev swaps right and left divisibility: R is rev of the
head of rev(X), and rev of the X of t * m is rev(t)^-1 rev(X), one left
division.  A node divides its own leftmost factor off only when its table
is non-empty, and of the table's survivors it keeps, multiplying out,
only those that right-divide R.  It reads their indices from the structure
table _kept[leftmost, m_1, R], so it walks the kept candidates alone: the
candidates up to each kept index, and those after the last, are counted
visited in one run, and pruned is visited minus kept.  A run that passes
the budget is cut back, by bisection in the survivor table, to the first
survivor where trying one candidate at a time would have stopped.  So the
node counts, the certificate and the point where the budget runs out are
those of trying every candidate in turn.

If x absorbs a normal form y1 y2, then x absorbs y1 and x y1 absorbs y2, so
enumeration searches a chain only when its sub-chains one factor shorter
are absorbable.  The budget applies to each search actually run; a
skipped chain spends none of it.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from .element import (
    GarsideElement,
    _head,
    _left_divide,
    _lmul_simple,
    _rev,
    invert,
    multiply,
    simple_element,
    fraction_form,
)
from .structure import GarsideStructure
from .words import one_line

# the one default budget; the largest search the suites run (the six-strand
# distance witness) visits 850,735 nodes
DEFAULT_BUDGET = 2 * 10 ** 6

# spot-check density for cache re-validation: one entry in a hundred
_SPOT_CHECK_STRIDE = 100

_PRIME_SEARCH_LEN = 2  # factor bound on is_absorbable_prime's candidates


class SearchBudgetExceeded(Exception):
    """The node budget ran out before the search could answer."""


class CacheError(Exception):
    """A cache file failed structural validation or a spot check."""


@dataclass(frozen=True)
class AbsorbabilityCertificate:
    """Witness that y is absorbable: x with inf(x)=0 and sup(x)=ell(y)."""

    y: GarsideElement
    x: GarsideElement
    nodes_visited: int
    nodes_pruned: int


def absorbs(x: GarsideElement, y: GarsideElement) -> bool:
    """True iff inf(xy) = inf(x) and sup(xy) = sup(x).

    Elements with mixed sign (inf nonzero and sup nonzero) are never
    absorbable, so the answer is False for those regardless of x.
    """
    if x.structure != y.structure:
        raise ValueError("absorbs: elements from different structures")
    if y.inf != 0 and y.sup != 0:
        return False
    xy = multiply(x, y)
    return xy.inf == x.inf and xy.sup == x.sup


class _NodeCounter:
    # every candidate tried is visited, and pruned unless it is kept (multiplied out)
    __slots__ = ("visited", "kept", "budget", "depth")

    def __init__(self, budget: int) -> None:
        self.visited = 0
        self.kept = 0
        self.budget = budget
        self.depth = 0  # the deepest _dfs call so far

    @property
    def pruned(self) -> int:
        return self.visited - self.kept

    def visit(self, table, done: int, stop: int) -> None:
        """Count the candidates done .. stop - 1, stop being one past a table
        survivor or the end of the options.  The budget is checked where the
        search trying each candidate in turn checks it, at every survivor in
        table and at stop; one it stops at is not R-tested, so not pruned."""
        before = self.visited
        self.visited += stop - done
        if self.visited > self.budget:
            # the first survivor i with before + (i + 1 - done) > budget
            j = bisect_left(table, self.budget - before + done)
            untested = j < len(table)
            if untested:
                self.visited = before + table[j] + 1 - done
            raise SearchBudgetExceeded(
                f"absorber search exceeded the {self.budget}-node budget with {self.visited} "
                f"nodes visited and {self.pruned - untested} pruned; "
                f"the deepest call reached depth {self.depth}")


def _dfs(st, m, x, leftmost, depth, k, counter):
    """Extend the suffix whose running product is m; leftmost is its first factor.

    x is rev(delta^k m'^-1), for m' the running product before leftmost
    was prepended (m' = m at the root): a node below the root divides
    rev(leftmost) off only when its survivor table is non-empty.  A call
    tries the simples that can precede leftmost in a left-weighted chain,
    so the root call (m = y, leftmost the identity, depth 0) tries every
    nontrivial proper simple as the absorber's last factor.  Candidates
    come in sorted permutation order, so the first completion found is the
    lexicographically first absorber and the certificate is deterministic.
    The node reads the kept candidates, the table survivors that
    right-divide r = rev(head(x)), the largest simple right divisor of
    delta^k m^-1, from st._kept, and multiplies out only those.  Every
    candidate is still a visited node, counted in the gaps between kept
    indices and once after the last, and the ones not kept are pruned.
    Returns the factor list x_1 ... x_j (left to right, j = k - depth) that
    completes the suffix into a full absorber, or None.
    """
    options = st.preceders(leftmost)
    if depth > counter.depth:
        counter.depth = depth
    done = 0  # candidates counted so far
    head = m.factors[0]
    table = st._survivors[leftmost][head]
    if table:
        if depth:
            x = _left_divide(st, st.rev(leftmost), x)
        for i in st._kept[leftmost, head, st.rev(_head(st, x))]:
            counter.visit(table, done, i + 1)
            done = i + 1
            counter.kept += 1
            t = options[i]
            if depth + 1 == k:
                return [t]
            got = _dfs(st, _lmul_simple(st, t, m), x, t, depth + 1, k, counter)
            if got is not None:
                got.append(t)
                return got
    counter.visit(table, done, len(options))
    return None


def is_absorbable(y: GarsideElement, budget: int = DEFAULT_BUDGET):
    """Certificate of absorbability for y, or None if y is not absorbable.

    Inputs with inf and sup both nonzero are never absorbable and return
    None at once; the trivial element also returns None (it labels no edge
    and is excluded by convention).  For sup(y) = 0 the search runs on the
    positive element y^-1 and the certificate x' is converted to
    x = x' * y^-1, which absorbs y with the same statistics.

    Raises SearchBudgetExceeded when the node budget runs out; that signals
    the query was too large, never a wrong answer.
    """
    st = y.structure
    if y.is_identity:
        return None
    if y.inf == 0:
        target = y
    elif y.sup == 0:
        target = invert(y)
    else:
        return None
    counter = _NodeCounter(budget)
    # delta^k target^-1 is invert(target) without its delta^-k
    room = _rev(GarsideElement(st, 0, invert(target).factors))
    got = _dfs(st, target, room, st.identity, 0, target.canonical_length, counter)
    if got is None:
        return None
    x = GarsideElement(st, 0, tuple(got))
    if target is not y:
        x = multiply(x, invert(y))
    if not absorbs(x, y):
        raise AssertionError("internal error: absorber failed verification")
    return AbsorbabilityCertificate(y=y, x=x,
                                    nodes_visited=counter.visited,
                                    nodes_pruned=counter.pruned)


def _chains(st: GarsideStructure, max_len: int, keep=None):
    """Normal forms of inf 0 with 1..max_len factors, as factor tuples, in
    (length, lexicographic) order: level l extends level l-1 by the sorted
    followers of each chain's last factor.  With keep, only accepted chains
    are yielded and extended, and keep(c) is asked only if c[1:] was kept."""
    level = [()]
    for _ in range(max_len):
        kept = set(level)
        grown = []
        for c in level:
            for t in st.followers(c[-1]) if c else st.nontrivial_simples():
                g = (*c, t)
                if keep is None or (g[1:] in kept and keep(g)):
                    grown.append(g)
        yield from grown
        level = grown


def enumerate_absorbable(st: GarsideStructure, max_len: int,
                         budget: int = DEFAULT_BUDGET,
                         cache_path=None) -> tuple:
    """All positive absorbable elements with inf 0 and 1 <= ell <= max_len.

    Deterministic order: by canonical length, then lexicographically by the
    factor permutations.  When cache_path is given, a previously stored
    result block for this (structure, max_len) key is loaded instead of
    recomputed (after validation), and fresh results are appended for the
    next run.
    """
    if max_len < 1:
        raise ValueError("enumerate_absorbable: max_len must be >= 1")
    if cache_path is not None:
        cached = _cache_load(st, max_len, cache_path, budget)
        if cached is not None:
            return cached
    chains = _chains(st, max_len, lambda c: is_absorbable(
        GarsideElement(st, 0, c), budget=budget) is not None)
    result = tuple(GarsideElement(st, 0, c) for c in chains)
    if cache_path is not None:
        _cache_append(st, max_len, cache_path, result)
    return result


# ---------------------------------------------------------------------------
# cache: text, line oriented, append-only blocks
#
#   GARSIDE-ABSORB v3 <structure-id> n=<n> L=<L>
#   perm|perm|...
#   ...
#   END <number of entries> <digest of the entry lines>
#
# One element per line as its factor list; permutations in one-line notation,
# plain digit runs for n <= 9 and comma-separated entries for larger n.  A
# block is written by one write() on an O_APPEND descriptor, trailer last, so
# a block cut short by a crash has no trailer (or a wrong count) and is
# skipped, and blocks from concurrent writers do not interleave.  The digest
# also rejects a row changed into another well-formed chain, which the
# sparse spot check would usually miss.  A writer holds an exclusive flock
# from its torn-line check until its descriptor closes, so the check never
# sees another writer's block half written.

_CACHE_MAGIC = "GARSIDE-ABSORB"
_CACHE_VERSION = "v3"
_CACHE_TRAILER = "END"


def _parse_simple(st: GarsideStructure, token: str):
    try:
        if "," in token:
            s = tuple(int(d) for d in token.split(","))
        else:
            s = tuple(int(d) for d in token)
    except ValueError:
        raise CacheError(f"cache: unparsable permutation {token!r}")
    if not st.is_simple_value(s):
        raise CacheError(f"cache: {token!r} is not a simple element")
    return s


def _cache_header(st: GarsideStructure, max_len: int) -> str:
    return f"{_CACHE_MAGIC} {_CACHE_VERSION} {st.structure_id} n={st.n} L={max_len}"


def _cache_trailer(rows) -> str:
    """END, the entry count, and the first 16 hex digits of the sha256 of
    the entry lines."""
    digest = hashlib.sha256("\n".join(rows).encode("ascii")).hexdigest()
    return f"{_CACHE_TRAILER} {len(rows)} {digest[:16]}"


def _complete_block(lines, start):
    """The entry lines of the block whose rows begin at lines[start], or
    None when its trailer is missing or does not match them in count and
    digest."""
    rows = []
    for line in lines[start:]:
        if line.startswith(_CACHE_MAGIC):
            return None
        if line.startswith(_CACHE_TRAILER):
            return rows if line == _cache_trailer(rows) else None
        if line.strip():
            rows.append(line)
    return None


def _cache_load(st, max_len, path, budget):
    """Return the cached tuple for this key, or None when absent.

    Blocks are located by their exact header line; the first complete one
    (see _complete_block) is used.  Entries are parsed, checked to be
    normal forms of inf 0 in sorted order, and one entry in a hundred
    (always at least one) is re-validated with a fresh search.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise CacheError(f"cache: cannot read {path}: {exc}")
    wanted = _cache_header(st, max_len)
    rows = None
    for i, line in enumerate(lines):
        if line == wanted:
            rows = _complete_block(lines, i + 1)
            if rows is not None:
                break
    if rows is None:
        return None
    chains = []
    for line in rows:
        chain = tuple(_parse_simple(st, tok) for tok in line.split("|"))
        if st.identity in chain or st.delta in chain:
            raise CacheError(f"cache: entry {line!r} has a factor equal to delta or the identity")
        for a, b in zip(chain, chain[1:]):
            if not st.is_left_weighted(a, b):
                raise CacheError(f"cache: entry {line!r} is not left-weighted")
        if len(chain) > max_len:
            raise CacheError(f"cache: entry {line!r} exceeds the block's length bound")
        chains.append(chain)
    keys = [(len(c), c) for c in chains]
    if keys != sorted(keys):
        raise CacheError("cache: block entries out of order")
    if len(set(chains)) != len(chains):
        raise CacheError("cache: duplicate block entries")
    for idx in range(0, len(chains), _SPOT_CHECK_STRIDE):
        if is_absorbable(GarsideElement(st, 0, chains[idx]), budget=budget) is None:
            raise CacheError(f"cache: spot check failed for entry {idx}")
    return tuple(GarsideElement(st, 0, c) for c in chains)


def _cache_append(st, max_len, path, elements) -> None:
    rows = ["|".join(one_line(st, f) for f in el.factors)
            for el in elements]
    data = "\n".join([_cache_header(st, max_len), *rows,
                      _cache_trailer(rows)]).encode("ascii") + b"\n"
    try:
        fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    except OSError as exc:
        raise CacheError(f"cache: cannot write {path}: {exc}")
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        # a torn last line left by an interrupted writer would swallow the header
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            data = b"\n" + data
        while data:  # one write unless the kernel takes only part of it
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# the one-sided generalization


def is_absorbable_prime(y: GarsideElement, budget: int = DEFAULT_BUDGET) -> str:
    """Semi-decision for the stronger property: "yes", "no", or "unknown".

    "yes" needs an x whose inf and sup survive multiplication by every
    initial segment of the fraction-form word of y (negative factors of the
    denominator in reverse, then factors of the numerator).  Absorbable
    elements qualify at once.  "no" is answered through the necessary
    condition that both fraction parts be absorbable themselves.  Otherwise
    a search over positive candidates with at most _PRIME_SEARCH_LEN
    factors is tried, and "unknown" is returned when it finds nothing: the
    two known implications do not close into a decision procedure.
    """
    st = y.structure
    if y.is_identity:
        return "yes"
    if (y.inf == 0 or y.sup == 0) and is_absorbable(y, budget=budget) is not None:
        return "yes"
    fr = fraction_form(y)
    u, v = fr.negative, fr.positive
    if not u.is_identity and is_absorbable(invert(u), budget=budget) is None:
        return "no"
    if not v.is_identity and is_absorbable(v, budget=budget) is None:
        return "no"
    letters = [invert(simple_element(st, f)) for f in reversed(u.factors)]
    letters += [simple_element(st, f) for f in v.factors]
    segments = list(accumulate(letters, multiply))
    if segments and segments[-1] != y:
        raise AssertionError("internal error: fraction word does not rebuild y")
    for x in (GarsideElement(st, 0, c) for c in _chains(st, _PRIME_SEARCH_LEN)):
        products = (multiply(x, seg) for seg in segments)
        if all(xs.inf == x.inf and xs.sup == x.sup for xs in products):
            return "yes"
    return "unknown"
