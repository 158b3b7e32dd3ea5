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
and a candidate t for the next factor is kept only when t * m keeps both.
Both halves are decided on simples, before any cascade
(El-Rifai and Morton, Quart. J. Math. 45, 1994; Dehornoy et al.,
Foundations of Garside Theory, Ch. I and V):

* inf(t * m) = 0 iff the right complement of t does not left-divide the
  first factor m_1 of m;
* sup(t * m) <= k iff t * m left-divides delta^k, that is iff t
  right-divides the positive X = delta^k m^-1, that is iff t right-divides
  R, the largest simple right divisor of X.

The search runs on the integer codes of the structure's code book
(structure.CodeBook), the one the distance search folds its vertices
with: the book numbers the identity 0, the nontrivial simples 1 .. N-2
in sorted order, the order the search tries them in, and delta N-1.  The
root codes y's factors once and builds the room on the book, reading
y^-1 off the complements; it verifies the absorber found with one coded
cascade of y onto it, and decodes the certificate once.  The
candidate sets are N-bit ints, bit c for the simple of code c
(_Candidates): pre[s] holds the t that may precede s in a left-weighted
chain, inf[m_1] those that pass the inf test and are not left-weighted
with m_1 (such a t stays a factor of its own, so the sup grows to
k + 1), and rdiv[R] those that right-divide R.  The search holds X
reversed, since rev swaps right and left divisibility: R is rev of the
head of rev(X), and rev of the X of t * m is rev(t)^-1 rev(X), one left
division.  A node reads that head off the left cascade's first output
other than delta, and divides the room whole only when a kept candidate
has children to pass it to; most nodes keep none.  Of m it holds only
the head m_1: for a survivor t, the head of t * m is the first output of
the slide rows[t][m_1], which the later slides keep (the domino rule).  A
node walks the set bits of pre[leftmost] & inf[m_1] & rdiv[R]; those
before each, and after the last, count as visited (a popcount of
pre[leftmost]), and pruned is visited minus kept.  A budget overrun is
cut back, by bisection over the survivors' positions (_NodeCounter.visit,
called only once the count passes the budget), to where trying one
candidate at a time would have stopped, so the node counts, the
certificate and the point where the budget runs out are those of trying
every candidate.

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
from functools import reduce
from itertools import accumulate
from operator import and_, or_

from .element import (
    GarsideElement,
    _complement_factors,
    _fold,
    _left_divide,
    _left_divide_head,
    invert,
    multiply,
    simple_element,
    fraction_form,
)
from .structure import GarsideStructure, _Table
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


def _pick(columns, m: int):
    """The columns at the set bits of m."""
    return (c for b, c in enumerate(columns) if m >> b & 1)


class _Candidates:
    """The candidate sets of one structure, keyed by code in its code
    book, bit c for the simple of code c (never the identity, code 0, or
    delta, code N-1): pre[s] (t, s) left-weighted; inf[h] (t, h) not, and
    mask(∂t) not inside mask(h); rdiv[r] mask(rev t) inside mask(rev r).
    Each entry is an AND or an OR of columns: per mask bit b the t whose
    rev has b and the t whose ∂ has b, and per atom a the t that a
    right-divides."""

    __slots__ = ("book", "pre", "inf", "rdiv")

    def __init__(self, st: GarsideStructure) -> None:
        self.book = book = st.code_book()
        simples, rev = book.simples, book._rev
        mask, starting = st._inversion_mask, st._starting_set
        everyone = (1 << book.delta) - 2  # codes 1 .. N-2
        bits = mask[st.delta]  # every simple left-divides delta
        width = bits.bit_length()
        pad = f"{{:0{width}b}}".format

        def columns(of: list) -> list:
            # column b holds bit b of every mask[simples[of[c]]], every
            # width-th digit of their binary rows, last code first; 4,096
            # rows at a time bound memory
            cols = [0] * width
            for at in range(0, len(simples), 4096):
                rows = "".join([pad(mask[simples[of[c]]])
                                for c in reversed(range(at, min(at + 4096, len(simples))))])
                for b in range(width):
                    cols[b] |= int(rows[width - 1 - b::width], 2) << at
            return [col & everyone for col in cols]

        rev_cols, dc_cols = columns(rev), columns(book._right_complement)
        right_by = [reduce(and_, _pick(rev_cols, mask[a]), everyone) for a in st.atoms]
        self.pre = _Table(lambda s: reduce(and_, (right_by[i - 1] for i in starting[simples[s]]),
                                           everyone))
        self.inf = _Table(lambda h: ~self.pre[h]
                          & reduce(or_, _pick(dc_cols, bits & ~mask[simples[h]]), 0))
        self.rdiv = _Table(lambda r: everyone
                           & ~reduce(or_, _pick(rev_cols, bits & ~mask[simples[rev[r]]]), 0))


class _NodeCounter:
    # every candidate tried is visited, and pruned unless it is kept (right-divides R)
    __slots__ = ("visited", "kept", "budget", "depth")

    def __init__(self, budget: int) -> None:
        self.visited = 0
        self.kept = 0
        self.budget = budget
        self.depth = 0  # the deepest _dfs call so far

    @property
    def pruned(self) -> int:
        return self.visited - self.kept

    def visit(self, pre: int, table: int, done: int, stop: int) -> None:
        """Count the candidates done .. stop - 1 by position in pre, stop
        being one past a survivor of table or the end of pre.  The budget
        is checked where trying each candidate in turn checks it, at every
        survivor and at stop; one it stops at is not R-tested, so not pruned."""
        before = self.visited
        self.visited += stop - done
        if self.visited > self.budget:
            # the survivors' positions, needed only here; the first
            # survivor i with before + (i + 1 - done) > budget
            at = [(pre & ((1 << b) - 1)).bit_count()
                  for b, d in enumerate(reversed(f"{table:b}")) if d == "1"]
            j = bisect_left(at, self.budget - before + done)
            untested = j < len(at)
            if untested:
                self.visited = before + at[j] + 1 - done
            raise SearchBudgetExceeded(
                f"absorber search exceeded the {self.budget}-node budget with {self.visited} "
                f"nodes visited and {self.pruned - untested} pruned; "
                f"the deepest call reached depth {self.depth}")


def _dfs(cands, head, p, x, leftmost, depth, k, counter):
    """Extend a suffix whose first factor is leftmost, every simple being
    its code in cands.book; head is the first factor of its running
    product m (never built), and delta^p x (a bare power and factor tuple)
    is rev(delta^k m'^-1), m' the product before leftmost was prepended
    (m' = m at the root).  r, rev of the head of the node's room
    rev(delta^k m^-1) = rev(leftmost)^-1 delta^p x, is delta when the
    room's power is positive, else rev of its first factor or the
    identity.  Below the root, a node with a survivor reads that power
    and factor off the left cascade, run up to the room's first factor,
    and divides the room whole only for a kept candidate that has
    children.  The root (head = y_1, leftmost the identity) tries every
    nontrivial proper simple in sorted order, so the first completion is
    the lexicographically first absorber.  Returns the codes x_1 ... x_j
    (j = k - depth) that complete the suffix, or None.
    """
    pre = cands.pre[leftmost]
    if depth > counter.depth:
        counter.depth = depth
    done = 0  # candidates counted so far
    table = pre & cands.inf[head]
    if table:
        book = cands.book
        if depth:
            d = book._rev[leftmost]
            q, first = _left_divide_head(book, d, p, x)
        else:
            q, first = p, x[0] if x else book.identity
        kept = table & cands.rdiv[book.delta if q > 0 else book._rev[first]]
        if kept and depth + 1 < k:
            if depth:
                p, x = _left_divide(book, d, p, x)
            rows = book.rows
        while kept:
            low = kept & -kept  # the lowest kept bit
            kept ^= low
            i = (pre & (low - 1)).bit_count()  # its position among the preceders
            # count the candidates done .. i, through visit only past the budget
            visited = counter.visited + i + 1 - done
            if visited > counter.budget:
                counter.visit(pre, table, done, i + 1)
            counter.visited = visited
            done = i + 1
            counter.kept += 1
            t = low.bit_length() - 1
            if depth + 1 == k:
                return [t]
            got = _dfs(cands, rows[t][head][0], p, x, t, depth + 1, k, counter)
            if got is not None:
                got.append(t)
                return got
    stop = pre.bit_count()
    visited = counter.visited + stop - done
    if visited > counter.budget:
        counter.visit(pre, table, done, stop)
    counter.visited = visited
    return None


def is_absorbable(y: GarsideElement, budget: int = DEFAULT_BUDGET):
    """Certificate of absorbability for y, or None if y is not absorbable.

    Inputs with inf and sup both nonzero are never absorbable and return
    None at once; the trivial element also returns None (it labels no edge
    and is excluded by convention).  For sup(y) = 0 the search runs on the
    positive element y^-1 and the certificate x' is converted to
    x = x' * y^-1, which absorbs y with the same statistics.

    The root codes y's factors once and works on the code book from there:
    y^-1 is read off the complements, the room rev(delta^k target^-1) is
    one right cascade over the reversed complement codes, and x' * y^-1 is
    one more.  Every absorber found is verified by one cascade of y's codes
    onto x's, which must leave the inf and the sup of x as they are; x is
    decoded into an element only then.

    Raises SearchBudgetExceeded when the node budget runs out; that signals
    the query was too large, never a wrong answer.
    """
    st = y.structure
    if y.is_identity or y.inf != 0 and y.sup != 0:
        return None
    if st._candidates is None:
        st._candidates = _Candidates(st)
    cands = st._candidates
    book = cands.book
    code = book.code
    coded = [code[f] for f in y.factors]
    k = len(coded)
    # the target, of inf 0, and the factors of delta^k target^-1
    if y.inf == 0:
        target, inverse = coded, _complement_factors(book, coded, k)
    else:
        target, inverse = _complement_factors(book, coded, 0), coded
    counter = _NodeCounter(budget)
    # the room rev(delta^k target^-1) = rev(inverse_r) ... rev(inverse_1)
    room: list = []
    e = _fold(book, room, 0, [book._rev[c] for c in reversed(inverse)])
    if e & 1:
        room = [book._tau[c] for c in room]
    got = _dfs(cands, target[0], e, tuple(room), 0, 0, k, counter)
    if got is None:
        return None
    x, p = got, 0
    if y.inf != 0:  # x' * target, target being y^-1
        p = _fold(book, x, 0, target)
        if p & 1:
            x = [book._tau[c] for c in x]
    # delta^p x * y = delta^p xy delta^e, which keeps inf p and sup p + len(x)
    # iff e = 0 and xy has as many factors as x
    xy = list(x)
    if _fold(book, xy, y.power, coded) != 0 or len(xy) != len(x):
        raise AssertionError("internal error: absorber failed verification")
    simples = book.simples
    return AbsorbabilityCertificate(y=y, x=GarsideElement(st, p, tuple(simples[c] for c in x)),
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
        raise CacheError(f"unparsable permutation {token!r}")
    if not st.is_simple_value(s):
        raise CacheError(f"{token!r} is not a simple element")
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
    except (OSError, UnicodeDecodeError) as exc:
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
    try:  # every refusal below is raised again naming the file
        chains = []
        for line in rows:
            chain = tuple(_parse_simple(st, tok) for tok in line.split("|"))
            if st.identity in chain or st.delta in chain:
                raise CacheError(f"entry {line!r} has a factor equal to delta or the identity")
            for a, b in zip(chain, chain[1:]):
                if not st.is_left_weighted(a, b):
                    raise CacheError(f"entry {line!r} is not left-weighted")
            if len(chain) > max_len:
                raise CacheError(f"entry {line!r} exceeds the block's length bound")
            chains.append(chain)
        keys = [(len(c), c) for c in chains]
        if keys != sorted(keys):
            raise CacheError("block entries out of order")
        if len(set(chains)) != len(chains):
            raise CacheError("duplicate block entries")
        for idx in range(0, len(chains), _SPOT_CHECK_STRIDE):
            if is_absorbable(GarsideElement(st, 0, chains[idx]), budget=budget) is None:
                raise CacheError(f"spot check failed for entry {idx}")
    except CacheError as exc:
        raise CacheError(f"cache: {path}: {exc}") from None
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
