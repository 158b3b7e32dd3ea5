"""The three seeded workloads: input streams, queries and answer checks.

A query is plain data, a tuple whose first entry names its kind, built
from the seed with stdlib `random` and nothing else: Delta powers,
permutation tuples, or fixed words.  `run_query` turns that data into
library objects and makes the one library call the query stands for, as a
caller would.  `check_answer` then tests the answer; it never feeds
anything back into the stream, so the stream is a function of the seed
alone.

Each stream is cut into blocks with a fixed mix of query classes, shuffled
within the block.  A fixed mix keeps the share of each class the same in
every run whatever the seed, which keeps throughput and percentiles steady
across seeds.  The classes whose cost runs from a millisecond to over a
second, where a few draws from the slow end would decide a run's
throughput and 95th percentile, come from pools: inputs drawn once from a
fixed pool seed, shared by every seed, and taken a few per block in a
fixed rotation.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random

import perms

WORKLOADS = ("absorb-decide", "geodesic-long", "complex-bfs")

DEFAULT_SEED = 1
# Never used while tuning the benchmark; re-check a claimed gain on it.
HELD_OUT_SEED = 20261017

# The 4-strand distance witness x4, spelled s2 | s2 s1 s3 | s1 s3 s2 s1 s3 |
# s1 s3 s2 s1 s3 | s1 s3 s2 | s2.  Rigid, so its powers are its factors
# repeated; the queries check that garside_al.distance_witness(4) agrees.
X4 = ((1, 3, 2, 4), (2, 4, 1, 3), (4, 2, 3, 1), (4, 2, 3, 1), (3, 1, 4, 2),
      (1, 3, 2, 4))

# The tube-preserving B5 braid of the special suite's orbit probe: the
# worked tube example times the simple (4, 1, 2, 3, 5).
TUBE_WORD = "s1 s2 s1 s4 s3 s2 s1  s1 s2 s1 s3 s2 s4  s4 s3 s2 s1"
TUBE_TWIST = (4, 1, 2, 3, 5)

BFS_GEN_LEN = 2
BFS_RADIUS = 5
PROBE_GEN_LEN = 1
PROBE_RADIUS = 3
PROBE_STEPS = 3
PROBE_TUBE_BOUND = 9

WARMUP_SEED = "warm-up"


# ---------------------------------------------------------------------------
# input streams


def _absorb_block(rng, b, fixed):
    items = []
    for n, lengths in ((4, range(2, 7)), (5, (2, 3))):
        for length in lengths:
            for _ in range(6):
                items.append([n, perms.random_chain(rng, n, length)])
    # exactly a quarter of the random inputs are inverted (sup = 0)
    for i in rng.sample(range(len(items)), len(items) // 4):
        items[i].append(True)
    queries = [("absorb", it[0], it[1], len(it) == 3) for it in items]
    queries.extend(fixed)
    rng.shuffle(queries)
    return queries


def _absorb_fixed():
    """Per block: two pooled B5 inputs of length 4, two pooled B6 inputs of
    length 2, and one heavy entry in rotation (a pooled B5 input of length
    5, a pooled B6 input of length 3, or x4, x5 or a complement)."""
    pool_rng = random.Random("absorb-decide/pool")

    def pool(n, length, size):
        return [("absorb", n, perms.random_chain(pool_rng, n, length), i % 4 == 3)
                for i in range(size)]

    b5_4, b6_2 = pool(5, 4, 32), pool(6, 2, 32)
    heavy = pool(5, 5, 8) + pool(6, 3, 4)
    heavy += [("witness", n, comp) for n in (4, 5) for comp in (False, True)]
    return [[b5_4[2 * i], b5_4[2 * i + 1], b6_2[2 * i], b6_2[2 * i + 1], heavy[i]]
            for i in range(len(heavy))]


def _scheduled(i, step, lo, hi):
    """Entry i of a low-discrepancy walk over lo..hi (step irrational)."""
    return lo + int((i * step) % 1.0 * (hi - lo + 1))


def _vertex_pair(rng, n, la, lb, shared):
    prefix = perms.random_chain(rng, n, shared)
    last = prefix[-1] if prefix else None
    while True:
        ta = perms.random_chain(rng, n, la - shared, after=last)
        tb = perms.random_chain(rng, n, lb - shared, after=last)
        if ta != tb:
            return prefix, ta, tb


def _triangle(rng, n, prefix_len, tail_lo, tail_hi):
    prefix = perms.random_chain(rng, n, prefix_len)
    while True:
        tails = tuple(perms.random_chain(rng, n, rng.randint(tail_lo, tail_hi),
                                         after=prefix[-1]) for _ in range(3))
        if len(set(tails)) == 3:
            return prefix, tails


def _power_instance(rng):
    lam = rng.randint(2, 4)
    noise = perms.random_chain(rng, 4, rng.randint(1, 3), after=X4[-1])
    return lam, noise


def _geodesic_block(rng, b, fixed):
    # Path and gcd costs grow with the square of the lengths, so lengths and
    # shared-prefix lengths follow a fixed schedule over the blocks, the same
    # for every seed; only the permutations are random.
    queries = []
    for j, (n, lo, hi) in enumerate(((6, 20, 60), (6, 20, 60), (8, 15, 40), (8, 15, 40))):
        i = 2 * b + j % 2
        la = _scheduled(i, 0.6180339887, lo, hi)
        lb = _scheduled(i, 0.4142135624, lo, hi)
        shared = _scheduled(i, 0.7320508076, 0, min(la, lb) // 2)
        pair = _vertex_pair(rng, n, la, lb, shared)
        for kind in ("path", "gcd", "overlap"):
            queries.append((kind, n, *pair))
    queries.append(("thin", 4, *_triangle(rng, 4, rng.randint(2, 6), 2, 4)))
    queries.append(("thin", 5, *_triangle(rng, 5, rng.randint(2, 4), 2, 3)))
    for kind in ("initseg", "initseg", "powdiv", "powdiv"):
        queries.append((kind, *_power_instance(rng)))
    queries.extend(fixed)
    rng.shuffle(queries)
    return queries


def _bfs_query(rng, steps):
    v = perms.random_chain(rng, 4, rng.randint(1, 4))
    return ("bfs", v, tuple(perms.random_proper_simple(rng, 4) for _ in range(steps)))


def _complex_block(rng, b, fixed):
    queries = [_bfs_query(rng, steps) for steps in (2, 2, 2, 3, 3, 3)]
    for i in range(8):
        v = perms.random_chain(rng, 4, rng.randint(1, 4))
        if i % 2 == 0:
            queries.append(("adj", v, v + (perms.random_proper_simple(rng, 4),), True))
        else:
            while True:
                w = perms.random_chain(rng, 4, rng.randint(1, 4))
                if w != v:
                    break
            queries.append(("adj", v, w, False))
    queries.extend(fixed)
    rng.shuffle(queries)
    return queries


def _complex_fixed():
    """Per block: two pooled BFS queries to a target four simples away and
    two pooled B4 orbit probes; every eighth block, the special suite's
    tube-preserving B5 probe.  The pooled queries are the ones whose cost
    runs from milliseconds to seconds."""
    pool_rng = random.Random("complex-bfs/pool")
    far = [_bfs_query(pool_rng, 4) for _ in range(32)]
    probes = [("probe4", perms.random_chain(pool_rng, 4, pool_rng.randint(1, 3)))
              for _ in range(32)]
    return [far[2 * i:2 * i + 2] + probes[2 * i:2 * i + 2] + [("probe5",)] * (i % 8 == 0)
            for i in range(16)]


# workload: (block maker, rotation of fixed entries, warm-up entries that
# the random part of a block lacks)
_BLOCKS = {
    "absorb-decide": (_absorb_block, _absorb_fixed,
                      lambda rng: [("absorb", 6, perms.random_chain(rng, 6, 2), False)]),
    "geodesic-long": (_geodesic_block, lambda: [[]], lambda rng: []),
    "complex-bfs": (_complex_block, _complex_fixed,
                    lambda rng: [_bfs_query(rng, 4), ("probe4", perms.random_chain(rng, 4, 2))]),
}


def stream(workload: str, seed):
    """The endless query stream of a workload for one seed."""
    make_block, make_fixed, _ = _BLOCKS[workload]
    rotation = make_fixed()
    rng = random.Random(f"{workload}/{seed}")
    b = 0
    while True:
        yield from make_block(rng, b, rotation[b % len(rotation)])
        b += 1


def take(workload: str, seed, count: int) -> list:
    return list(itertools.islice(stream(workload, seed), count))


def warmup_queries(workload: str) -> list:
    """One query of each kind (of each strand count, for absorb queries),
    drawn from the warm-up seed: a block without its pooled entries, plus
    fresh inputs of the classes only the pools hold."""
    make_block, _, extra = _BLOCKS[workload]
    rng = random.Random(f"{workload}/{WARMUP_SEED}")
    out = {}
    for q in make_block(rng, 0, extra(rng)):
        out.setdefault((q[0], q[1] if q[0] == "absorb" else None), q)
    return list(out.values())


# ---------------------------------------------------------------------------
# running a query


class Context:
    """What queries share within one process: the library and a work dir."""

    def __init__(self, g, workdir: str) -> None:
        self.g = g
        self.cache_path = os.path.join(workdir, "absorbable-cache.txt")

    def element(self, n, factors):
        g = self.g
        return g.make_element(g.braid_structure(n), 0, factors)

    def vertex(self, n, factors):
        return self.g.vertex_of(self.element(n, factors))


def run_query(ctx: Context, q):
    """Make the library call that q stands for; returns the raw answer."""
    g = ctx.g
    kind = q[0]
    if kind == "absorb":
        _, n, factors, inverted = q
        y = ctx.element(n, factors)
        if inverted:
            y = g.invert(y)
        return y, g.is_absorbable(y)
    if kind == "witness":
        _, n, comp = q
        x = g.distance_witness(n)
        if comp:
            x = g.complement(x)
        return x, g.is_absorbable(x)
    if kind in ("path", "gcd", "overlap"):
        _, n, prefix, ta, tb = q
        v, w = ctx.vertex(n, prefix + ta), ctx.vertex(n, prefix + tb)
        if kind == "path":
            return g.preferred_path(v, w)
        if kind == "gcd":
            return g.gcd_vertex(v, w)
        return g.overlap_length(v, w)
    if kind == "thin":
        _, n, prefix, tails = q
        u, v, w = (ctx.vertex(n, prefix + t) for t in tails)
        return g.triangle_thinness_report(u, v, w)
    if kind in ("initseg", "powdiv"):
        _, lam, noise = q
        x4 = g.distance_witness(4)
        z = g.multiply(g.power(x4, lam), ctx.element(4, noise))
        if kind == "initseg":
            return x4, g.check_initial_segment(x4, z)
        return x4, g.max_power_dividing(x4, z)
    if kind == "bfs":
        _, v, steps = q
        return g.distance_upper_bound(ctx.vertex(4, v), ctx.vertex(4, v + steps),
                                      BFS_GEN_LEN, BFS_RADIUS,
                                      cache_path=ctx.cache_path)
    if kind == "adj":
        _, v, w, _ = q
        return g.are_adjacent(ctx.vertex(4, v), ctx.vertex(4, w))
    if kind == "probe4":
        return g.orbit_diameter_probe(ctx.element(4, q[1]), PROBE_STEPS,
                                      PROBE_GEN_LEN, PROBE_RADIUS)
    if kind == "probe5":
        b5 = g.braid_structure(5)
        keeper = g.multiply(g.parse_word(b5, TUBE_WORD), ctx.element(5, (TUBE_TWIST,)))
        return g.orbit_diameter_probe(keeper, PROBE_STEPS, PROBE_GEN_LEN,
                                      PROBE_RADIUS, curve=g.RoundCurve(1, 3))
    raise ValueError(f"unknown query kind {kind!r}")


# ---------------------------------------------------------------------------
# checking an answer


def _nf(el, n, what):
    """Invariant violations of a library element, read as plain data."""
    return [f"{what}: {m}" for m in
            perms.normal_form_violations(el.power, tuple(el.factors), n)]


def _certificate_problems(g, y, cert, n, what):
    bad = _nf(cert.x, n, f"{what} certificate")
    if cert.x.inf != 0:
        bad.append(f"{what} certificate has inf {cert.x.inf}, not 0")
    if cert.x.sup != y.canonical_length:
        bad.append(f"{what} certificate has sup {cert.x.sup}, not ell(y) = "
                   f"{y.canonical_length}")
    if not g.absorbs(cert.x, y):
        bad.append(f"{what} certificate does not absorb its input")
    return bad


def check_answer(g, q, answer) -> list:
    """Reasons the answer to q is wrong; empty when every check passes."""
    kind = q[0]
    bad = []
    if kind in ("absorb", "witness"):
        y, cert = answer
        n = q[1]
        bad += _nf(y, n, "input")
        if kind == "absorb" and not q[3] and (y.power, y.factors) != (0, q[2]):
            bad.append("a left-weighted chain did not normalize to itself")
        if kind == "absorb" and q[3] and (y.sup, y.canonical_length) != (0, len(q[2])):
            bad.append("an inverted chain does not have sup 0 and the same length")
        if kind == "witness" and cert is not None:
            bad.append("a distance witness or its complement was declared absorbable")
        if cert is not None:
            bad += _certificate_problems(g, y, cert, n, "absorber")
    elif kind == "path":
        _, n, prefix, ta, tb = q
        bad += [f"path labels: {m}" for m in
                perms.normal_form_violations(0, tuple(answer.labels), n)]
        if len(answer.vertices) != len(answer.labels) + 1:
            bad.append("path has the wrong number of vertices")
        elif (answer.vertices[0].rep.factors, answer.vertices[-1].rep.factors) != (
                prefix + ta, prefix + tb):
            bad.append("path does not run between its endpoints")
    elif kind == "gcd":
        _, n, prefix, ta, tb = q
        rep = answer.rep
        bad += _nf(rep, n, "gcd vertex")
        # the shared chain left-divides the gcd, and both representatives
        # begin with it, so the gcd's normal form begins with it too
        if rep.power != 0 or rep.factors[:len(prefix)] != prefix:
            bad.append("gcd vertex does not extend the shared prefix")
    elif kind == "overlap":
        if not isinstance(answer, int) or answer < 0:
            bad.append(f"overlap length {answer!r} is not a nonnegative integer")
    elif kind == "thin":
        n = q[1]
        if answer.max_gap > 2:
            bad.append(f"triangle max gap {answer.max_gap} exceeds 2")
        for e in answer.entries:
            bad += _nf(e.start.rep, n, "thinness start")
            bad += _nf(e.target.rep, n, "thinness target")
    elif kind in ("initseg", "powdiv"):
        x4, got = answer
        if (x4.power, x4.factors) != (0, X4):
            bad.append("distance_witness(4) differs from the fixed spelling")
        if kind == "initseg" and not got.ok:
            bad.append("initial segment power check failed")
        if kind == "powdiv" and got != q[1]:
            bad.append(f"max_power_dividing gave {got}, expected {q[1]}")
    elif kind == "bfs":
        bound = answer
        if bound is None or not 0 <= bound <= len(q[2]):
            bad.append(f"bfs bound {bound!r} exceeds the {len(q[2])} simples used")
    elif kind == "adj":
        wit = answer
        if q[3] and wit is None:
            bad.append("pair one simple apart got no edge witness")
        if wit is not None:
            bad += _nf(wit.label, 4, "edge label")
            if wit.kind == "simple" and wit.label.canonical_length != 1:
                bad.append("simple edge label has canonical length != 1")
            if wit.kind == "absorbable":
                if wit.certificate is None:
                    bad.append("absorbable edge without a certificate")
                else:
                    bad += _certificate_problems(g, wit.label, wit.certificate,
                                                 4, "edge")
    elif kind in ("probe4", "probe5"):
        if [e.power for e in answer] != list(range(1, PROBE_STEPS + 1)):
            bad.append("probe entries do not cover the powers 1..steps")
        for e in answer:
            if e.search_bound is not None and not 0 <= e.search_bound <= PROBE_RADIUS:
                bad.append(f"probe search bound {e.search_bound} exceeds the radius")
            if kind == "probe5" and (e.upper_bound is None
                                     or e.upper_bound > PROBE_TUBE_BOUND):
                bad.append(f"tube-preserving probe bound {e.upper_bound} exceeds "
                           f"{PROBE_TUBE_BOUND}")
    return bad


def _answer_key(q, answer):
    """The part of an answer that a faster library must leave unchanged."""
    kind = q[0]
    if kind in ("absorb", "witness"):
        cert = answer[1]
        return None if cert is None else (cert.x.power, cert.x.factors)
    if kind == "path":
        return answer.labels
    if kind == "gcd":
        return (answer.rep.power, answer.rep.factors)
    if kind == "thin":
        return tuple(answer.lines())
    if kind == "initseg":
        return tuple(answer[1].lines())
    if kind == "powdiv":
        return answer[1]
    if kind == "adj":
        if answer is None:
            return None
        cert = answer.certificate
        return (answer.kind, answer.label.power, answer.label.factors, answer.shift,
                None if cert is None else (cert.x.power, cert.x.factors))
    if kind in ("probe4", "probe5"):
        return tuple((e.power, e.upper_bound, e.search_bound, e.decomposition_bound)
                     for e in answer)
    return answer


def answer_digest(q, answer) -> str:
    """A short digest of the answer; search statistics are left out."""
    text = repr((q[0], _answer_key(q, answer)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
