"""The coset complex on G / <Delta>: vertices, exact adjacency, preferred
paths, and the constructive evidence behind its thin-triangle geometry.

Vertices are cosets g<Delta>, identified by the unique representative with
inf 0.  Two distinct vertices are joined when some representative difference
is a nontrivial proper simple, or an absorbable element.  Only two Delta
shifts can make the difference satisfy the inf-or-sup-zero requirement of
absorbability, so adjacency is exactly decidable.

distance_upper_bound is a bidirectional breadth-first search over a fixed
set of generators.  It runs on integer codes for simples, through one code
book per structure (GarsideStructure.code_book, built on the first search;
its slide table holds at most N^2 entries for N simples), and stops at the
first meeting of the two frontiers, the standard exit of bidirectional
search (Pohl, "Bi-directional search", 1971), which is exact here because
both sides grow one whole layer at a time.  One budget unit is one
expansion of a vertex by a move, as before; a budget that used to run out
in the final layer may now answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .absorb import (
    DEFAULT_BUDGET,
    AbsorbabilityCertificate,
    SearchBudgetExceeded,
    absorbs,
    enumerate_absorbable,
    is_absorbable,
)
from .element import (
    GarsideElement,
    _rmul_simple,
    complement,
    delta_power,
    delta_prefix,
    identity_element,
    invert,
    left_gcd,
    multiply,
    simple_element,
    tau_element,
)
from .structure import GarsideStructure
from .words import format_element


class WitnessError(Exception):
    """A witness the theory guarantees to exist failed to verify; fatal."""


@dataclass(frozen=True)
class ALVertex:
    """A vertex, carried by its distinguished inf-0 representative."""

    rep: GarsideElement

    def __post_init__(self) -> None:
        if self.rep.inf != 0:
            raise ValueError("vertex representative must have inf 0")

    @property
    def structure(self) -> GarsideStructure:
        return self.rep.structure

    def __repr__(self) -> str:
        word = format_element(self.rep)
        return f"ALVertex({word or '1'})"


def vertex_of(g: GarsideElement) -> ALVertex:
    """The vertex of the coset g<Delta>."""
    return ALVertex(multiply(g, delta_power(g.structure, -g.inf)))


def identity_vertex(st: GarsideStructure) -> ALVertex:
    return ALVertex(identity_element(st))


def act(g: GarsideElement, v: ALVertex) -> ALVertex:
    """Left action of the group on vertices."""
    return vertex_of(multiply(g, v.rep))


@dataclass(frozen=True)
class EdgeWitness:
    kind: str                 # "simple" or "absorbable"
    label: GarsideElement     # v_rep * label lies in w_rep * Delta^Z
    shift: int                # the Delta exponent applied to v^-1 w
    certificate: Optional[AbsorbabilityCertificate] = None


def _coset_difference(v: ALVertex, w: ALVertex) -> GarsideElement:
    if v.structure != w.structure:
        raise ValueError("vertices from different structures")
    return multiply(invert(v.rep), w.rep)


def are_adjacent(v: ALVertex, w: ALVertex,
                 budget: int = DEFAULT_BUDGET) -> Optional[EdgeWitness]:
    """Exact adjacency decision, with the witness when there is an edge.

    With z = v_rep^-1 w_rep, the label must be z Delta^k for some k, and the
    absorbability requirement pins k to -inf(z) or -sup(z); a simple label
    needs ell(z) = 1.  Checking those three candidates is a complete
    decision.  Budget errors from the absorbability search propagate: the
    answer is withheld, never guessed.
    """
    if v == w:
        raise ValueError("are_adjacent expects distinct vertices")
    st = v.structure
    z = _coset_difference(v, w)
    head = multiply(z, delta_power(st, -z.inf))
    if head.canonical_length == 1:
        return EdgeWitness("simple", head, -z.inf)
    cert = is_absorbable(head, budget=budget)
    if cert is not None:
        return EdgeWitness("absorbable", head, -z.inf, cert)
    tail = multiply(z, delta_power(st, -z.sup))
    cert = is_absorbable(tail, budget=budget)
    if cert is not None:
        return EdgeWitness("absorbable", tail, -z.sup, cert)
    return None


@dataclass(frozen=True)
class PreferredPath:
    vertices: tuple
    labels: tuple   # raw simples, the normal form factors of the target

    def __len__(self) -> int:
        return len(self.labels)


def preferred_path(v: ALVertex, w: ALVertex) -> PreferredPath:
    """The edge path spelled by the normal form of the translated target.

    Step i sits at the vertex of v_rep * (x and Delta^i), where x is the
    distinguished representative of (v_rep^-1 w_rep) Delta^Z; the i-th edge
    label is the i-th normal form factor of x.
    """
    st = v.structure
    z = _coset_difference(v, w)
    x = multiply(z, delta_power(st, -z.inf))
    # the running product v_rep * x_1 ... x_i, one cascade per step
    cur = v.rep
    vertices = [vertex_of(cur)]
    for f in x.factors:
        cur = _rmul_simple(st, cur, f)
        vertices.append(vertex_of(cur))
    return PreferredPath(tuple(vertices), x.factors)


def gcd_vertex(v: ALVertex, w: ALVertex) -> ALVertex:
    """The vertex of the left gcd of the two representatives; it lies on
    preferred_path(v, w)."""
    if v.structure != w.structure:
        raise ValueError("vertices from different structures")
    return vertex_of(left_gcd(v.rep, w.rep))


# ---------------------------------------------------------------------------
# restricted-generator BFS distance


def _generators(st: GarsideStructure, gen_len: int, budget, cache_path):
    gens = [simple_element(st, s) for s in st.nontrivial_simples()]
    gens.extend(enumerate_absorbable(st, gen_len, budget=budget,
                                     cache_path=cache_path))
    gens.extend([invert(g) for g in list(gens)])
    seen = set()
    out = []
    for g in gens:
        key = (g.power, g.factors)
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out


def distance_upper_bound(v: ALVertex, w: ALVertex, gen_len: int, radius: int,
                         budget: int = DEFAULT_BUDGET,
                         cache_path=None) -> Optional[int]:
    """BFS distance between v and w in the subgraph whose edges are labeled
    by nontrivial proper simples and absorbable elements of canonical length
    at most gen_len (closed under inversion).

    The result bounds the true distance from above; values 0 and 1 are
    exact.  Returns None when the subgraph distance exceeds radius.  The
    budget caps edge expansions, one per vertex and distinct vertex move
    (a generator taken up to right multiplication by Delta: every member
    of such a class leads to the same vertex); running out raises
    SearchBudgetExceeded.

    The search is bidirectional, on coded vertex keys.  A vertex is its
    representative's factor tuple, each factor replaced by its code in the
    structure's code book (built once per structure; its slide table holds
    at most N^2 entries for N simples).  Expanding u by a move m is one
    right cascade on codes, u * m = Delta^q F, and the neighbour vertex is
    tau^-q(F), factor by factor.

    The search stops at the first meeting of the two sides.  Before a
    layer is expanded no vertex is in both, so the subgraph distance
    exceeds depth_v + depth_w, and a meeting in that layer is a path of
    length depth + 1 + the other side's depth: the exact distance.  The
    bound therefore equals that of expanding every layer in full by every
    generator.  In the last layer the radius allows, new vertices are only
    looked up on the other side.  Because the search stops at the first
    meeting, it can answer within a budget that expanding the final layer
    in full would exceed, and that answer is exact.
    """
    if gen_len < 1 or radius < 1:
        raise ValueError("generator length and radius must be >= 1")
    if v == w:
        return 0
    st = v.structure
    if st != w.structure:
        raise ValueError("vertices from different structures")
    moves = _vertex_moves(st, gen_len, budget, cache_path)
    book = st.code_book()
    rmul, tau, code, period = book.rmul, book.tau, book.code, st.tau_period
    start = tuple([code[f] for f in v.rep.factors])
    target = tuple([code[f] for f in w.rep.factors])
    dist_v, dist_w = {start: 0}, {target: 0}
    front_v, front_w = [start], [target]
    depth_v = depth_w = 0
    expansions = 0
    while front_v and front_w and depth_v + depth_w < radius:
        if len(front_v) <= len(front_w):
            dist, other, front, depth = dist_v, dist_w, front_v, depth_v
        else:
            dist, other, front, depth = dist_w, dist_v, front_w, depth_w
        last = depth_v + depth_w + 1 == radius
        grown = []
        for u in front:
            for m in moves:
                expansions += 1
                if expansions > budget:
                    raise SearchBudgetExceeded(
                        f"distance search spent its {budget}-expansion budget "
                        f"at depth {depth_v} from the start and {depth_w} from "
                        f"the target, while expanding the "
                        f"{'start' if dist is dist_v else 'target'} side's "
                        f"frontier of size {len(front)}")
                fac = list(u)
                q = rmul(fac, m)
                if q % period:
                    for _ in range(-q % period):
                        fac = [tau[f] for f in fac]
                k = tuple(fac)
                if k in other:
                    return depth + 1 + other[k]
                if last or k in dist:
                    continue
                dist[k] = depth + 1
                grown.append(k)
        if dist is dist_v:
            front_v, depth_v = grown, depth_v + 1
        else:
            front_w, depth_w = grown, depth_w + 1
    return None


def _vertex_moves(st: GarsideStructure, gen_len: int, budget, cache_path) -> tuple:
    """The generators taken up to right multiplication by Delta, coded.

    vertex(u g Delta^k) = vertex(u g), so a generator g acts on vertices
    only through its own vertex: each becomes the inf-0 factor tuple of
    vertex_of(g), in generator order, without repeats, with every factor
    replaced by its code in st.code_book().  For gen_len 1 this halves the
    set, since s^-1 and the complement of s share a vertex.

    The set is built once per structure and generator length and kept on
    the structure, so a process pays for the enumeration, and reads or
    writes cache_path, only on the first call.  A build that raises
    (SearchBudgetExceeded, CacheError) stores nothing.  A later call gets
    the stored exact set whatever its budget, as a cache-file load does;
    its budget still caps the BFS expansions.
    """
    moves = st._move_sets.get(gen_len)
    if moves is None:
        gens = _generators(st, gen_len, budget, cache_path)
        code = st.code_book().code
        moves = tuple(dict.fromkeys(
            tuple([code[f] for f in vertex_of(g).rep.factors]) for g in gens))
        st._move_sets[gen_len] = moves
    return moves


# ---------------------------------------------------------------------------
# constructive proximity witnesses


@dataclass(frozen=True)
class SegmentWitness:
    index: int
    connector: GarsideElement   # y with (d and Delta^i) y = v_rep and Delta^i
    absorber: GarsideElement    # d and Delta^i


def _checked_connector(mid: GarsideElement, target: GarsideElement,
                       context: str) -> GarsideElement:
    y = multiply(invert(mid), target)
    if not y.is_identity and not absorbs(mid, y):
        raise WitnessError(f"{context}: connector failed absorption check")
    return y


def initial_segment_witnesses(v: ALVertex, w: ALVertex) -> tuple:
    """For d = gcd of the representatives and each i = 1..sup(d), the
    positive connector from the i-th step of the gcd path to the i-th step
    of the path toward v, verified absorbable by that step.  A verification
    failure is a fatal invariant breach, not a report entry.
    """
    d = left_gcd(v.rep, w.rep)
    out = []
    for i in range(1, d.sup + 1):
        mid = delta_prefix(d, i)
        y = _checked_connector(mid, delta_prefix(v.rep, i),
                               f"initial segment witness i={i}")
        out.append(SegmentWitness(i, y, mid))
    return tuple(out)


def overlap_length(v: ALVertex, w: ALVertex) -> int:
    """sup of the gcd of the complement of v's representative with the
    complement of a times tau^r(b), where v_rep = da, w_rep = db,
    d = gcd, r = sup(a).  Always at least r."""
    d = left_gcd(v.rep, w.rep)
    a = multiply(invert(d), v.rep)
    b = multiply(invert(d), w.rep)
    r = a.sup
    return left_gcd(complement(v.rep), multiply(complement(a), tau_element(b, r))).sup


@dataclass(frozen=True)
class ThinnessEntry:
    edge: str          # which preferred edge the covered vertex lies on
    index: int         # its step index along that edge
    start: ALVertex    # p, the covered vertex
    target: ALVertex   # q, a vertex on the union of the other two edges
    labels: tuple      # connecting edge labels as (direction, element)

    @property
    def length(self) -> int:
        return len(self.labels)

    def line(self) -> str:
        vias = " ".join(
            ("inv(" + (format_element(g) or "1") + ")") if sign < 0
            else (format_element(g) or "1")
            for sign, g in self.labels) or "-"
        p = format_element(self.start.rep) or "1"
        q = format_element(self.target.rep) or "1"
        return f"{p} -> {q} : len={self.length} via {vias}"


@dataclass(frozen=True)
class ThinnessReport:
    entries: tuple

    @property
    def max_gap(self) -> int:
        return max((e.length for e in self.entries), default=0)

    def lines(self) -> list:
        return [e.line() for e in self.entries]


def _corner_cover(corner: ALVertex, far: ALVertex, other: ALVertex,
                  path: PreferredPath, reverse: bool, edge_name: str):
    """Cover steps of the preferred edge corner->far (given as `path`,
    oriented per `reverse`) by vertices of the edge corner->other.

    Step i of the translated edge toward `far` is at distance <= 1 from
    step i of the gcd path, and so is step i of the edge toward `other`;
    both connectors are produced and verified.  Returns entries indexed by
    position along `path`.
    """
    x = _coset_difference(corner, far)
    x = multiply(x, delta_power(corner.structure, -x.inf))
    y_rep = _coset_difference(corner, other)
    y_rep = multiply(y_rep, delta_power(corner.structure, -y_rep.inf))
    d = left_gcd(x, y_rep)
    k = len(path)
    entries = {}
    for i in range(0, min(d.sup, k) + 1):
        pos = (k - i) if reverse else i
        p = path.vertices[pos]
        expect = vertex_of(multiply(corner.rep, delta_prefix(x, i)))
        if p != expect:
            raise WitnessError(
                f"{edge_name}: step {i} from the corner disagrees with the path")
        q = vertex_of(multiply(corner.rep, delta_prefix(y_rep, i)))
        if i == 0:
            entries[pos] = ThinnessEntry(edge_name, pos, p, q, ())
            continue
        mid = delta_prefix(d, i)
        y1 = _checked_connector(mid, delta_prefix(x, i),
                                f"{edge_name} step {i} toward far end")
        y2 = _checked_connector(mid, delta_prefix(y_rep, i),
                                f"{edge_name} step {i} toward third corner")
        if p == q:
            labels = ()
        elif y1.is_identity:
            labels = ((1, y2),)
        elif y2.is_identity:
            labels = ((-1, y1),)
        else:
            labels = ((-1, y1), (1, y2))
        entries[pos] = ThinnessEntry(edge_name, pos, p, q, labels)
    return entries, min(d.sup, k)


def triangle_thinness_report(u: ALVertex, v: ALVertex, w: ALVertex) -> ThinnessReport:
    """Constructive 2-thinness evidence for the preferred-path triangle.

    Every vertex on each edge is matched with a vertex on the union of the
    other two edges through a verified path of length at most 2 (built from
    gcd-path connectors at the two adjoining corners).  Incomplete coverage
    or a failed connector raises WitnessError: both would contradict the
    overlap bound that makes the triangle thin.
    """
    corners = {"u": u, "v": v, "w": w}
    all_entries = []
    for name_a, name_b in (("u", "v"), ("v", "w"), ("u", "w")):
        a, b = corners[name_a], corners[name_b]
        third = next(c for nm, c in corners.items() if nm not in (name_a, name_b))
        edge_name = name_a + name_b
        path = preferred_path(a, b)
        k = len(path)
        from_a, reach_a = _corner_cover(a, b, third, path, False, edge_name)
        from_b, reach_b = _corner_cover(b, a, third, path, True, edge_name)
        if reach_a + reach_b < k:
            raise WitnessError(
                f"edge {edge_name}: corner segments cover {reach_a}+{reach_b} < {k} steps")
        merged = dict(from_b)
        merged.update(from_a)   # prefer the corner-a witness on the overlap
        all_entries.extend(merged[i] for i in range(k + 1))
    return ThinnessReport(tuple(all_entries))


def adjacent_path_diameter_check(v: ALVertex, w: ALVertex,
                                 budget: int = DEFAULT_BUDGET) -> bool:
    """For an adjacent pair, test that every two vertices of the preferred
    path are equal or adjacent (the path has diameter 1)."""
    if are_adjacent(v, w, budget=budget) is None:
        raise ValueError("adjacent_path_diameter_check expects an adjacent pair")
    path = preferred_path(v, w)
    verts = path.vertices
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if verts[i] == verts[j]:
                continue
            if are_adjacent(verts[i], verts[j], budget=budget) is None:
                return False
    return True
