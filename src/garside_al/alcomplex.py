"""The coset complex on G / <Delta>: vertices, exact adjacency, preferred
paths, and the constructive evidence behind its thin-triangle geometry.

Vertices are cosets g<Delta>, identified by the unique representative with
inf 0.  Two distinct vertices are joined when some representative difference
is a nontrivial proper simple, or an absorbable element.  Only two Delta
shifts can make the difference satisfy the inf-or-sup-zero requirement of
absorbability, so adjacency is exactly decidable.

distance_upper_bound first brackets the distance by canonical length: with
z = v_rep^-1 w_rep and L the generator length, it lies in
[ceil(ell(z) / L), ell(z)], because ell is subadditive (El-Rifai and
Morton, 1994).  For L = 1 the bracket is one point and nothing is searched.
Otherwise the open part of the bracket is searched: a bidirectional
breadth-first search over a fixed set of generators.  The group acts on
the complex by isometries on the left (edges join u and u x for a label
x), so the search runs from the identity vertex to the vertex of z
instead of from v to w: the identity's neighbours are the moves
themselves, and its layer costs no cascade.  It runs on integer codes for
simples, through one code book per structure (GarsideStructure.code_book,
built on the first search; its slide rows hold at most N^2 entries for N
simples), and stops at the first meeting of the two frontiers, the
standard exit of bidirectional search (Pohl, "Bi-directional search",
1971), which is exact here because both sides grow one whole layer at a
time.  One budget unit is one expansion of a vertex by a move, and the
budget caps each search run.

A vertex is a frozen, slotted ALVertex.  The public ALVertex(rep) refuses a
representative whose inf is not 0; vertex_of, identity_vertex and
_path_vertices build theirs with the trusted _vertex(rep), which checks
nothing, from inf-0 normal forms the kernel made (element._element).  Both
give the dataclass's own __eq__, __hash__ and __repr__.  With slots there
is no __dict__ and no weak reference to a vertex; nothing in the package
pickles or weak-references one.  No vertex built here is longer than an
element the kernel has already checked against the size bound (see
_path_vertices).
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
    _descent,
    _element,
    _fold,
    complement,
    delta_power,
    identity_element,
    invert,
    left_gcd,
    multiply,
    simple_element,
)
from .structure import GarsideStructure
from .words import format_element


class WitnessError(Exception):
    """A witness the theory guarantees to exist failed to verify; fatal."""


@dataclass(frozen=True, slots=True)
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
        return f"ALVertex({format_element(self.rep)})"


_new = object.__new__
_set_rep = ALVertex.rep.__set__


def _vertex(rep: GarsideElement) -> ALVertex:
    """The trusted constructor: the vertex of an inf-0 representative the
    kernel made.  It sets the slot through its descriptor and checks
    nothing."""
    v = _new(ALVertex)
    _set_rep(v, rep)
    return v


def vertex_of(g: GarsideElement) -> ALVertex:
    """The vertex of the coset g<Delta>: delta^p F delta^-p = tau^-p(F), tau(F) at odd p."""
    st, p = g.structure, g.power
    if not p & 1:
        return _vertex(g if p == 0 else _element(st, 0, g.factors))
    return _vertex(_element(st, 0, tuple([st._tau[f] for f in g.factors])))


def identity_vertex(st: GarsideStructure) -> ALVertex:
    return _vertex(identity_element(st))


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
    head = vertex_of(z).rep
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


def _path_vertices(v: ALVertex, x: GarsideElement, count: int) -> list:
    """The first count vertices of the path from v spelled by the normal
    form factors of x: entry i is the vertex of v_rep * x_1 ... x_i.

    The running product v_rep * x_1 ... x_i is kept as L * Delta^e; L is
    that step's vertex.  Each step is one cascade (element._fold) until a
    factor lands as it stands, that is L grows by tau^e(x_i) and nothing
    else moves.  x is a normal form, so every later factor lands too (see
    element._fold), and each later vertex appends the next twisted factor
    with no cascade.  preferred_path climbs from the gcd vertex along the
    cofactors, so each L left-divides v_rep or w_rep and e stays 0; the
    thinness report walks x = vertex_of(v_rep^-1 w_rep) from v, where L is
    a left divisor of v_rep up to the gcd vertex and of w_rep after it.
    Either way no L is longer than the longer end, and the size bound
    needs no check here.
    """
    st, tau = v.structure, v.structure._tau
    fac = list(v.rep.factors)
    e = 0
    vertices = [v]
    steps = x.factors[:count - 1]
    for i, f in enumerate(steps):
        j = len(fac)
        e = _fold(st, fac, e, (f,))
        vertices.append(_vertex(_element(st, 0, tuple(fac))))
        if len(fac) > j and fac[j] == (tau[f] if e & 1 else f):
            # the list grew by one and ends in tau^e(f): a first slide
            # would have put a proper right divisor of it there or deleted
            # it, and a delta exit shortens the list, so f landed as it stands
            for f in steps[i + 1:]:
                fac.append(tau[f] if e & 1 else f)
                vertices.append(_vertex(_element(st, 0, tuple(fac))))
            break
    return vertices


def _split(v: ALVertex, w: ALVertex) -> tuple:
    """(d, N, D): the left gcd of the representatives and its cofactors,
    v_rep = d N and w_rep = d D, from one lattice descent
    (element._descent).  All three have inf 0, as both representatives
    do, and N^-1 D is the reduced fraction of v_rep^-1 w_rep."""
    if v.structure != w.structure:
        raise ValueError("vertices from different structures")
    return _descent(v.rep, w.rep)


def preferred_path(v: ALVertex, w: ALVertex) -> PreferredPath:
    """The edge path spelled by the normal form of the translated target.

    Step i sits at the vertex of v_rep * (x and Delta^i), where x is the
    distinguished representative of (v_rep^-1 w_rep) Delta^Z; the i-th edge
    label is the i-th normal form factor of x.

    Both are read off the gcd d and its cofactors N and D (_split).  The
    fraction N^-1 D with N ^ D = 1 is a normal form as it stands
    (Thurston, in Epstein et al., Ch. 9), so the product lands at its
    first factor, and x is its vertex.  Its first sup(N) factors are those
    of N^-1 and the rest those of D, so the path descends from v to the
    gcd vertex through the vertices d (N and Delta^j), j = sup(N) down to
    0, and climbs along D to w.  Both halves are _path_vertices from the
    gcd vertex, along N read backwards and along D: each step climbs along
    a normal form, so after the first landing every vertex is an append,
    and no step is a cascade that shortens the list.
    """
    d, n, q = _split(v, w)
    x = vertex_of(multiply(invert(n), q)).rep
    g = _vertex(d)
    down = _path_vertices(g, n, len(n.factors) + 1)
    down.reverse()
    down += _path_vertices(g, q, len(q.factors) + 1)[1:]
    return PreferredPath(tuple(down), x.factors)


def gcd_vertex(v: ALVertex, w: ALVertex) -> ALVertex:
    """The vertex of the left gcd of the two representatives; it lies on
    preferred_path(v, w)."""
    return _vertex(_split(v, w)[0])


# ---------------------------------------------------------------------------
# restricted-generator BFS distance


def _generators(st: GarsideStructure, gen_len: int, budget, cache_path):
    gens = [simple_element(st, s) for s in st.nontrivial_simples()]
    gens.extend(enumerate_absorbable(st, gen_len, budget=budget,
                                     cache_path=cache_path))
    gens.extend([invert(g) for g in list(gens)])
    return gens  # repeats included: _vertex_moves keeps each vertex once


def distance_upper_bound(v: ALVertex, w: ALVertex, gen_len: int, radius: int,
                         budget: int = DEFAULT_BUDGET,
                         cache_path=None) -> Optional[int]:
    """BFS distance between v and w in the subgraph whose edges are labeled
    by nontrivial proper simples and absorbable elements of canonical length
    at most gen_len (closed under inversion).

    The result bounds the true distance from above; values 0 and 1 are
    exact.  Returns None when the subgraph distance exceeds radius.

    Canonical length brackets the answer before any search.  With
    z = v_rep^-1 w_rep and r = ell(z), the normal form factors of z are
    moves, so the subgraph distance is at most r; every generator has
    ell <= gen_len, Delta twists keep ell, and ell is subadditive, so a
    path of length d has r <= d * gen_len.  The distance therefore lies in
    [lb, r] with lb = ceil(r / gen_len).  When lb > radius the answer is
    None, and when lb == r (always for gen_len 1) it is r: neither case
    builds a move set or code book, reads cache_path or spends budget.
    Otherwise the search below runs with radius min(radius, r - 1), and
    when it finds nothing the answer is r if r <= radius, else None.

    The budget caps the search's edge expansions, one per vertex and
    distinct vertex move (a generator taken up to right multiplication by
    Delta: every member of such a class leads to the same vertex); running
    out raises SearchBudgetExceeded.

    The search is bidirectional, on coded vertex keys.  A vertex is its
    representative's factor tuple, each factor replaced by its code in the
    structure's code book (built once per structure; its slide rows hold
    at most N^2 entries for N simples).  Expanding u by a move m is the
    one right cascade, element._fold, run on the code book:
    u * m = F * Delta^q, and F is the neighbour vertex.

    It runs from the identity vertex () to T = vertex_of(z), not from v to
    w.  Left multiplication by v_rep maps vertices to vertices and edges
    to edges (an edge joins u and u x for a label x), so it is an isometry
    taking () to v and T to w, and every distance is that of the
    translated pair.  The identity's neighbour by m is m itself, so the
    move set is the start side's first layer: a target among the moves
    answers 1 with one lookup, and the search goes on from depth 1 with no
    cascade.  That layer still costs one budget unit per move, in the
    stored order, as if () were expanded move by move.

    The target is the smaller coded tuple of T and tau(T): tau is an
    automorphism of the complex fixing () and mapping the move set onto
    itself, so both are as far from ().  A translate (g v, g w), with
    g v_rep = X Delta^a, has tau^a(z) Delta^c in place of z, so the same
    pair {T, tau(T)}.  The search reads nothing else of v and w, so every
    translate answers, or runs out of budget, at the same budget.

    The search stops at the first meeting of the two sides.  Before a
    layer is expanded no vertex is in both, so the subgraph distance
    exceeds depth_v + depth_w, and a meeting in that layer is a path of
    length depth + 1 + the other side's depth: the exact distance.  The
    bound therefore equals that of expanding every layer in full by every
    generator.  In the last layer the search radius allows, new vertices
    are only looked up on the other side.  Because the search stops at the
    first meeting, it can answer within a budget that expanding the final
    layer in full would exceed, and that answer is exact.
    """
    if gen_len < 1 or radius < 1:
        raise ValueError("generator length and radius must be >= 1")
    z = _coset_difference(v, w)
    r = z.canonical_length
    lb = -(-r // gen_len)
    if lb > radius:
        return None
    if lb == r:
        return r
    cap = min(radius, r - 1)
    st = v.structure
    moves = _vertex_moves(st, gen_len, budget, cache_path)
    book = st.code_book()
    code, tau = book.code, book._tau
    target = tuple([code[f] for f in vertex_of(z).rep.factors])
    target = min(target, tuple([tau[f] for f in target]))
    # the start side's first layer: () expanded by every move, in order
    if target in moves and (len(moves) <= budget or list(moves).index(target) < budget):
        return 1
    if len(moves) > budget:
        raise _budget_exceeded(budget, 0, 0, "start", 1)
    expansions = len(moves)
    dist_v, dist_w = moves | {(): 0}, {target: 0}
    front_v, front_w = moves, [target]
    depth_v, depth_w = 1, 0
    while front_v and front_w and depth_v + depth_w < cap:
        if len(front_v) <= len(front_w):
            dist, other, front, depth = dist_v, dist_w, front_v, depth_v
        else:
            dist, other, front, depth = dist_w, dist_v, front_w, depth_w
        last = depth_v + depth_w + 1 == cap
        grown = []
        for u in front:
            for m in moves:
                expansions += 1
                if expansions > budget:
                    raise _budget_exceeded(budget, depth_v, depth_w,
                                           "start" if dist is dist_v else "target",
                                           len(front))
                fac = list(u)
                _fold(book, fac, 0, m)
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
    return r if r <= radius else None


def _budget_exceeded(budget, depth_v, depth_w, side, size) -> SearchBudgetExceeded:
    return SearchBudgetExceeded(
        f"distance search spent its {budget}-expansion budget at depth {depth_v} "
        f"from the start and {depth_w} from the target, while expanding the "
        f"{side} side's frontier of size {size}")


def _vertex_moves(st: GarsideStructure, gen_len: int, budget, cache_path) -> dict:
    """The generators taken up to right multiplication by Delta, coded.

    vertex(u g Delta^k) = vertex(u g), so a generator g acts on vertices
    only through its own vertex: each becomes the inf-0 factor tuple of
    vertex_of(g), in generator order, without repeats, with every factor
    replaced by its code in st.code_book().  The moves are the keys of an
    insertion-ordered dict that maps each to 1, its distance from the
    identity vertex: the distance search's first layer as it stands.

    distance_upper_bound asks for a move set only when its canonical-length
    bracket leaves a search to run, which never happens at gen_len 1.  The
    set is built once per structure and generator length and kept on the
    structure, so a process pays for the enumeration, and reads or writes
    cache_path, only on the first call.  A build that raises
    (SearchBudgetExceeded, CacheError) stores nothing.  A later call gets
    the stored exact set whatever its budget, as a cache-file load does;
    its budget still caps the BFS expansions.
    """
    moves = st._move_sets.get(gen_len)
    if moves is None:
        gens = _generators(st, gen_len, budget, cache_path)
        code = st.code_book().code
        moves = dict.fromkeys(
            (tuple([code[f] for f in vertex_of(g).rep.factors]) for g in gens), 1)
        st._move_sets[gen_len] = moves
    return moves


# ---------------------------------------------------------------------------
# constructive proximity witnesses


@dataclass(frozen=True)
class SegmentWitness:
    index: int
    connector: GarsideElement   # y with (d and Delta^i) y = v_rep and Delta^i
    absorber: GarsideElement    # d and Delta^i


def _gcd_walk(x: GarsideElement, y: GarsideElement, context: str) -> list:
    """The gcd path from the identity toward inf-0 representatives x and y.

    With d = gcd(x, y), step i = 0..sup(d) is (m, cx, cy), where
    m = d and Delta^i is the i-th vertex of the gcd path and m cx = x and
    Delta^i, m cy = y and Delta^i.  d, x and y have inf 0, so each of the
    three prefixes is the first i factors of its normal form.  Each
    connector that is not the identity is verified absorbable by m; a
    failure is a fatal invariant breach.  d left-divides x and y, so the
    walk never runs past either of them.  Step 0 is the identity step.

    A connector whose prefix equals m's, as most do, is the one identity
    of the walk, and no prefix element is built for it.
    """
    d = left_gcd(x, y)
    st = d.structure
    one = identity_element(st)
    steps = []
    for i in range(d.sup + 1):
        mf = d.factors[:i]
        m = _element(st, 0, mf)
        step = [m]
        for side, target in (("x", x), ("y", y)):
            tf = target.factors[:i]
            if tf == mf:
                step.append(one)
                continue
            c = multiply(invert(m), _element(st, 0, tf))  # not the identity
            if not absorbs(m, c):
                raise WitnessError(f"{context} step {i} toward {side}: "
                                   "connector failed absorption check")
            step.append(c)
        steps.append(tuple(step))
    return steps


def initial_segment_witnesses(v: ALVertex, w: ALVertex) -> tuple:
    """For d = gcd of the representatives and each i = 1..sup(d), the
    positive connector from the i-th step of the gcd path to the i-th step
    of the path toward v, verified absorbable by that step: the m and cx
    of _gcd_walk's step i.  A verification failure is a fatal invariant
    breach, not a report entry.
    """
    steps = _gcd_walk(v.rep, w.rep, "initial segment witness")
    return tuple(SegmentWitness(i, cx, m)
                 for i, (m, cx, _) in enumerate(steps) if i)


def overlap_length(v: ALVertex, w: ALVertex) -> int:
    """sup of the gcd of X = complement(v_rep) and Y = complement(a) tau^r(b),
    for the reduced fraction v_rep^-1 w_rep = a^-1 b, r = sup(a); at least r.
    a is the cofactor N of the gcd descent (_split), so r = sup(N).
    With s = sup(v_rep), X^-1 Y = Delta^(r-s) tau^r(w_rep) is a normal form,
    so the gcd is X if m = s - r <= 0, else X Delta^-m tau^r(w_1 ... w_m),
    whose fold appends the rest of that normal form once a factor lands
    as it stands (element._fold)."""
    st, s = v.structure, len(v.rep.factors)
    r = _split(v, w)[1].sup
    if s <= r:
        return s
    fac, head = list(complement(v.rep).factors), w.rep.factors[:s - r]
    return _fold(st, fac, r - s, [st._tau[f] for f in head] if r & 1 else head,
                 True) + len(fac)


@dataclass(frozen=True)
class ThinnessEntry:
    edge: str          # which preferred edge the covered vertex lies on
    index: int         # its step index along that edge
    start: ALVertex    # p, the covered vertex
    target: ALVertex   # q, a vertex on the union of the other two edges
    labels: tuple      # (direction, element) steps from start.rep * Delta^j, some j

    @property
    def length(self) -> int:
        return len(self.labels)

    def line(self) -> str:
        vias = " ".join(
            f"inv({format_element(g)})" if sign < 0 else format_element(g)
            for sign, g in self.labels) or "-"
        p = format_element(self.start.rep)
        q = format_element(self.target.rep)
        return f"{p} -> {q} : len={self.length} via {vias}"


@dataclass(frozen=True)
class ThinnessReport:
    entries: tuple

    @property
    def max_gap(self) -> int:
        return max((e.length for e in self.entries), default=0)

    def lines(self) -> list:
        return [e.line() for e in self.entries]


def triangle_thinness_report(u: ALVertex, v: ALVertex, w: ALVertex) -> ThinnessReport:
    """Constructive 2-thinness evidence for the preferred-path triangle.

    Every vertex on each edge is matched with a vertex on the union of the
    other two edges through a verified path of length at most 2 (built from
    gcd-path connectors at the two adjoining corners).  One gcd-path walk
    per corner serves both edges at that corner.  Incomplete coverage or a
    failed connector raises WitnessError: both would contradict the overlap
    bound that makes the triangle thin.

    Each side takes one coset difference z; the reverse side's difference
    is invert(z), the same element, with no cascade.  Each of the six
    directed paths is folded once (_path_vertices): a side in full from
    its first corner, and from its second corner only as far as that
    corner's walk reaches.  A walk's step i stands at vertex i of the two
    directed paths leaving its corner.  Every vertex of a second-corner
    path is compared with the full path's vertex at its position: read
    from the far corner, the path must be the reverse of the near one.

    An entry's labels act on corner.rep * (x ^ Delta^i), which is
    start.rep * Delta^j for some j >= 0.  As Delta^j y = tau^-j(y) Delta^j,
    from start.rep each label is first twisted by tau^-j, that is by tau
    for odd j (try j in (0, 1)).
    """
    corners = {"u": u, "v": v, "w": w}
    sides = (("u", "v", "w"), ("v", "w", "u"), ("u", "w", "v"))  # (a, b, third)
    xs = {}      # (from, to) -> inf-0 representative of the coset difference
    for a, b, _ in sides:
        z = _coset_difference(corners[a], corners[b])
        xs[a, b] = vertex_of(z).rep
        xs[b, a] = vertex_of(invert(z)).rep
    conns = {}   # (corner, far end) -> the corner's walk connectors toward that end
    for a, b, c in (("u", "v", "w"), ("v", "w", "u"), ("w", "u", "v")):
        walk = _gcd_walk(xs[a, b], xs[a, c], f"corner {a}")
        conns[a, b] = [cx for _, cx, _ in walk]
        conns[a, c] = [cy for _, _, cy in walk]
    paths = {}   # (from, to) -> the directed path's vertices, as far as needed
    for a, b, _ in sides:
        paths[a, b] = _path_vertices(corners[a], xs[a, b], len(xs[a, b].factors) + 1)
        paths[b, a] = _path_vertices(corners[b], xs[b, a], len(conns[b, a]))
    all_entries = []
    for a, b, c in sides:
        edge_name = a + b
        path = paths[a, b]
        k = len(path) - 1
        merged = {}
        for corner, far in ((a, b), (b, a)):
            for i, (p, q, yp, yq) in enumerate(zip(
                    paths[corner, far], paths[corner, c],
                    conns[corner, far], conns[corner, c])):
                pos = i if corner == a else k - i
                if corner == b and p != path[pos]:
                    raise WitnessError(f"{edge_name}: step {i} from corner "
                                       f"{corner} disagrees with the path")
                labels = () if p == q else tuple(
                    (sign, y) for sign, y in ((-1, yp), (1, yq)) if not y.is_identity)
                # the corner-a entry stands on the overlap
                merged.setdefault(pos, ThinnessEntry(edge_name, pos, p, q, labels))
        reach_a, reach_b = len(conns[a, b]) - 1, len(conns[b, a]) - 1
        if reach_a + reach_b < k:
            raise WitnessError(
                f"edge {edge_name}: corner segments cover {reach_a}+{reach_b} < {k} steps")
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
