"""Layer tracing from outside the library, for the traced run only.

Wrappers are installed on the names a calling layer looks up: the module
globals of every garside_al module that imported a traced function (for
example `garside_al.absorb.make_element` and `garside_al.alcomplex.multiply`),
the package namespace the benchmark itself calls through, and the methods of
`GarsideStructure` and `BraidStructure`.  Nothing in the package is edited.

Two kinds of wrapper share one stack of active frames:

* a span wrapper records one span per call (name, parent span, query,
  start, end, self time), for calls into a layer that happen a few times
  per query;
* a hot wrapper, for the structure primitives, `make_element`, `multiply`,
  `invert` and `vertex_of`, keeps no record per call.  It adds a count and a
  self time to a bucket keyed by (enclosing span, its own name, the name of
  the frame that called it), so memory stays bounded by the span count.

A frame's self time is its duration minus the time its child frames cover.
"""

from __future__ import annotations

import json
import os
import sys
import time

_perf = time.perf_counter

# (module, function, kind); kind is "hot", "sized" (hot, and counts the
# simples passed in) or "span"
TRACED_FUNCTIONS = (
    ("element", "make_element", "sized"),
    ("element", "multiply", "hot"),
    ("element", "invert", "hot"),
    ("element", "left_gcd", "span"),
    ("absorb", "is_absorbable", "span"),
    ("absorb", "enumerate_absorbable", "span"),
    ("absorb", "_cache_load", "span"),
    ("absorb", "_cache_append", "span"),
    ("alcomplex", "vertex_of", "hot"),
    ("alcomplex", "are_adjacent", "span"),
    ("alcomplex", "preferred_path", "span"),
    ("alcomplex", "gcd_vertex", "span"),
    ("alcomplex", "distance_upper_bound", "span"),
    ("alcomplex", "_generators", "span"),
    ("alcomplex", "overlap_length", "span"),
    ("alcomplex", "triangle_thinness_report", "span"),
    ("special", "distance_witness", "span"),
    ("special", "max_power_dividing", "span"),
    ("special", "check_initial_segment", "span"),
    ("special", "delta_three_absorbables", "span"),
    ("special", "tube_decomposition", "span"),
    ("special", "nine_absorbable_decomposition", "span"),
    ("special", "orbit_diameter_probe", "span"),
)

STRUCTURE_METHODS = {
    "GarsideStructure": (
        "compose", "left_meet", "right_meet", "left_quotient", "right_quotient",
        "tau", "tau_pow", "right_complement", "left_complement", "starting_set",
        "finishing_set", "is_left_weighted", "left_divides_simple",
        "right_divides_simple", "nontrivial_simples", "followers", "preceders",
        "atom", "simple_word"),
    "BraidStructure": (
        "is_simple_value", "inverse", "inversion_mask", "simple_length",
        "all_simples"),
}

POWER_CHECKS = ("special.max_power_dividing", "special.check_initial_segment")

# span record fields
NAME, PARENT, QUERY, START, END, SELF, EXTRA = range(7)
ROOT = -1


def _certificate_extra(args, cert):
    if cert is None:
        return {"yes": False}
    return {"yes": True, "visited": cert.nodes_visited, "pruned": cert.nodes_pruned}


def _cache_read_extra(args, _result):
    path = args[2]
    return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}


_EXTRAS = {"absorb.is_absorbable": _certificate_extra,
           "absorb._cache_load": _cache_read_extra}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.buckets: dict = {}
        # a frame is [name, time covered by children, index of its span]
        self.stack: list = [["client", 0.0, ROOT]]
        self.query = None
        self._undo: list = []

    # -- wrappers -------------------------------------------------------------

    def _hot(self, name, f, sized):
        stack, buckets = self.stack, self.buckets

        def traced(*args, **kwargs):
            if sized:
                simples = list(args[2])
                args = (args[0], args[1], simples)
            parent = stack[-1]
            frame = [name, 0.0, parent[2]]
            stack.append(frame)
            t0 = _perf()
            try:
                return f(*args, **kwargs)
            finally:
                d = _perf() - t0
                stack.pop()
                parent[1] += d
                key = (parent[2], name, parent[0])
                b = buckets.get(key)
                if b is None:
                    b = buckets[key] = [0, 0.0, 0]
                b[0] += 1
                b[1] += d - frame[1]
                if sized:
                    b[2] += len(simples)
        return traced

    def _span(self, name, f):
        extra = _EXTRAS.get(name)

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = f(*args, **kwargs)
                if extra is not None:
                    rec[EXTRA] = extra(args, result)
                return result
            finally:
                self._close(rec)
        return traced

    def _open(self, name):
        parent = self.stack[-1]
        rec = [name, parent[2], self.query, 0.0, 0.0, 0.0, None]
        self.spans.append(rec)
        self.stack.append([name, 0.0, len(self.spans) - 1])
        rec[START] = _perf()
        return rec

    def _close(self, rec):
        end = _perf()
        frame = self.stack.pop()
        d = end - rec[START]
        self.stack[-1][1] += d
        rec[END] = end
        rec[SELF] = d - frame[1]

    # -- queries --------------------------------------------------------------

    def begin_query(self, index: int):
        self.query = index
        return self._open("query")

    def end_query(self, rec) -> None:
        self._close(rec)
        self.query = None

    # -- installation ---------------------------------------------------------

    def install(self, g) -> None:
        """Wrap every traced name in every garside_al module that holds it."""
        modules = [g] + [m for name, m in sorted(sys.modules.items())
                         if name.startswith(g.__name__ + ".") and m is not None]
        wrappers = {}
        for mod, fname, kind in TRACED_FUNCTIONS:
            f = getattr(sys.modules[f"{g.__name__}.{mod}"], fname)
            name = f"{mod}.{fname}"
            w = self._span(name, f) if kind == "span" else self._hot(name, f, kind == "sized")
            wrappers[id(f)] = (f, w)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, val))
        classes = {"GarsideStructure": g.GarsideStructure,
                   "BraidStructure": sys.modules[f"{g.__name__}.braid"].BraidStructure}
        for cname, methods in STRUCTURE_METHODS.items():
            cls = classes[cname]
            for m in methods:
                f = cls.__dict__[m]
                setattr(cls, m, self._hot(f"structure.{m}", f, False))
                self._undo.append((cls, m, f))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    def dump(self, path: str) -> None:
        """Write the spans of timed queries as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, r in enumerate(self.spans):
                if r[QUERY] is None:
                    continue
                fh.write(json.dumps({"id": i, "name": r[NAME], "parent": r[PARENT],
                                     "query": r[QUERY], "start": r[START],
                                     "end": r[END], "self_s": r[SELF],
                                     "extra": r[EXTRA]}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(t: Tracer) -> dict:
    """Per-layer counts and times over the spans of timed queries."""
    spans = t.spans

    def in_query(i):
        return i != ROOT and spans[i][QUERY] is not None

    def layer(name):
        return name.split(".", 1)[0]

    def has_ancestor(i, names):
        i = spans[i][PARENT]
        while i != ROOT:
            if spans[i][NAME] in names:
                return True
            i = spans[i][PARENT]
        return False

    by_name: dict = {}
    for i, r in enumerate(spans):
        if r[QUERY] is not None:
            by_name.setdefault(r[NAME], []).append(i)

    def span_count(name):
        return len(by_name.get(name, ()))

    def span_self(*names):
        return sum(spans[i][SELF] for n in names for i in by_name.get(n, ()))

    def span_dur(name, where=lambda i: True):
        return sum(spans[i][END] - spans[i][START]
                   for i in by_name.get(name, ()) if where(i))

    calls: dict = {}
    self_s: dict = {}
    sized: dict = {}
    nodes_by_query: dict = {}
    expansions_by_query: dict = {}
    absorb_nodes = expansions = 0
    for (span, name, caller), (count, own, simples) in t.buckets.items():
        if not in_query(span):
            continue
        calls[name] = calls.get(name, 0) + count
        self_s[name] = self_s.get(name, 0.0) + own
        sized[name] = sized.get(name, 0) + simples
        q = spans[span][QUERY]
        if name == "element.make_element" and layer(caller) == "absorb":
            absorb_nodes += count
            nodes_by_query[q] = nodes_by_query.get(q, 0) + count
        if name == "element.multiply" and caller == "alcomplex.distance_upper_bound":
            expansions += count
            expansions_by_query[q] = expansions_by_query.get(q, 0) + count

    structure = [n for n in calls if layer(n) == "structure"]
    certs = [spans[i][EXTRA] for i in by_name.get("absorb.is_absorbable", ())]
    yes = [c for c in certs if c["yes"]]
    # time inside the absorb layer: absorb spans not nested in another one
    absorb_busy = sum(r[END] - r[START] for r in spans
                      if r[QUERY] is not None and layer(r[NAME]) == "absorb"
                      and (r[PARENT] == ROOT or layer(spans[r[PARENT]][NAME]) != "absorb"))
    enumerations = {"absorb.enumerate_absorbable"}
    bfs_s = span_dur("alcomplex.distance_upper_bound")
    gens_in_bfs = span_dur("alcomplex._generators",
                           lambda i: has_ancestor(i, {"alcomplex.distance_upper_bound"}))
    probe = {"special.orbit_diameter_probe"}

    return {
        "structure.calls": sum(calls[n] for n in structure),
        "structure.is_simple_value.calls": calls.get("structure.is_simple_value", 0),
        "structure.left_meet.calls": calls.get("structure.left_meet", 0),
        "structure.self_s": sum(self_s[n] for n in structure),
        "element.make_element.calls": calls.get("element.make_element", 0),
        "element.make_element.simples_in": sized.get("element.make_element", 0),
        "element.make_element.self_s": self_s.get("element.make_element", 0.0),
        "element.multiply.calls": calls.get("element.multiply", 0),
        "element.multiply.self_s": self_s.get("element.multiply", 0.0),
        "element.invert.self_s": self_s.get("element.invert", 0.0),
        "element.left_gcd.calls": span_count("element.left_gcd"),
        "element.left_gcd.self_s": span_self("element.left_gcd"),
        "absorb.is_absorbable.calls": len(certs),
        "absorb.is_absorbable.self_s": span_self("absorb.is_absorbable"),
        "absorb.yes_frac": _ratio(len(yes), len(certs)),
        "absorb.nodes": absorb_nodes,
        "absorb.nodes_per_s": _ratio(absorb_nodes, absorb_busy),
        "absorb.cert_prune_ratio": _ratio(sum(c["pruned"] for c in yes),
                                          sum(c["visited"] for c in yes)),
        "absorb.max_query_nodes": max(nodes_by_query.values(), default=0),
        "absorb.enumerate.calls": span_count("absorb.enumerate_absorbable"),
        "absorb.enumerate.searches": sum(
            1 for i in by_name.get("absorb.is_absorbable", ())
            if has_ancestor(i, enumerations)),
        "absorb.enumerate.self_s": span_self("absorb.enumerate_absorbable"),
        "absorb.cache_write_s": span_dur("absorb._cache_append"),
        "absorb.cache_read_s": span_dur("absorb._cache_load"),
        "absorb.cache_bytes": sum(spans[i][EXTRA]["bytes"]
                                  for i in by_name.get("absorb._cache_load", ())
                                  if spans[i][EXTRA] is not None),
        "alcomplex.bfs.calls": span_count("alcomplex.distance_upper_bound"),
        "alcomplex.bfs.expansions": expansions,
        "alcomplex.bfs.expansions_per_s": _ratio(expansions, bfs_s - gens_in_bfs),
        "alcomplex.bfs.generators_s": gens_in_bfs,
        "alcomplex.bfs.self_s": span_self("alcomplex.distance_upper_bound"),
        "alcomplex.bfs.max_query_expansions": max(expansions_by_query.values(), default=0),
        "alcomplex.are_adjacent.self_s": span_self("alcomplex.are_adjacent"),
        "alcomplex.preferred_path.self_s": span_self("alcomplex.preferred_path"),
        "alcomplex.gcd_vertex.self_s": span_self("alcomplex.gcd_vertex"),
        "alcomplex.overlap_length.self_s": span_self("alcomplex.overlap_length"),
        "alcomplex.triangle_thinness_report.self_s":
            span_self("alcomplex.triangle_thinness_report"),
        "special.orbit_diameter_probe.self_s": span_self("special.orbit_diameter_probe"),
        "special.orbit_diameter_probe.generator_builds": sum(
            1 for i in by_name.get("alcomplex._generators", ()) if has_ancestor(i, probe)),
        "special.nine_absorbable_decomposition.self_s":
            span_self("special.nine_absorbable_decomposition"),
        "special.power_checks.self_s": span_self(*POWER_CHECKS),
    }
