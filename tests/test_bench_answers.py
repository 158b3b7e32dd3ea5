"""Replay the start of every benchmark workload and compare the answers.

The benchmark under bench/ checks each answer and compares its digest with
the recorded reference, but only when it is run by hand.  This test makes
the same checks part of the ordinary test run: the first queries of each
workload, at the default seed and at the held-out seed, go through the
benchmark's own run_query and check_answer, and every answer digest must
equal bench/reference/<workload>.json.  Nothing under bench/ is written.

The benchmark's traced run wraps package functions and structure methods
by name, so a rename in the package breaks it; the tracer test below
installs that tracer and checks that it still sees the structure layer.
"""

import importlib
import json
import pathlib
import sys

import pytest

import garside_al
from garside_al.braid import BraidStructure

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
QUERIES = 150


def _bench_module(name):
    sys.path.insert(0, str(BENCH))
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(BENCH))


workloads = _bench_module("workloads")
tracer = _bench_module("tracer")


@pytest.mark.parametrize("seed", (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_answers_match_the_reference(workload, seed, tmp_path):
    with open(BENCH / "reference" / f"{workload}.json", encoding="utf-8") as fh:
        reference = json.load(fh)["digests"][str(seed)]
    ctx = workloads.Context(garside_al, str(tmp_path))
    for i, q in enumerate(workloads.take(workload, seed, QUERIES)):
        answer = workloads.run_query(ctx, q)
        assert workloads.check_answer(garside_al, q, answer) == [], (i, q)
        assert workloads.answer_digest(q, answer) == reference[i], (i, q)


def test_tracer_sees_the_structure_layer():
    # a fresh structure, so that its per-instance caches are cold and the
    # search reaches the structure methods the tracer wraps
    left_meet = garside_al.GarsideStructure.left_meet
    t = tracer.Tracer()
    t.install(garside_al)
    try:
        st = BraidStructure(4)
        garside_al.is_absorbable(garside_al.parse_word(st, "s1 s3 s1 s3"))
    finally:
        t.uninstall()
    calls: dict = {}
    for (_span, name, _caller), (count, _self_s, _simples) in t.buckets.items():
        calls[name] = calls.get(name, 0) + count
    assert calls.get("structure.right_complement", 0) > 0
    # the candidate sets are built from the nontrivial simples
    assert calls.get("structure.nontrivial_simples", 0) > 0
    assert garside_al.GarsideStructure.left_meet is left_meet


def test_tracer_counts_each_probe_search_as_a_distance_search():
    # an orbit probe searches through distance_upper_bound, so its searches
    # land in the alcomplex.bfs.* metrics beside those of dist-ub queries
    st = garside_al.braid_structure(3)
    g = garside_al.parse_word(st, "s1 s2")
    t = tracer.Tracer()
    t.install(garside_al)
    try:
        rec = t.begin_query(0)
        entries = garside_al.orbit_diameter_probe(g, 2, 1, 3)
        t.end_query(rec)
    finally:
        t.uninstall()
    assert [e.search_bound for e in entries] == [1, 1]
    assert tracer.layer_metrics(t)["alcomplex.bfs.calls"] == 2
