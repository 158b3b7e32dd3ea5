"""Replay the start of every benchmark workload and compare the answers.

The benchmark under bench/ checks each answer and compares its digest with
the recorded reference, but only when it is run by hand.  This test makes
the same checks part of the ordinary test run: the first queries of each
workload, at the default seed and at the held-out seed, go through the
benchmark's own run_query and check_answer, and every answer digest must
equal bench/reference/<workload>.json.  Nothing under bench/ is written.
"""

import importlib
import json
import pathlib
import sys

import pytest

import garside_al

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
QUERIES = 150


def _workloads():
    sys.path.insert(0, str(BENCH))
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(BENCH))


workloads = _workloads()


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
