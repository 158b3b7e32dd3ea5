"""Tests of the benchmark itself.

Run from the root of the checkout:

  python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import garside_al as g  # noqa: E402
import perms  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(ROOT, ".bench_out", "test")


def _plain(x) -> bool:
    if isinstance(x, tuple):
        return all(_plain(y) for y in x)
    return isinstance(x, (int, str))


class Inputs(unittest.TestCase):
    def test_same_seed_gives_same_inputs(self):
        for wl in workloads.WORKLOADS:
            a = workloads.take(wl, 7, 80)
            self.assertEqual(a, workloads.take(wl, 7, 80), wl)
            self.assertNotEqual(a, workloads.take(wl, 8, 80), wl)
            self.assertTrue(all(_plain(q) for q in a), wl)

    def test_warm_up_is_drawn_apart_from_the_stream(self):
        for wl in workloads.WORKLOADS:
            warm = workloads.warmup_queries(wl)
            self.assertEqual(warm, workloads.warmup_queries(wl))
            stream = workloads.take(wl, workloads.DEFAULT_SEED, 200)
            self.assertFalse(set(warm) & set(stream), wl)

    def test_chains_are_their_own_normal_forms(self):
        import random
        rng = random.Random(3)
        for n in (4, 5, 6, 8):
            for length in (1, 2, 5, 12):
                chain = perms.random_chain(rng, n, length)
                self.assertEqual(perms.normal_form_violations(0, chain, n), [])
                el = g.make_element(g.braid_structure(n), 0, chain)
                self.assertEqual((el.power, el.factors), (0, chain))

    def test_fixed_witness_spelling_matches_the_library(self):
        self.assertEqual(g.distance_witness(4).factors, workloads.X4)


class Checks(unittest.TestCase):
    def setUp(self):
        os.makedirs(SCRATCH, exist_ok=True)
        self.ctx = workloads.Context(g, SCRATCH)

    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def _absorbed(self):
        """The first absorb query of the default stream with a certificate."""
        for q in workloads.take("absorb-decide", workloads.DEFAULT_SEED, 40):
            if q[0] == "absorb" and q[1] == 4:
                y, cert = workloads.run_query(self.ctx, q)
                if cert is not None:
                    return q, y, cert
        self.fail("no absorbable input in the stream head")

    def test_a_good_certificate_passes(self):
        q, y, cert = self._absorbed()
        self.assertEqual(workloads.check_answer(g, q, (y, cert)), [])

    def test_a_corrupted_certificate_is_caught(self):
        q, y, cert = self._absorbed()
        st = y.structure
        corrupted = [
            g.multiply(cert.x, g.delta_power(st, 1)),        # inf 1
            g.make_element(st, 0, cert.x.factors[:-1]),       # sup one short
            g.GarsideElement(st, 0, (st.identity,) + cert.x.factors[1:]),
            g.GarsideElement(st, 0, (st.delta,) + cert.x.factors[1:]),
            # s1 | s2 is not left-weighted
            g.GarsideElement(st, 0, (st.atom(1), st.atom(2)) + cert.x.factors[2:]),
        ]
        for x in corrupted:
            bad = dataclasses.replace(cert, x=x)
            self.assertNotEqual(workloads.check_answer(g, q, (y, bad)), [], x)

    def test_an_absorbable_witness_is_caught(self):
        q = ("witness", 4, False)
        x, cert = workloads.run_query(self.ctx, q)
        self.assertIsNone(cert)
        fake = g.AbsorbabilityCertificate(y=x, x=x, nodes_visited=1, nodes_pruned=0)
        self.assertNotEqual(workloads.check_answer(g, q, (x, fake)), [])

    def test_a_wrong_digest_is_caught(self):
        queries = workloads.take("complex-bfs", workloads.DEFAULT_SEED, 12)
        first = worker.run_queries(g, self.ctx, queries)
        self.assertEqual(first["failed"], 0)
        shutil.rmtree(SCRATCH)
        os.makedirs(SCRATCH)
        reference = list(first["digests"])
        reference[5] = "0" * 16
        second = worker.run_queries(g, self.ctx, queries, reference=reference)
        self.assertEqual(second["failed"], 1)
        self.assertEqual(second["digests_checked"], len(queries))
        self.assertIn("digest", second["failures"][0])


class Contract(unittest.TestCase):
    def test_benchmark_json_names_what_run_prints(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        layer_names = list(tracer.layer_metrics(tracer.Tracer())) + ["trace.overhead_frac"]
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {n: run._unit(n) for n in layer_names})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_traced_counts_repeat_exactly(self):
        deadline = run.time.monotonic() + 120
        keys = ("structure.calls", "element.make_element.calls", "absorb.nodes",
                "alcomplex.bfs.expansions")
        for wl, count in (("absorb-decide", 30), ("complex-bfs", 20)):
            a, b = (run.spawn(deadline, mode="fixed", workload=wl, seed=5,
                              queries=count, trace=1)["layers"] for _ in range(2))
            self.assertEqual([a[k] for k in keys], [b[k] for k in keys], wl)
            self.assertGreater(a["structure.calls"], 0)

    def test_refuses_to_run_without_the_package(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "absorb-decide",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(SCRATCH, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
