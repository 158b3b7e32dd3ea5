"""One workload in one process: set up, warm up, then run timed queries.

Started by run.py, never by hand.  The last line of standard output is a
JSON object with the measurements; run.py turns several of them into the
reported metrics.

Modes:
  setup  stop once set-up is done; report only the set-up time
  timed  run the stream until --seconds have passed (closed loop: one
         client, each query waits for the one before)
  fixed  run exactly the first --queries queries of the stream, with the
         layer tracer installed when --trace 1
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# strand counts whose structures are built during set-up
STRANDS = {"absorb-decide": (4, 5, 6), "geodesic-long": (4, 5, 6, 8),
           "complex-bfs": (4, 5)}

MAX_FAILURE_MESSAGES = 5

# seconds of loop time between two runs of the speed probe
PROBE_INTERVAL_S = 0.1
PROBES_AFTER_SETUP = 5


def speed_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work, with GC off.

    The host's speed swings by up to a third within seconds, and every
    query class moves with it.  The probe is independent of garside_al, so
    nothing a library change does can move it, and run.py divides each
    query's latency by the probes run next to it.  It is the geometric mean
    of two parts: one builds small tuples, dict entries and short sorts like
    the library's hot paths, one is plain integer arithmetic.  Measured
    against repeated library queries, the first part's time swings more
    than the library's and the second's less; together they track it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        memo = {}
        for i in range(500):
            p = tuple((i * k) % 7 for k in range(1, 7))
            key = (p, tuple(sorted(p)))
            if key not in memo:
                memo[key] = len(set(p))
        t1 = time.perf_counter()
        acc = 0
        for i in range(10000):
            acc += i * i % 7
        t2 = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return math.sqrt((t1 - t0) * (t2 - t1))


def load_library():
    """Import garside_al from this checkout's src, and the CLI with it."""
    sys.path.insert(0, SRC)
    import garside_al
    import garside_al.cli  # noqa: F401  (its import cost is part of set-up)

    where = os.path.dirname(os.path.abspath(garside_al.__file__))
    if where != os.path.join(SRC, "garside_al"):
        raise SystemExit(f"garside_al was imported from {where}, not from {SRC}")
    return garside_al


def load_reference(workload: str, seed: int):
    """Recorded answer digests for this seed, or None when it has none."""
    path = os.path.join(HERE, "reference", f"{workload}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["digests"].get(str(seed))
    except FileNotFoundError:
        return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_queries(g, ctx, queries, *, seconds=None, reference=None, tracer=None,
                rss_after=None):
    """Closed loop over the queries; stops after `seconds` when given.

    The peak memory is read after `rss_after` queries (or at the end, when
    fewer ran), so that it measures a fixed amount of work however fast
    the queries go.
    """
    latencies, digests, failures, probes, probe_at = [], [], [], [], []
    rss = None
    failed = 0
    checked = 0
    start = next_probe = time.perf_counter()
    for i, q in enumerate(queries):
        now = time.perf_counter()
        if seconds is not None and now - start >= seconds:
            break
        if now >= next_probe:
            probes.append(speed_probe())
            next_probe = now + PROBE_INTERVAL_S
        rec = tracer.begin_query(i) if tracer else None
        t0 = time.perf_counter()
        try:
            answer = workloads.run_query(ctx, q)
            problems = []
        except Exception as exc:  # any raise is a failed query, budgets included
            answer = None
            problems = [f"{type(exc).__name__}: {exc}"]
        latencies.append(time.perf_counter() - t0)
        probe_at.append(len(probes) - 1)
        if tracer:
            tracer.end_query(rec)
        if not problems:
            problems = workloads.check_answer(g, q, answer)
            digest = workloads.answer_digest(q, answer)
            if reference is not None and i < len(reference):
                checked += 1
                if reference[i] != digest:
                    problems.append("answer digest differs from the reference")
        else:
            digest = None
        digests.append(digest)
        if len(latencies) == rss_after:
            rss = peak_rss_mb()
        if problems:
            failed += 1
            if len(failures) < MAX_FAILURE_MESSAGES:
                failures.append(f"query {i} ({q[0]}): {'; '.join(problems)}")
    return {"latencies_s": latencies, "attempted": len(latencies), "failed": failed,
            "failures": failures, "digests": digests, "digests_checked": checked,
            "loop_s": time.perf_counter() - start,
            "probes_s": probes, "probe_at": probe_at,
            "peak_rss_mb": peak_rss_mb() if rss is None else rss,
            "rss_queries": len(latencies) if rss is None else rss_after}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--launch", type=float, required=True,
                   help="time.monotonic() in the parent just before this process started")
    p.add_argument("--seconds", type=float)
    p.add_argument("--queries", type=int)
    p.add_argument("--rss-after", type=int,
                   help="read the peak memory after this many queries")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    g = load_library()
    for n in STRANDS[args.workload]:
        g.braid_structure(n)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        os.makedirs(os.path.join(workdir, "warm-up"))
        warm = workloads.Context(g, os.path.join(workdir, "warm-up"))
        for q in workloads.warmup_queries(args.workload):
            problems = workloads.check_answer(g, q, workloads.run_query(warm, q))
            if problems:
                raise SystemExit(f"warm-up query {q[0]} failed: {problems}")
        setup_s = time.monotonic() - args.launch
        setup_probes = [speed_probe() for _ in range(PROBES_AFTER_SETUP)]
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s, "setup_probes_s": setup_probes}))
            return 0

        tracer = None
        if args.trace:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracer.install(g)
        ctx = workloads.Context(g, workdir)
        stream = workloads.stream(args.workload, args.seed)
        if args.mode == "fixed":
            stream = workloads.take(args.workload, args.seed, args.queries)
        out = run_queries(g, ctx, stream, seconds=args.seconds if args.mode == "timed" else None,
                          reference=load_reference(args.workload, args.seed),
                          tracer=tracer, rss_after=args.rss_after)
        out["setup_s"] = setup_s
        out["setup_probes_s"] = setup_probes
        if tracer:
            tracer.uninstall()
            out["layers"] = tracing.layer_metrics(tracer)
            spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.dump(spans_path)
            out["spans_path"] = os.path.relpath(spans_path, ROOT)
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
