"""Benchmark for garside_al: three seeded workloads, each in its own process.

Usage, from the root of a checkout:

  python3 bench/run.py --workload absorb-decide --seed 1 --seconds 30 --trace 0
  python3 bench/run.py --workload all            # every workload, default seed

With --trace 0 each workload runs untraced as a closed loop (one client,
each query waiting for the one before) for --seconds, and the end-to-end
metrics are printed.  With --trace 1 a fixed prefix of the same stream runs
twice, in two fresh processes, first untraced and then with the layer
tracer, and the per-layer metrics are printed.  Every answer is checked
in both modes.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the exit code is 0 only
when every answer passed its checks.

Only the standard library is used.  The package is imported from src/ of
the checkout this file sits in.  See NOTES.md for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# end-to-end metrics and their units; BENCHMARK.json lists the same names
END_TO_END = {"setup_s": "s", "throughput_qps": "1/s", "p50_ms": "ms",
              "p95_ms": "ms", "peak_rss_mb": "MB"}

# set-ups measured per untraced run: this many set-up-only processes plus
# the timed process itself
SETUP_ONLY_RUNS = 6

# About what the workloads reach untraced, in queries per second.  The
# traced run replays the first TRACE_QPS * seconds / 4 queries of the
# stream, a fixed count so that two traced runs with one seed make exactly
# the same calls, and the untraced replay takes about a quarter of
# --seconds.  The timed run reads its peak memory after TRACE_QPS *
# seconds / 2 queries, so that a faster library is not charged for the
# memos of the extra queries it gets through.
TRACE_QPS = {"absorb-decide": 110, "geodesic-long": 26, "complex-bfs": 37}

DEFAULT_SECONDS = 30

# The median speed probe (worker.speed_probe) on the 2-core host the
# benchmark was tuned on.  Times are reported at this reference speed: each
# query's latency, and each set-up, is scaled by PROBE_REF_S over the
# median of the probes run next to it, so that the host's swings in speed
# cancel out.  The raw figures are printed beside them.
PROBE_REF_S = 0.0014

# every workload's measurement ends within this many seconds
DEADLINE_S = 170


class WorkerError(Exception):
    pass


def _unit(name: str) -> str:
    if name == "absorb.cache_bytes":
        return "B"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def provenance() -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=20,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "garside_al")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"commit": commit, "src_sha256": h.hexdigest()[:16],
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def spawn(deadline: float, **opts) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")]
    for key, val in opts.items():
        cmd += [f"--{key}", str(val)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    launch = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--launch", repr(launch)], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - launch))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {opts} ran past its deadline and was stopped")
    if proc.returncode != 0:
        raise WorkerError(f"worker {opts} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def at_reference_speed(r: dict) -> list:
    """Each query latency of a worker result, scaled to the reference speed
    by the median of the five probes around it."""
    probes, out = r["probes_s"], []
    for lat, j in zip(r["latencies_s"], r["probe_at"]):
        out.append(lat * PROBE_REF_S / statistics.median(probes[max(0, j - 2):j + 3]))
    return out


def setup_at_reference_speed(r: dict) -> float:
    return r["setup_s"] * PROBE_REF_S / statistics.median(r["setup_probes_s"])


def end_to_end(workload: str, seed: int, seconds: int, deadline: float):
    runs = [spawn(deadline, mode="setup", workload=workload, seed=seed)
            for _ in range(SETUP_ONLY_RUNS)]
    r = spawn(deadline, mode="timed", workload=workload, seed=seed, seconds=seconds,
              **{"rss-after": TRACE_QPS[workload] * seconds // 2})
    runs.append(r)
    setups = [setup_at_reference_speed(x) for x in runs]
    raw_setup = statistics.median(x["setup_s"] for x in runs)
    raw_ms = [x * 1000 for x in r["latencies_s"]]
    lat_ms = [x * 1000 for x in at_reference_speed(r)]
    p95 = statistics.quantiles(lat_ms, n=20)[-1]
    ok = r["attempted"] - r["failed"]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_qps": ok / sum(lat_ms) * 1000,
        "p50_ms": statistics.median(lat_ms),
        "p95_ms": p95,
        "peak_rss_mb": r["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; raw {raw_setup:.4g}",
        "throughput_qps": f"{ok} queries answered; raw {ok / sum(raw_ms) * 1000:.4g}",
        "p50_ms": f"n={len(lat_ms)}; raw {statistics.median(raw_ms):.4g}",
        "p95_ms": f"n={len(lat_ms)}, {sum(1 for x in lat_ms if x > p95)} beyond; "
                  f"raw {statistics.quantiles(raw_ms, n=20)[-1]:.4g}",
        "peak_rss_mb": f"the timed process, after set-up and {r['rss_queries']} queries",
    }
    speed = PROBE_REF_S / statistics.median(r["probes_s"])
    header = (f"host speed {speed:.3f} of the reference ({len(r['probes_s'])} probes); "
              "times at the reference speed")
    return r, {k: (metrics[k], END_TO_END[k], notes[k]) for k in END_TO_END}, header


def per_layer(workload: str, seed: int, seconds: int, deadline: float):
    count = max(1, TRACE_QPS[workload] * seconds // 4)
    plain = spawn(deadline, mode="fixed", workload=workload, seed=seed, queries=count)
    r = spawn(deadline, mode="fixed", workload=workload, seed=seed, queries=count, trace=1)
    if r["digests"] != plain["digests"]:
        r["failed"] = max(r["failed"], 1)
        r["failures"].append("traced answers differ from untraced answers")
    layers = dict(r["layers"])
    layers["trace.overhead_frac"] = (sum(at_reference_speed(r))
                                     / sum(at_reference_speed(plain)) - 1)
    note = f"over the first {count} queries; spans in {r['spans_path']}"
    return r, {k: (v, _unit(k), "") for k, v in layers.items()}, note


def run_workload(workload: str, seed: int, seconds: int, trace: int, deadline: float):
    measure = per_layer if trace else end_to_end
    r, metrics, note = measure(workload, seed, seconds, deadline)
    print(f"{workload}: seed={seed} seconds={seconds} trace={trace}")
    if note:
        print(f"  {note}")
    for name, (value, unit, why) in metrics.items():
        print(f"  {name:46s} {value:14.6g} {unit:6s} {why and f'({why})'}".rstrip())
    frac = r["failed"] / r["attempted"]
    print(f"  {'fail_frac':46s} {frac:14.6g} {'ratio':6s} "
          f"({r['failed']} of {r['attempted']} failed; "
          f"{r['digests_checked']} answer digests checked against the reference)")
    for msg in r["failures"]:
        print(f"  FAILED {msg}")
    return r, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                   help=f"input seed; held-out seed: {workloads.HELD_OUT_SEED}")
    p.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= DEADLINE_S // 2:
        p.error(f"--seconds must be between 1 and {DEADLINE_S // 2}")
    if not os.path.isfile(os.path.join(ROOT, "src", "garside_al", "__init__.py")):
        print(f"error: no garside_al package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    prov = provenance()
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            r, m = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except WorkerError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        attempted += r["attempted"]
        failed += r["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u, _) in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
