"""Record the benchmark's reference digests or a trajectory point.

  python3 bench/record.py reference    # bench/reference/<workload>.json
  python3 bench/record.py trajectory   # bench/trajectory/<commit>.json

`reference` runs the first REFERENCE_QUERIES[workload] queries of the
default and held-out seeds and stores one answer digest per query; every
later run compares its answers with them.  Record it only at a commit whose
answers are trusted, and delete the old file first when answers change on
purpose: a run against a stale reference counts its differences as
failures, and this script refuses to record a run with failures.

`trajectory` runs every workload on the default seed, untraced and then
traced, and stores both final JSON lines with the run's provenance.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

# about twice what a run of the default length reaches when recorded
REFERENCE_QUERIES = {"absorb-decide": 8000, "geodesic-long": 2000, "complex-bfs": 2500}


def record_reference() -> int:
    prov = run.provenance()
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for wl in workloads.WORKLOADS:
        digests = {}
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            r = run.spawn(time.monotonic() + 900, mode="fixed", workload=wl, seed=seed,
                          queries=REFERENCE_QUERIES[wl])
            if r["failed"]:
                print(f"{wl} seed {seed}: {r['failed']} failures, not recorded: "
                      f"{r['failures']}", file=sys.stderr)
                return 1
            digests[str(seed)] = r["digests"]
        path = os.path.join(HERE, "reference", f"{wl}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"commit": prov["commit"], "src_sha256": prov["src_sha256"],
                       "digests": digests}, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


def record_trajectory() -> int:
    prov = run.provenance()
    results = {}
    for wl in workloads.WORKLOADS:
        results[wl] = {}
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                                   "--workload", wl, "--trace", str(trace)],
                                  cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
            print(proc.stdout, end="")
            if proc.returncode != 0:
                print(f"{wl} trace={trace} exited with code {proc.returncode}",
                      file=sys.stderr)
                return 1
            results[wl]["traced" if trace else "untraced"] = json.loads(
                proc.stdout.strip().splitlines()[-1])
    os.makedirs(os.path.join(HERE, "trajectory"), exist_ok=True)
    path = os.path.join(HERE, "trajectory", f"{prov['commit'][:12]}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "seed": workloads.DEFAULT_SEED,
                   "seconds": run.DEFAULT_SECONDS, "results": results}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    actions = {"reference": record_reference, "trajectory": record_trajectory}
    if len(sys.argv) != 2 or sys.argv[1] not in actions:
        sys.exit(f"usage: {sys.argv[0]} {'|'.join(actions)}")
    sys.exit(actions[sys.argv[1]]())
