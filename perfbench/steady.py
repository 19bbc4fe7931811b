"""Steadiness check for the benchmark.

    python3 perfbench/steady.py [--first-seed 1]

Runs each workload once per seed (first-seed, first-seed + 1, ... RUNS
seeds), and for every end-to-end metric prints the median and the spread:
the distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of the median. A spread at or above a third of the
metric's bound in BENCHMARK.json is flagged. It then runs the traced run
twice on the first seed and requires the exact counts to agree. Pass a
--first-seed not used while writing a change (say 1001) to confirm a
claim on unseen seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10

# counts that must repeat exactly between traced runs of one seed
EXACT = ["simulate.reads", "simulate.snps", "simulate.observed_values",
         "denoise.ml_denoise.candidates", "denoise.spectral_denoise.rows",
         "exact_bridging.chain_steps", "noisy_bounds.spectral_quantities.calls",
         "util.bisect_decreasing.iterations"]


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [*BENCH["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spreads(workload: str, seeds) -> tuple[bool, dict]:
    runs = [run(workload, s, 0) for s in seeds]
    ok = all(r["correct"] for r in runs)
    summary = {}
    for m in BENCH["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        steady = spread < m["bound"] / 3
        ok &= steady
        summary[m["name"]] = {"median": med, "spread": spread,
                              "limit": m["bound"] / 3, "values": vals}
        print(f"{workload:18s} {m['name']:12s} median {med:12.6g} "
              f"spread {spread:7.4f} (limit {m['bound'] / 3:.4f})"
              f"{'' if steady else '  UNSTEADY'}", flush=True)
    return ok, summary


def exact_counts(workload: str, seed: int) -> bool:
    a, b = (run(workload, seed, 1)["metrics"] for _ in range(2))
    same = True
    for name in EXACT:
        va, vb = a[name]["value"], b[name]["value"]
        same &= va == vb
        print(f"{workload:18s} {name:40s} {va:>14} {vb:>14}"
              f"{'' if va == vb else '  DIFFER'}", flush=True)
    return same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    ok, report = True, {}
    seeds = range(args.first_seed, args.first_seed + RUNS)
    for w in (w["name"] for w in BENCH["workloads"]):
        w_ok, report[w] = spreads(w, seeds)
        ok &= w_ok & exact_counts(w, args.first_seed)
    out = ROOT / ".perfbench-out" / f"steady-seed{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
