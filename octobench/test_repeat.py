#!/usr/bin/env python3
"""The benchmark's own test: results repeat across processes for one
(workload, seed), and the seed changes only the generated inputs.

    python3 octobench/test_repeat.py [--workload <name> ...] [--seed <n>]

For each workload it makes two traced runs with one seed, and requires every
exact count to be equal in both. It also makes measured runs with that seed,
the same seed again, and the next seed. The digest after step 1 must match
for equal seeds and differ for different seeds, and the node count must not
change with the seed. Every run must also pass its own output checks. Exits
nonzero on any failure. Takes a few minutes per workload on 4 cores.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("v1309_gravity", "blast_hydro", "v1309_churn")
EXACT = (
    "kernel.fmm_flops", "kernel.hydro_flops", "fmm.solves", "fmm.dag_tasks",
    "hydro.stage_tasks", "hydro.cfl_tasks", "amr.halo_plan_rebuilds",
    "amr.halo_plan_hits", "amr.nodes_changed", "support.recycler_misses",
    "io.full_bytes", "io.delta_bytes", "scf.fmm_solves",
)
HEADLINE = re.compile(r"^workload \S+ seed \d+: (\d+) nodes, .*"
                      r"digest after step 1 ([0-9a-f]{8})", re.M)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(p.stdout.strip().split("\n")[-1])
    if p.returncode != 0 or not result["correct"]:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: run "
                             f"failed its own checks (exit {p.returncode})")
    return p.stdout, result


def check(workload, seed):
    errors = []
    counts = []
    for _ in range(2):
        _, result = run(workload, seed, 1)
        counts.append({k: result["metrics"][k]["value"] for k in EXACT})
    for k in EXACT:
        if counts[0][k] != counts[1][k]:
            errors.append(f"{k}: {counts[0][k]} vs {counts[1][k]}")

    heads = []
    for s in (seed, seed, seed + 1):
        out, _ = run(workload, s, 0)
        m = HEADLINE.search(out)
        if m is None:
            raise AssertionError(f"{workload}: no headline in output")
        heads.append((int(m.group(1)), m.group(2)))
    if heads[0][1] != heads[1][1]:
        errors.append(f"step-1 digest differs for seed {seed}: "
                      f"{heads[0][1]} vs {heads[1][1]}")
    if heads[0][1] == heads[2][1]:
        errors.append(f"seeds {seed} and {seed + 1} give the same inputs")
    if heads[0][0] != heads[2][0]:
        errors.append(f"node count depends on the seed: {heads[0][0]} vs "
                      f"{heads[2][0]}")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=11)
    a = ap.parse_args()
    failed = False
    for w in a.workload or WORKLOADS:
        try:
            errors = check(w, a.seed)
        except AssertionError as e:
            errors = [str(e)]
        print(f"{w}: {'ok' if not errors else 'FAIL'}")
        for e in errors:
            print(f"  {e}")
        failed |= bool(errors)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
