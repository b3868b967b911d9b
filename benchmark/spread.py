#!/usr/bin/env python3
"""Run workloads over a seed set and report each metric's spread.

    python3 benchmark/spread.py [--workloads a,b] [--seeds dev|held-out|1,2,3]
                                [--json FILE]

Every run lasts BENCHMARK.json's `run_seconds` and reports the
end-to-end metrics. For every workload and metric it prints the median,
the first and third quartiles (`statistics.quantiles(values, n=4)`),
and the spread `(Q3 - Q1) / median` next to the metric's bound from
BENCHMARK.json.
A spread above a third of the bound means the benchmark is not steady
enough to resolve a change of that size. The range of the host's steal
share over the reported runs is printed with each workload.

The `held-out` seeds are reserved: tune and develop on `dev` (or any
other seeds) and use `held-out` only to confirm a claim on seeds its
author did not use.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_SETS = {
    "dev": list(range(1, 11)),
    "held-out": [104729, 224737, 350377, 479909, 611953, 746773, 882377, 1020379, 1159523,
                 1299709],
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads")
    ap.add_argument("--seeds", default="dev")
    ap.add_argument("--json", help="also write the raw values and spreads here")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = SEED_SETS.get(args.seeds) or [int(s) for s in args.seeds.split(",")]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    ok = True
    for w in workloads:
        values = {}
        steal = []
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            if not result or not result["correct"]:
                ok = False
                print(f"{w} seed {seed}: run failed\n{done.stderr[-2000:]}", file=sys.stderr)
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            context = json.loads(lines[-2].removeprefix("context: "))
            steal.append(context["steal_share"])
        summary[w] = {"steal_share": steal}
        print(f"\n{w} ({len(seeds)} seeds, {seconds:g} s, host steal share per run "
              f"{min(steal, default=0):.3f}-{max(steal, default=0):.3f})")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            flag = "  <-- above bound/3" if spread > bound / 3 else ""
            print(f"  {name:<26} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f}  bound {bound}{flag}")
            summary[w][name] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                                "spread": spread, "bound": bound}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
