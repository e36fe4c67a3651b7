"""Record the baseline of the checked-out commit.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --label "seed commit" \
        --out perfbench/baseline.json

Runs perfbench/run.py the way BENCHMARK.json describes it: for every
workload, one run per seed (1 to 10 by default) with tracing off and one
traced run.  For each end-to-end metric it prints and records the ten
values, their median and quartiles, and the spread (distance between the
quartiles over the median) next to the metric's bound; for each workload
the per-layer metrics of the traced run and its tracing overhead.  A spread
above a third of its bound is marked, because two sets of runs of the same
code then risk disagreeing by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import machine

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    """One benchmark run in a fresh process: (result, detail)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit("run.py --workload %s --seed %d failed:\n%s"
                 % (workload, seed, proc.stderr[-2000:]))
    lines = proc.stdout.splitlines()
    detail = next(line for line in lines if " detail " in line)
    return json.loads(lines[-1]), json.loads(detail.split(" detail ", 1)[1])


def summary(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--label", default="")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--out", help="JSON file to write")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    seeds = list(range(1, args.seeds + 1))
    out = {"label": args.label, "run_seconds": seconds, "seeds": seeds,
           "machine": machine(),
           "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        rows = [run(name, seed, seconds, 0) for seed in seeds]
        e2e = {}
        for m in bench["end_to_end"]:
            s = summary([r["metrics"][m["name"]]["value"] for r, _ in rows],
                        m["bound"])
            s["unit"] = m["unit"]
            e2e[m["name"]] = s
            print("%-10s %-14s median %12.6g %-8s spread %.4f (bound %.2f)%s"
                  % (name, m["name"], s["median"], m["unit"], s["spread"],
                     m["bound"], "  WIDE" if s["spread"] > m["bound"] / 3
                     else ""), flush=True)
        traced, tdetail = run(name, seeds[0], seconds, 1)
        entry = {
            "end_to_end": e2e,
            "failed": sum(r["failed"] for r, _ in rows),
            "attempted": sum(r["attempted"] for r, _ in rows),
            "samples_per_run": [d["samples"] for _, d in rows],
            "host_factor": [d["host_factor"] for _, d in rows],
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()},
            "untraced_wall_s": tdetail["untraced_wall_s"],
            "traced_wall_s": tdetail["traced_wall_s"],
        }
        if "query_p99_ms" in rows[0][1]:
            entry["query_p99_ms"] = summary(
                [d["query_p99_ms"] for _, d in rows], None)
            entry["queries_per_run"] = [d["queries"] for _, d in rows]
            entry["repeat_share"] = [d["repeat_share"] for _, d in rows]
        print("%-10s fail_ratio %d/%d, trace_overhead_s %.4g"
              % (name, entry["failed"], entry["attempted"],
                 entry["per_layer"]["trace_overhead_s"]), flush=True)
        out["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
