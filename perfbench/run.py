"""The howekit benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload branch --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25 --trace 1

Workloads (BENCHMARK.json gives the reason for each): branch, king and
character time one acceptance sweep each; queries runs a seeded closed
loop of single howekit.cli.dispatch calls with one client.

Every sample is a fresh interpreter (perfbench/worker.py), because users
pay for the cold process-global caches on every CLI call or test sweep; a
second sweep in one process would time warm caches.  A run keeps starting
samples while the next one would end less than half a sample after
--seconds (so that it measures for --seconds on average), and reports
medians.

End-to-end metrics (--trace 0):

  setup_s       interpreter start until `import howekit` returns; median
                over every sample and the set-up probes after each.
  cells_per_s   a sweep's cells over the wall time of its verify_* call;
                on queries, queries per second over each segment of
                SEGMENT queries.  Median over samples (segments).
  query_p50_ms  median latency of one call: one verify_* sweep call, or
                one cli.dispatch call on queries.
  peak_rss_mb   ru_maxrss of the sample process, median over samples.

Printed by name but not gated, because they are 0 or too seed-dependent
for a bound: fail_ratio (failed/attempted, with its base), query_p99_ms on
queries (with its sample count and the number of samples beyond it) and
the measured repeat share of the query stream.

The speed of the shared host this was built on flips between full and
about half speed several times a second (the reference loop below takes
0.03 s or 0.055 s), far more than any bound a benchmark can hold.  So
every worker runs the fixed reference loop of perfbench/reference.py
right after `import howekit` and again after each measured segment (the
sweep call, or SEGMENT queries), and every reported time is the measured
time multiplied by the host factor, REFERENCE_S over the mean of the two
loops around it: the time the segment would take at the reference speed.
A set-up time is scaled by the loop that follows it.  The detail line
holds the unscaled values ("raw") and the median host factor.

--trace 1 runs the same work once untraced and once traced
(perfbench/tracer.py) and prints the per-layer metrics, with the tracing
overhead (host-scaled traced minus untraced wall time).  The last line of
stdout is the JSON result; the lines before it name every metric with its
unit, the machine (before and after), the sample counts and the failure
ratio.

Correctness gates every run: a sweep must report its pinned cell count and
no failures; every query answer must match, byte for byte by digest, the
answer recorded from the seed commit in perfbench/queries.json, and in the
first sample of a run the star, character and weight-mult answers are also
checked by independent oracles through other subcommands.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import layer_metrics  # noqa: E402
from workloads import (SEGMENT, SWEEPS, build_stream, golden,  # noqa: E402
                       load_table, repeat_share)

WORKER = os.path.join(HERE, "worker.py")
# Wall time of the reference loop that the reported times are scaled to
# (its time at full speed on a 2-vCPU x86-64 box under Python 3.11.7).
REFERENCE_S = 0.03
WORKLOADS = ("branch", "king", "character", "queries")
MIN_SAMPLES = 3
# After each sample, fresh interpreters that only time set-up run for this
# share of the sample's time (at least one): one set-up takes well under a
# tenth of a second, so setup_s is the median of many.
SETUP_SHARE = 0.1
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "cells/s",
    "query_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    pass


def machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "loadavg": os.getloadavg()}


def spawn(root, spec, stdin_obj=None):
    """Run one worker to completion and return its result dict."""
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    data = json.dumps(stdin_obj) if stdin_obj is not None else ""
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER, json.dumps(spec)],
                              input=data, capture_output=True, text=True,
                              env=env, cwd=root, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("worker %r timed out" % (spec,))
    if proc.returncode != 0:
        raise BenchError("worker %r failed:\n%s" % (spec, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["module"].startswith(src + os.sep):
        raise BenchError("worker imported %s, not the checkout's howekit"
                         % result["module"])
    result["setup_s"] = result["ready"] - t0
    return result


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


# -- correctness -------------------------------------------------------------


def sweep_failures(workload, result):
    """Reported failures plus every cell missing from, or added to, the
    pinned count."""
    return result["failures"] + abs(result["cells"] - SWEEPS[workload][2])


def query_failures(stream, expected, result):
    failed = result.get("oracle_failures", 0)
    for q, (rc, digest) in zip(stream, result["answers"]):
        if rc != 0 or expected.get(q["key"]) != digest:
            failed += 1
    failed += abs(len(stream) - len(result["answers"]))
    return failed


# -- measured runs -----------------------------------------------------------


class Workload:
    """The work of one sample and its correctness check."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.queries = name == "queries"
        if self.queries:
            self.table = load_table()
            self.expected = golden(self.table)

    def sample(self, root, index=0, trace=False, oracles=False, spans=None):
        """Run sample number index of the run.  Each queries sample gets
        its own stream, drawn from the seed and the index, so that a run
        covers more of the key table than one stream does."""
        spec = {"workload": self.name, "trace": trace, "oracles": oracles,
                "spans": spans}
        if not self.queries:
            result = spawn(root, spec)
            result["attempted"] = result["cells"]
            result["failed"] = sweep_failures(self.name, result)
            return result
        stream = build_stream(self.table, "%d:%d" % (self.seed, index))
        result = spawn(root, spec, stream)
        result["attempted"] = len(stream) + result.get("oracle_checks", 0)
        result["failed"] = query_failures(stream, self.expected, result)
        result["repeat_share"] = repeat_share(stream)
        return result


def measure(root, workload, seconds):
    """Samples while the next would end less than half a sample after the
    deadline, each followed by set-up probes."""
    start = time.monotonic()
    deadline = start + seconds
    samples = []
    while True:
        t0 = time.monotonic()
        s = workload.sample(root, len(samples), oracles=not samples)
        probes_end = time.monotonic() + SETUP_SHARE * (time.monotonic() - t0)
        setups = [s]
        while len(setups) == 1 or time.monotonic() < probes_end:
            setups.append(spawn(root, {"workload": "setup", "trace": False}))
        # (set-up time, the reference loop that followed it)
        s["setups"] = [(w["setup_s"], w["refs"][0]) for w in setups]
        s["step_s"] = time.monotonic() - t0
        samples.append(s)
        est = statistics.median(s["step_s"] for s in samples)
        if (len(samples) >= MIN_SAMPLES
                and time.monotonic() + est / 2 > deadline):
            break
    return samples, time.monotonic() - start


def host_factors(sample):
    """REFERENCE_S over the mean of the two reference loops around each
    segment of a sample."""
    refs = sample["refs"]
    return [REFERENCE_S / ((a + b) / 2) for a, b in zip(refs, refs[1:])]


def scaled_wall(sample):
    """The measured wall time of a sample at the reference speed."""
    return sum(w * f for w, f in zip(sample["segments"],
                                     host_factors(sample)))


def timings(workload, samples, scale):
    """The timed metrics of a run, medians over its samples, plus
    query_p99_ms on queries.  With scale, the time of a segment is
    multiplied by its host factor, and a set-up time by REFERENCE_S over
    the reference loop that followed it in the same process."""
    out = {"setup_s": statistics.median(
        t * (REFERENCE_S / ref if scale else 1.0)
        for s in samples for t, ref in s["setups"])}
    lat, rates = [], []
    for s in samples:
        factors = host_factors(s) if scale else [1.0] * len(s["segments"])
        if not workload.queries:
            rates.append(s["cells"] / (s["segments"][0] * factors[0]))
            lat.append(s["segments"][0] * factors[0])
            continue
        lat += [x * factors[i // SEGMENT]
                for i, x in enumerate(s["latencies"])]
        sizes = [len(s["latencies"][i:i + SEGMENT])
                 for i in range(0, len(s["latencies"]), SEGMENT)]
        rates += [n / (w * f) for n, w, f in zip(sizes, s["segments"],
                                                  factors)]
    out["cells_per_s"] = statistics.median(rates)
    out["query_p50_ms"] = 1000 * statistics.median(lat)
    if workload.queries:
        out["query_p99_ms"] = 1000 * percentile(lat, 99)
        out["beyond_p99"] = sum(1 for x in lat
                                if 1000 * x > out["query_p99_ms"])
        out["queries"] = len(lat)
    return out


def end_to_end(workload, samples):
    """The reported metrics (host-scaled) and the detail, which holds the
    unscaled values too."""
    scaled = timings(workload, samples, scale=True)
    metrics = {k: scaled[k] for k in ("setup_s", "cells_per_s",
                                      "query_p50_ms")}
    metrics["peak_rss_mb"] = statistics.median(s["maxrss_kib"] / 1024
                                               for s in samples)
    detail = {"samples": len(samples),
              "setups": sum(len(s["setups"]) for s in samples),
              "host_factor": statistics.median(f for s in samples
                                               for f in host_factors(s)),
              "raw": timings(workload, samples, scale=False)}
    if not workload.queries:
        detail["cells"] = samples[0]["cells"]
    else:
        for k in ("query_p99_ms", "beyond_p99", "queries"):
            detail[k] = scaled[k]
        detail["repeat_share"] = statistics.median(s["repeat_share"]
                                                   for s in samples)
        detail["oracle_checks"] = samples[0].get("oracle_checks", 0)
    return metrics, detail


def traced(root, workload, out_dir):
    """One untraced and one traced sample of the same work."""
    plain = workload.sample(root)
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, "spans-%s.json" % workload.name)
    with_trace = workload.sample(root, trace=True, spans=spans)
    metrics = layer_metrics(with_trace["trace"])
    metrics["trace_overhead_s"] = (scaled_wall(with_trace)
                                   - scaled_wall(plain))
    detail = {"untraced_wall_s": scaled_wall(plain),
              "traced_wall_s": scaled_wall(with_trace),
              "absent": with_trace["trace"]["absent"],
              "stored_spans": with_trace["trace"]["stored_spans"],
              "dropped_spans": with_trace["trace"]["dropped_spans"],
              "spans_file": os.path.relpath(spans, root)}
    return [plain, with_trace], metrics, detail


# -- metric catalogue ----------------------------------------------------------


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    return "count"


def per_layer_names():
    """Every per-layer metric name, in report order."""
    return list(layer_metrics({"totals": {}, "counts": {}, "peels": 0})) + [
        "trace_overhead_s"]


# -- entry point ---------------------------------------------------------------


def run_one(root, name, seed, seconds, trace):
    before = machine()
    workload = Workload(name, seed)
    if trace:
        samples, values, detail = traced(root, workload,
                                         os.path.join(HERE, "out"))
        units = {k: layer_unit(k) for k in values}
    else:
        samples, elapsed = measure(root, workload, seconds)
        values, detail = end_to_end(workload, samples)
        detail["measured_s"] = elapsed
        units = END_TO_END
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    detail["fail_ratio"] = "%d/%d" % (failed, attempted)
    detail["machine_before"] = before
    detail["machine_after"] = machine()
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]}
                          for k in units}}
    return result, detail


def print_result(name, result, detail):
    line = "%-10s %-48s %14.6g %s"
    for k, m in result["metrics"].items():
        print(line % (name, k, m["value"], m["unit"]))
    if "query_p99_ms" in detail:
        print(line % (name, "query_p99_ms", detail["query_p99_ms"], "ms")
              + " (%d samples, %d beyond)" % (detail["queries"],
                                              detail["beyond_p99"]))
        print(line % (name, "repeat_share", detail["repeat_share"], "share"))
    print("%-10s %-48s %14s failed/attempted" % (name, "fail_ratio",
                                                 detail["fail_ratio"]))
    print("%-10s detail %s" % (name, json.dumps(detail, sort_keys=True)))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "howekit", "__init__.py")):
        print("error: run from the root of a howekit checkout (no "
              "src/howekit here)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, detail = run_one(root, name, args.seed, args.seconds,
                                     bool(args.trace))
            print_result(name, result, detail)
            results[name] = result
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    sys.stdout.flush()
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
