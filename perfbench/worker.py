"""One measured sample, run in a fresh interpreter.

Usage (run.py starts it; the spec is a JSON object):

    PYTHONPATH=src python3 perfbench/worker.py '{"workload": "branch",
        "trace": false}'

A queries worker reads its stream as JSON on stdin; the "setup" workload
only imports howekit, to time set-up.  Every worker runs the reference
loop first thing after the import, and again after each measured segment.
The worker prints one JSON object: the monotonic time at which `import
howekit` returned (the caller subtracts its own start time to get set-up
time), the reference loop times, the measured segments, its correctness
data and ru_maxrss.
"""

import time

import howekit

READY = time.monotonic()

import contextlib  # noqa: E402  (imported after the set-up clock stops)
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SEGMENT, SWEEPS, answer_digest  # noqa: E402


def run_sweep(name):
    from howekit import verify
    fn_name, args, _ = SWEEPS[name]
    fn = getattr(verify, fn_name)
    refs = [reference.measure()]
    t0 = time.perf_counter()
    report = fn(*args)
    wall = time.perf_counter() - t0
    refs.append(reference.measure())
    return {"segments": [wall], "refs": refs,
            "cells": report["cells"], "failures": len(report["failures"])}


def call(dispatch, argv, stdin=""):
    """One CLI call: (exit code, stdout, seconds inside dispatch)."""
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(stdin)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = dispatch(argv)
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), dt


def oracle_failures(dispatch, stream, outputs):
    """Independent checks of star, character and weight-mult answers
    through other subcommands; returns (checks, failures)."""
    checks = failures = 0
    done = set()
    for q, (rc, out) in zip(stream, outputs):
        argv = q["argv"]
        if q["key"] in done or rc != 0:
            continue
        done.add(q["key"])
        opt = dict(zip(argv[1::2], argv[2::2]))
        if argv[0] == "star":
            cols = opt["--element"].split(";")
            _, back, _ = call(dispatch, ["star", "--element", out.strip(),
                                         "--n", opt["--n"], "--m",
                                         str(len(cols)), "--inverse"])
            want = [[int(x) for x in c.split(",")] if c else [] for c in cols]
            ok = json.loads(back) == want
        elif argv[0] == "character":
            _, dec, _ = call(dispatch, ["decompose", "--family",
                                        opt["--family"], "--n", opt["--n"]],
                             out)
            lam = [int(x) for x in opt["--lam"].split(",") if int(x)]
            ok = json.loads(dec) == [{"lam": lam, "mult": 1}]
        elif argv[0] == "weight-mult":
            _, char, _ = call(dispatch, ["character", "--family",
                                         opt["--family"], "--n", opt["--m"],
                                         "--lam", opt["--lam"]])
            mu = [int(x) for x in opt["--mu"].split(",")]
            coef = sum(t["coef"] for t in json.loads(char) if t["exp"] == mu)
            ok = coef == json.loads(out)
        else:
            continue
        checks += 1
        failures += not ok
    return checks, failures


def run_queries(stream, oracles):
    """The closed loop; the reference loop runs before the first query
    and after every SEGMENT queries, outside the timed calls."""
    from howekit import cli
    outputs, latencies, refs, segments = [], [], [reference.measure()], []
    for start in range(0, len(stream), SEGMENT):
        t0 = time.perf_counter()
        for q in stream[start:start + SEGMENT]:
            i = q["stdin_from"]
            stdin = outputs[i][1] if i is not None else ""
            rc, out, dt = call(cli.dispatch, q["argv"], stdin)
            outputs.append((rc, out))
            latencies.append(dt)
        segments.append(time.perf_counter() - t0)
        refs.append(reference.measure())
    result = {"latencies": latencies, "segments": segments, "refs": refs,
              "answers": [[rc, answer_digest(rc, out)] for rc, out in outputs]}
    if oracles:
        result["oracle_checks"], result["oracle_failures"] = oracle_failures(
            cli.dispatch, stream, outputs)
    return result


def main():
    spec = json.loads(sys.argv[1])
    stream = json.load(sys.stdin) if spec["workload"] == "queries" else None
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    if stream is not None:
        result = run_queries(stream, spec.get("oracles", False))
    elif spec["workload"] == "setup":
        result = {"refs": [reference.measure()]}
    else:
        result = run_sweep(spec["workload"])
    result["ready"] = READY
    result["module"] = os.path.abspath(howekit.__file__)
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.report()
        if spec.get("spans"):
            with open(spec["spans"], "w") as f:
                json.dump(tracer.spans, f)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
