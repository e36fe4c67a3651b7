"""Self-checks of the benchmark.

Run from the root of a checkout (takes about half a minute):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (KINDS, QUERIES_PER_ROUND, build_stream,  # noqa: E402
                       golden, load_table, repeat_share)


class ScriptedClock:
    """Returns the given instants in order."""

    def __init__(self, instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8].
    clock = ScriptedClock([0, 1, 4, 5, 6, 8, 9, 10])
    t = Tracer(clock=clock)
    a = t.wrap("a", lambda: None)
    c = t.wrap("c", lambda: None)
    b = t.wrap("b", lambda: c())
    root = t.wrap("root", lambda: (a(), b()))
    root()
    totals = t.totals()
    assert totals["root"] == {"calls": 1, "total_s": 10, "self_s": 3}
    assert totals["a"] == {"calls": 1, "total_s": 3, "self_s": 3}
    assert totals["b"] == {"calls": 1, "total_s": 4, "self_s": 2}
    assert totals["c"] == {"calls": 1, "total_s": 2, "self_s": 2}
    assert t.calls_under("c", "b") == 1
    # root and its children are stored; c lies below the stored depth
    assert sorted(s[2] for s in t.spans) == ["a", "b", "root"]


def test_generator_steps_are_spans():
    clock = ScriptedClock(range(10))
    t = Tracer(clock=clock)
    gen = t.wrap("g", lambda: iter_two())
    outer = t.wrap("outer", lambda: list(gen()))
    assert outer() == [1, 2]
    totals = t.totals()
    # outer [0, 9] holds the call [1, 2] and three next() steps [3, 4],
    # [5, 6] and [7, 8], the last one ending the generator
    assert totals["g"] == {"calls": 1, "total_s": 4, "self_s": 4}
    assert totals["outer"] == {"calls": 1, "total_s": 9, "self_s": 5}
    assert t.counts["g"]["yielded"] == 2


def iter_two():
    yield 1
    yield 2


def test_absent_name_is_reported():
    code = ("import tracer; "
            "tracer.LAYERS['partfn.gone'] = ('howekit.partfn', 'no_such'); "
            "t = tracer.Tracer(); t.install(); print(t.absent)")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['partfn.gone']"


def test_host_scaling_arithmetic():
    # a 2 s segment between loops of R and 2R ran at 2/3 of the reference
    # speed on average, so it counts as 2 * R / 1.5R s
    r = run.REFERENCE_S
    sweep = {"segments": [2.0], "refs": [r, 2 * r], "cells": 100,
             "setups": [(0.05, r), (0.2, 2 * r), (0.1, r)]}
    assert run.scaled_wall(sweep) == pytest.approx(4 / 3)
    w = run.Workload("branch", 1)
    scaled = run.timings(w, [sweep], scale=True)
    assert scaled["query_p50_ms"] == pytest.approx(1000 * 4 / 3)
    assert scaled["cells_per_s"] == pytest.approx(75)
    # set-ups scale by their own loop: 0.05, 0.1 and 0.1 s
    assert scaled["setup_s"] == pytest.approx(0.1)
    raw = run.timings(w, [sweep], scale=False)
    assert raw["query_p50_ms"] == pytest.approx(2000)
    assert raw["setup_s"] == pytest.approx(0.1)
    # queries: each latency takes the factor of its segment
    q = {"latencies": [0.01] * (run.SEGMENT + 1), "refs": [r, r, 2 * r],
         "segments": [0.01 * run.SEGMENT, 0.01]}
    assert run.host_factors(q) == pytest.approx([1.0, 2 / 3])
    q["setups"] = [(0.05, r)]
    scaled = run.timings(run.Workload("queries", 1), [q], scale=True)
    assert scaled["queries"] == run.SEGMENT + 1
    assert scaled["query_p50_ms"] == pytest.approx(10)


COUNT_KEYS = ("calls", "yielded", "candidates", "zero_share",
              "repeat_share", "true_share", "peels", "terms_out", "cells")


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat_exactly(name):
    counts = []
    for _ in range(2):
        _, metrics, detail = run.traced(ROOT, run.Workload(name, 7),
                                        os.path.join(HERE, "out"))
        assert detail["absent"] == []
        counts.append({k: v for k, v in metrics.items()
                       if k.rsplit(".", 1)[-1] in COUNT_KEYS})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_stream_is_seeded_and_recorded():
    table = load_table()
    expected = golden(table)
    a = build_stream(table, 3)
    assert a == build_stream(table, 3)
    assert a != build_stream(table, 4)
    assert len(a) == QUERIES_PER_ROUND
    assert {q["argv"][0] for q in a} == set(KINDS)
    assert all(q["key"] in expected for q in a)
    for i, q in enumerate(a):
        if q["argv"][0] == "decompose":
            assert q["stdin_from"] < i
            assert a[q["stdin_from"]]["argv"][0] == "product"
    assert 0.2 < repeat_share(a) < 0.45


def test_benchmark_json_names_match():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in bench["end_to_end"]] == list(
        run.END_TO_END.values())
    assert [m["name"] for m in bench["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.layer_unit(m["name"])
               for m in bench["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "branch", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
