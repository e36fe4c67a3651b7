"""Every recorded CLI answer of perfbench/queries.json, byte for byte.

The table holds 1,256 subcommand calls with the digest of the exit code
and exact stdout each gave when it was recorded; a decompose entry reads,
on stdin, the stdout of the product entry its "stdin" field names.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from howekit.cli import dispatch

TABLE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                     "queries.json")


def answer(argv, stdin, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = dispatch(list(argv))
    return rc, out.getvalue()


def digest(rc, out):
    return hashlib.sha256(("%d\n%s" % (rc, out)).encode()).hexdigest()[:16]


def test_recorded_answers_match(monkeypatch):
    with open(TABLE) as f:
        kinds = json.load(f)["kinds"]
    # products first: their stdout is the stdin of the decompose entries
    order = sorted(kinds, key=lambda kind: kind == "decompose")
    product_out = {}
    wrong = []
    for kind in order:
        for e in kinds[kind]:
            stdin = product_out[e["stdin"]] if e["stdin"] else ""
            rc, out = answer(e["argv"], stdin, monkeypatch)
            if kind == "product":
                product_out[" ".join(e["argv"])] = out
            if digest(rc, out) != e["digest"]:
                wrong.append((e["argv"], e["stdin"], rc, out[:200]))
    assert sum(map(len, kinds.values())) == 1256
    assert wrong == []
