"""Workload definitions: the sweep instances and the seeded query stream.

The three sweeps are fixed by the paper's identities and ignore the seed.
The acceptance instances (AC10, AC03 and AC02 sizes: 4,352, 6,860 and
3,656 cells) take 17-29 s per cold run, and one such sample per run
cannot be told apart from the host's drift.  So each workload is a
smaller instance of the same sweep whose cold run takes 0.2-0.6 s at full
speed on a 2-vCPU box, chosen so that its layer profile matches the
acceptance instance: branch spends ~99% under branching_coefficient with
~190 kostant_partition calls per cell, nearly all returning 0; king ~90%
in enumerate_king_tableaux; character splits between laurent/characters
and weight_multiplicity over the full type A root list (see
BENCHMARK.json for the reason of each workload).

The query stream is drawn from the recorded key table queries.json, which
also holds the answer digest of every key as produced by the seed commit.
"""

import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "queries.json")

# name -> the verify function, its arguments and the pinned cell count
SWEEPS = {
    "branch": ("verify_generalized_duality", (1, 1, 4), 108),
    "king": ("verify_bijection", (2, 3), 1250),
    "character": ("verify_schur_duality", (4, 4), 390),
}

QUERIES_PER_ROUND = 1000
# Queries between two in-process runs of the reference loop.  The host's
# speed flips several times a second, so the loops that bracket a segment
# must lie close together: 25 queries take about 0.1 s.
SEGMENT = 25
# chance that a query repeats the key of an earlier query of its kind
REPEAT_CHANCE = 0.25

# Every subcommand in the stream gets the same quota; decompose reads the
# answer of an earlier product query on stdin.
KINDS = ("hat", "kostant", "weight-mult", "branch", "character", "product",
         "decompose", "star", "king-check", "kappa", "jdt", "charge",
         "crystal-graph")


def answer_digest(rc, out):
    """Digest of one answer: exit code and the exact stdout bytes."""
    return hashlib.sha256(("%d\n%s" % (rc, out)).encode()).hexdigest()[:16]


def query_key(argv, stdin=None):
    key = " ".join(argv)
    return key + " < " + stdin if stdin else key


def load_table(path=TABLE):
    """kind -> list of {"argv", "stdin", "digest"}; stdin names the
    product key whose answer a decompose query reads."""
    with open(path) as f:
        return json.load(f)["kinds"]


def golden(table):
    return {query_key(e["argv"], e["stdin"]): e["digest"]
            for entries in table.values() for e in entries}


def build_stream(table, seed, length=QUERIES_PER_ROUND):
    """The seeded closed-loop stream: a list of {"argv", "stdin_from",
    "key"} where stdin_from is the index of the earlier product query
    whose answer is fed to a decompose query."""
    rng = random.Random(seed)
    slots = [KINDS[i % len(KINDS)] for i in range(length)]
    rng.shuffle(slots)
    issued = {k: [] for k in KINDS}      # kind -> stream indices
    fresh = {k: rng.sample(range(len(table[k])), len(table[k]))
             for k in KINDS}
    product_at = {}                      # product key -> stream index
    stream = []

    def pick(kind, allowed=None):
        earlier = issued[kind]
        if earlier and rng.random() < REPEAT_CHANCE:
            return stream[rng.choice(earlier)]["entry"]
        pool = [i for i in fresh[kind]
                if allowed is None or allowed(table[kind][i])]
        if pool:
            fresh[kind].remove(pool[0])
            return table[kind][pool[0]]
        pool = [e for e in table[kind] if allowed is None or allowed(e)]
        return rng.choice(pool) if pool else None

    for kind in slots:
        entry = None
        if kind == "decompose":
            entry = pick(kind, lambda e: e["stdin"] in product_at)
            if entry is not None and entry["stdin"] not in product_at:
                entry = None
        if entry is None:
            kind = "product" if kind == "decompose" else kind
            entry = pick(kind)
        key = query_key(entry["argv"], entry["stdin"])
        if kind == "product":
            product_at.setdefault(key, len(stream))
        stream.append({"argv": entry["argv"], "key": key, "entry": entry,
                       "stdin_from": product_at.get(entry["stdin"])})
        issued[kind].append(len(stream) - 1)
    return [{"argv": q["argv"], "key": q["key"],
             "stdin_from": q["stdin_from"]} for q in stream]


def repeat_share(stream):
    """Share of queries whose key appeared earlier in the stream."""
    seen = set()
    repeats = 0
    for q in stream:
        if q["key"] in seen:
            repeats += 1
        seen.add(q["key"])
    return repeats / len(stream)
