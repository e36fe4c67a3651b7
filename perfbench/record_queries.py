"""Record the query key table perfbench/queries.json.

Usage, from the root of a checkout of the commit whose answers are the
reference:

    PYTHONPATH=src python3 perfbench/record_queries.py

Candidate queries of every subcommand are drawn with a fixed generator
seed from small parameter ranges.  Each is answered through
howekit.cli.dispatch; candidates the CLI rejects as invalid input (exit
code 2, e.g. charge of an element that is not of weight zero) are dropped
and their number per kind is kept in the table.  Every kept key stores the
digest of its exit code and exact stdout bytes.
"""

import contextlib
import io
import itertools
import json
import random
import sys

from workloads import KINDS, TABLE, answer_digest, query_key

PER_KIND = 100
GENERATOR_SEED = 2110


def box(rows, cols):
    """Partitions with at most rows parts, each at most cols."""
    out = [()]
    for k in range(1, rows + 1):
        for parts in itertools.combinations_with_replacement(
                range(cols, 0, -1), k):
            out.append(parts)
    return out


def ints(v):
    return ",".join(str(x) for x in v)


def column(rng, n, h):
    letters = [x for x in range(-n, n + 1) if x != 0]
    return sorted(rng.sample(letters, h))


def element(rng, n, m, height=None):
    cols = [column(rng, n, height or rng.randint(1, n)) for _ in range(m)]
    return ";".join(ints(c) for c in cols)


def king_element(rng, m, width):
    alphabet = ["%d%s" % (k, b) for k in range(1, m + 1) for b in ("", "b")]
    heights = sorted((rng.randint(1, min(3, 2 * m)) for _ in range(width)),
                     reverse=True)
    cols = [",".join(sorted(rng.sample(alphabet, h), key=alphabet.index))
            for h in heights]
    return ";".join(cols)


def candidates(rng):
    """kind -> list of argv; decompose candidates come from products."""
    c = {k: [] for k in KINDS}
    for n in (2, 3, 4):
        for m in (2, 3, 4):
            for p in box(n, m):
                c["hat"].append(["hat", "--partition", ints(p), "--n", str(n),
                                 "--m", str(m)])
    for m in (2, 3):
        for beta in itertools.product(range(-1, 4), repeat=m):
            c["kostant"].append(["kostant", "--family", "C", "--m", str(m),
                                 "--beta", ints(beta)])
            c["kostant"].append(["kostant", "--family", "C", "--m", str(m),
                                 "--beta", ints(beta), "--twisted"])
    for m in (3, 4):
        for beta in itertools.product(range(-2, 3), repeat=m):
            if sum(beta) == 0:
                c["kostant"].append(["kostant", "--family", "A", "--m",
                                     str(m), "--beta", ints(beta)])
    for m in (2, 3):
        for lam in box(m, 3)[1:]:
            size = sum(lam)
            for mu in itertools.product(range(size + 1), repeat=m):
                if sum(mu) == size:
                    c["weight-mult"].append(
                        ["weight-mult", "--family", "A", "--m", str(m),
                         "--lam", ints(lam), "--mu", ints(mu)])
        for lam in box(m, 2)[1:]:
            for mu in itertools.product(range(-2, 3), repeat=m):
                c["weight-mult"].append(
                    ["weight-mult", "--family", "C", "--m", str(m),
                     "--lam", ints(lam), "--mu", ints(mu)])
    specs = [(s, k) for r in (1, 2) for s in itertools.product("AC", repeat=r)
             for k in itertools.product((1, 2), repeat=r) if sum(k) <= 3]
    for symbols, sizes in specs:
        m = sum(sizes)
        pools = [box(k, 2) for k in sizes]
        for kappa in box(m, 2):
            for nu in itertools.product(*pools):
                c["branch"].append(
                    ["branch", "--kappa", ints(kappa), "--symbols",
                     "".join(symbols), "--sizes", ints(sizes),
                     "--nu", ";".join(ints(p) for p in nu)])
    for n in (2, 3, 4):
        for lam in box(n, 2 if n == 4 else 3)[1:]:
            c["character"].append(["character", "--family", "A", "--n",
                                   str(n), "--lam", ints(lam)])
    for n in (2, 3):
        for lam in box(n, 2)[1:]:
            c["character"].append(["character", "--family", "C", "--n",
                                   str(n), "--lam", ints(lam)])
    for n in (1, 2):
        for symbols, sizes in specs:
            pools = [box(n, k) for k in sizes]
            for mu in itertools.product(*pools):
                argv = ["product", "--symbols", "".join(symbols), "--sizes",
                        ints(sizes), "--mu", ";".join(ints(p) for p in mu),
                        "--n", str(n)]
                c["product"].append(argv)
    for _ in range(400):
        n, m = rng.randint(2, 4), rng.randint(1, 3)
        c["star"].append(["star", "--element", element(rng, n, m),
                          "--n", str(n)])
        m, width = rng.randint(2, 3), rng.randint(1, 3)
        c["king-check"].append(["king-check", "--m", str(m), "--element",
                                king_element(rng, m, width)])
        n, m = rng.randint(2, 4), rng.randint(2, 3)
        j = rng.choice([x for x in range(-(m - 1), m + 1) if x])
        c["kappa"].append(["kappa", "--element", element(rng, n, m),
                           "--n", str(n), "--j", str(j)])
        c["jdt"].append(["jdt", "--element", element(rng, n, m), "--n",
                         str(n), "--j", str(rng.randint(1, m - 1))])
        n = rng.randint(1, 2)
        c["charge"].append(["charge", "--element",
                            element(rng, n, rng.randint(1, 3), height=n),
                            "--n", str(n)])
        n = rng.randint(2, 3)
        argv = ["crystal-graph", "--seed", element(rng, n, rng.randint(1, 2),
                                                    height=1), "--n", str(n)]
        if rng.random() < 0.5:
            argv += ["--ops", ints(sorted(rng.sample(range(n), 2)))]
        c["crystal-graph"].append(argv)
    return c


def answer(argv, stdin=""):
    from howekit.cli import dispatch
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(stdin)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = dispatch(argv)
    sys.stdin = sys.__stdin__
    return rc, out.getvalue()


def main():
    rng = random.Random(GENERATOR_SEED)
    cands = candidates(rng)
    kinds, dropped, product_out = {}, {}, {}
    for kind in KINDS:
        if kind == "decompose":
            continue
        pool = cands[kind]
        rng.shuffle(pool)
        kept = []
        dropped[kind] = 0
        for argv in pool:
            if len(kept) == PER_KIND:
                break
            rc, out = answer(argv)
            if rc != 0:
                dropped[kind] += 1
                continue
            kept.append({"argv": argv, "stdin": None,
                         "digest": answer_digest(rc, out)})
            if kind == "product":
                product_out[query_key(argv)] = (argv, out)
        kinds[kind] = kept
    dec = []
    for key, (argv, out) in product_out.items():
        n = argv[argv.index("--n") + 1]
        d_argv = ["decompose", "--family", "C", "--n", n]
        rc, d_out = answer(d_argv, out)
        dec.append({"argv": d_argv, "stdin": key,
                    "digest": answer_digest(rc, d_out)})
    kinds["decompose"] = dec
    dropped["decompose"] = 0
    with open(TABLE, "w") as f:
        json.dump({"generator_seed": GENERATOR_SEED, "per_kind": PER_KIND,
                   "dropped_invalid": dropped,
                   "kinds": {k: kinds[k] for k in KINDS}}, f, indent=0,
                  sort_keys=True)
        f.write("\n")
    for k in KINDS:
        print("%-14s kept %3d dropped %3d" % (k, len(kinds[k]), dropped[k]))


if __name__ == "__main__":
    main()
