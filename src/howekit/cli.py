"""Command line front end.

Every operation of the library is a subcommand; structured results are
printed as compact JSON with stable ordering, so identical inputs give
identical bytes (the one exception is the runtime_ms field of sweep
reports, which is a wall-clock measurement).  crystal-graph can emit DOT
instead of JSON.

Exit codes: 0 on success, 1 when a verification sweep reports failures
(the JSON report is still printed), 2 on malformed input, unknown flags,
or exceeded caps.

Element syntax on the command line: partitions and weight vectors are
comma-separated integers; multipartitions separate components with ";";
crystal elements list columns separated by ";" with barred letters as
negative integers (an empty column is an empty string); King tableau
entries use the "3b" suffix form for barred values.  Wherever a textual
element is accepted, the JSON form produced by the corresponding
subcommand is accepted too.
"""

import argparse
import json
import sys
from functools import cache
from operator import attrgetter

from . import bicrystal, limits, verify, weyl
from .bicrystal import charge_king, statistics
from .characters import char_product, decompose, weyl_character
from .crystals import TensorElement, generate_crystal_graph
from .duality import (KingElement, KingEntry, is_king_tableau, king_weight,
                      star, star_inverse)
from .errors import HowekitError
from .laurent import LaurentPolynomial
from .partfn import (DiagramSpec, branching_coefficient, kostant_partition,
                     twisted_partition_C, weight_multiplicity)
from .partitions import MultiPartition, Partition, conjugate, hat


def _emit(obj):
    print(json.dumps(obj, separators=(",", ":"), sort_keys=True))


def _parse_ints(text):
    """Comma-separated integers; the empty string is the empty tuple.

    Zeros are kept, so "0" is the length-one zero vector (as a partition
    it still normalizes to the empty one).
    """
    text = text.strip()
    if not text:
        return ()
    return tuple(int(x) for x in text.split(","))


def _parse_multi(text):
    return [_parse_ints(c) for c in text.split(";")]


def _parse_symbols(text):
    return tuple(text.replace(",", "").strip().upper())


def _spec(ns):
    """The DiagramSpec of the --symbols and --sizes options."""
    return DiagramSpec(_parse_symbols(ns.symbols), _parse_ints(ns.sizes))


def _json_columns(text, kind):
    """A JSON list of columns, each a list of entries of type kind."""
    cols = json.loads(text)
    if not isinstance(cols, list) or not all(
            isinstance(c, list) and all(type(x) is kind for x in c)
            for c in cols):
        raise ValueError("expected a JSON list of columns of %s entries"
                         % kind.__name__)
    return cols


def _parse_element(text, n):
    text = text.strip()
    if text.startswith("["):
        cols = _json_columns(text, int)
    else:
        cols = [_parse_ints(c) for c in text.split(";")]
    return TensorElement(cols, n)


def _parse_king(text, m):
    text = text.strip()
    if text.startswith("["):
        return KingElement.from_json_obj(_json_columns(text, str), m)
    cols = []
    for c in text.split(";"):
        c = c.strip()
        cols.append([KingEntry.from_str(s) for s in c.split(",")] if c else [])
    return KingElement(cols, m)


def _read_config(path):
    """The caps of a key=value file, as a dict of integers."""
    caps = {}
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("config line without '=': %r" % line)
            key, value = (s.strip() for s in line.split("=", 1))
            caps[key] = int(value)
    return caps


# -- handlers ---------------------------------------------------------------
# A handler prints its result; it returns an exit code only when not 0.


def _cmd_hat(ns):
    _emit(list(hat(Partition(_parse_ints(ns.partition)), ns.n, ns.m)
               .padded(ns.m)))


def _cmd_conjugate(ns):
    _emit(list(conjugate(Partition(_parse_ints(ns.partition))).stripped()))


def _cmd_kostant(ns):
    fam, m = weyl.check_id((ns.family, ns.m))
    beta = _parse_ints(ns.beta)
    if ns.twisted:
        if fam != "C":
            raise ValueError("--twisted needs family C")
        _emit(twisted_partition_C(beta, m))
    else:
        _emit(kostant_partition(weyl.positive_roots((fam, m)), beta))


def _cmd_weight_mult(ns):
    _emit(weight_multiplicity((ns.family, ns.m),
                              Partition(_parse_ints(ns.lam)),
                              _parse_ints(ns.mu)))


def _cmd_branch(ns):
    spec = _spec(ns)
    nu = MultiPartition(_parse_multi(ns.nu), spec.sizes)
    _emit(branching_coefficient(Partition(_parse_ints(ns.kappa)), spec, nu))


def _cmd_character(ns):
    p = weyl_character(Partition(_parse_ints(ns.lam)), ns.family, ns.n)
    _emit(p.to_json_obj())


def _cmd_decompose(ns):
    if ns.input == "-":
        obj = json.load(sys.stdin)
    else:
        with open(ns.input) as f:
            obj = json.load(f)
    if not isinstance(obj, list) or not all(
            isinstance(t, dict) and isinstance(t.get("exp"), list)
            and all(type(x) is int for x in t["exp"])
            and type(t.get("coef")) is int for t in obj):
        raise ValueError('expected a JSON list of {"exp": [int, ...], '
                         '"coef": int} terms')
    p = LaurentPolynomial.from_json_obj(obj, ns.n)
    _emit(decompose(p, ns.family, ns.n).to_json_obj())


def _cmd_product(ns):
    spec = _spec(ns)
    mu = MultiPartition(_parse_multi(ns.mu), spec.sizes)
    _emit(char_product(mu, spec, ns.n).to_json_obj())


def _cmd_crystal_graph(ns):
    seed = _parse_element(ns.seed, ns.n)
    ops = tuple(_parse_ints(ns.ops)) if ns.ops is not None else None
    graph = generate_crystal_graph(seed, ops)
    if ns.dot:
        print(graph.to_dot())
    else:
        _emit(graph.to_json_obj())


def _cmd_star(ns):
    if ns.inverse:
        if ns.m is None:
            raise ValueError("star --inverse needs --m")
        t = _parse_king(ns.element, ns.m)
        _emit(star_inverse(t, ns.n, ns.m).to_json_obj())
    else:
        _emit(star(_parse_element(ns.element, ns.n)).to_json_obj())


def _cmd_king_check(ns):
    t = _parse_king(ns.element, ns.m)
    _emit({"king": is_king_tableau(t),
           "shape": list(t.shape().stripped()),
           "weight": list(king_weight(t))})


def _element_op(name):
    """The handler of an operator subcommand: bicrystal.<name>(j, element),
    printed as null when it vanishes; looked up when the command runs, as
    in _sweep."""
    def handler(ns):
        b = _parse_element(ns.element, ns.n)
        result = getattr(bicrystal, name)(ns.j, b)
        _emit(None if result is None else result.to_json_obj())
    return handler


def _cmd_charge(ns):
    if (ns.king is None) == (ns.element is None):
        raise ValueError("charge needs exactly one of --king or --element")
    if ns.king is not None:
        if ns.m is None:
            raise ValueError("charge --king needs --m")
        _emit({"charge": charge_king(_parse_king(ns.king, ns.m))})
    else:
        if ns.n is None:
            raise ValueError("charge --element needs --n")
        _emit(statistics(_parse_element(ns.element, ns.n)))


def _sweep(name, args=attrgetter("n", "m")):
    """The handler of a sweep subcommand: verify.<name> on args(ns), whose
    report is printed; exit 1 if it lists failures.  The sweep is looked up
    when the command runs, so a replaced verify.<name> takes effect."""
    def handler(ns):
        rep = getattr(verify, name)(*args(ns))
        _emit(rep)
        if rep["failures"]:
            return 1
    return handler


# -- parser -----------------------------------------------------------------


@cache
def _build_parser():
    """The top-level parser, and each subcommand's handler and flag table.

    add() declares each flag once, to argparse, and files the action it
    returns in the table that _fast_parse reads: "--flag" to dest, type and
    whether it is store_true, beside the defaults of optional flags and the
    dests of required ones.  argparse alone writes help, usage and errors.
    """
    # built once per process: parsing returns a fresh Namespace on every
    # call, and no handler touches a parser or table: no state outlives a call
    parser = argparse.ArgumentParser(
        prog="howekit",
        description="exact duality checks for symplectic characters, "
                    "crystals and King tableaux")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="SUBCOMMAND")
    commands = {}
    config = {"default": None,
              "help": "key=value file overriding size caps for this command"}

    def add(name, handler, help_text, **args):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        flags, defaults, required = {}, {}, {}
        for flag, kw in {"config": config, **args}.items():
            option = "--" + flag.replace("_", "-")
            a = p.add_argument(option, **kw)
            flags[option] = a.dest, a.type, kw.get("action") == "store_true"
            (required if a.required else defaults)[a.dest] = a.default
        commands[name] = handler, flags, defaults, required

    req_int = {"type": int, "required": True}
    req_str = {"required": True}

    add("hat", _cmd_hat, "conjugate of the rectangle complement, as a "
        "length-m weight vector",
        partition=req_str, n=req_int, m=req_int)
    add("conjugate", _cmd_conjugate, "transpose a partition",
        partition=req_str)
    add("kostant", _cmd_kostant, "Kostant partition count of a weight "
        "vector",
        family=req_str, m=req_int, beta=req_str,
        twisted={"action": "store_true",
                 "help": "type C count twisted by the sign of the long "
                         "roots"})
    add("weight-mult", _cmd_weight_mult, "weight multiplicity by the "
        "Kostant alternating sum",
        family=req_str, m=req_int, lam=req_str, mu=req_str)
    add("branch", _cmd_branch, "branching coefficient of a block-diagonal "
        "subalgebra",
        kappa=req_str, symbols=req_str, sizes=req_str, nu=req_str)
    add("character", _cmd_character, "irreducible character as a Laurent "
        "polynomial",
        family=req_str, n=req_int, lam=req_str)
    add("decompose", _cmd_decompose, "expand a Weyl-invariant polynomial "
        "into irreducible characters",
        family=req_str, n=req_int,
        input={"default": "-",
               "help": "polynomial JSON file, '-' for stdin (default)"})
    add("product", _cmd_product, "character of a tensor product of "
        "restricted factors",
        symbols=req_str, sizes=req_str, mu=req_str, n=req_int)
    add("crystal-graph", _cmd_crystal_graph, "generate the crystal graph "
        "from a seed element",
        seed=req_str, n=req_int,
        ops={"default": None, "help": "operator indices (default: all)"},
        dot={"action": "store_true", "help": "emit DOT instead of JSON"})
    add("star", _cmd_star, "star-dual King columns of an element (or the "
        "inverse map)",
        element=req_str, n=req_int,
        m={"type": int, "default": None},
        inverse={"action": "store_true"})
    add("king-check", _cmd_king_check, "test the King tableau property",
        element=req_str, m=req_int)
    add("kappa", _element_op("kappa"), "contraction of column j (j < 0 for "
        "the barred transported operator)",
        element=req_str, n=req_int, j=req_int)
    add("jdt", _element_op("jdt_bar"), "jeu de taquin slide on the bar "
        "complement",
        element=req_str, n=req_int, j=req_int)
    add("charge", _cmd_charge, "charge of a King tableau, or the D "
        "statistics of an element",
        king={"default": None}, m={"type": int, "default": None},
        element={"default": None}, n={"type": int, "default": None})
    for name, sweep, help_text in [
            ("verify-schur", "verify_schur_duality",
             "sweep the type A duality"),
            ("verify-howe", "verify_howe_duality", "sweep the type C duality"),
            ("verify-bijection", "verify_bijection", "sweep the star "
             "bijection against King tableaux"),
            ("verify-contraction", "verify_contraction", "sweep commutation "
             "of contraction with the crystal operators"),
            ("verify-jdt", "verify_jdt", "sweep jeu de taquin against the "
             "transported operators")]:
        add(name, _sweep(sweep), help_text, n=req_int, m=req_int)
    add("verify-generalized",
        _sweep("verify_generalized_duality",
               attrgetter("n", "r", "size_bound")),
        "sweep the two multiplicity routes over block shapes",
        n=req_int, r=req_int,
        size_bound={"type": int, "default": 2})
    add("injectivity",
        _sweep("injectivity_scan",
               lambda ns: (_spec(ns), ns.part_bound, ns.n_bound)),
        "scan for distinct weights with equal branching vectors",
        symbols=req_str, sizes=req_str, part_bound=req_int, n_bound=req_int)
    return parser, commands


def _glue_negative_values(argv):
    """Join "--flag -3,-2" into "--flag=-3,-2" so barred letters parse."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        # the test re.match(r"-\d", nxt) makes, without a regex per token
        if (tok.startswith("--") and "=" not in tok and nxt[:1] == "-"
                and nxt[1:2].isdecimal()):
            out.append(tok + "=" + nxt)
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _fast_parse(commands, argv):
    """The Namespace argparse gives for argv, read in one pass over its
    subcommand's flag table; None unless every flag is spelled as declared,
    as "--flag value", "--flag=value" or a bare store_true "--flag", every
    value converts and does not start with "-" (negative ones are glued to
    their flag first), and every required flag is given."""
    if not argv or argv[0] not in commands:
        return None
    handler, flags, defaults, required = commands[argv[0]]
    values = dict(defaults)
    i = 1
    while i < len(argv):
        flag, eq, value = argv[i].partition("=")
        if flag not in flags:
            return None
        dest, kind, store_true = flags[flag]
        i += 1
        if store_true:
            if eq:
                return None
            value = True
        elif not eq:
            if i == len(argv) or argv[i][:1] == "-":
                return None
            value = argv[i]
            i += 1
        if kind is not None:
            try:
                value = kind(value)
            except ValueError:
                return None
        values[dest] = value
    if not values.keys() >= required.keys():
        return None
    return argparse.Namespace(command=argv[0], handler=handler, **values)


def dispatch(argv):
    parser, commands = _build_parser()
    argv = _glue_negative_values(list(argv))
    ns = _fast_parse(commands, argv)
    if ns is None:
        try:
            ns = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        caps = _read_config(ns.config) if ns.config else {}
        with limits.overridden(caps):
            return ns.handler(ns) or 0
    except (HowekitError, ValueError, KeyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
