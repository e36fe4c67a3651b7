"""Per-layer tracing of howekit from outside the library.

The tracer replaces public names of the howekit modules with timing
wrappers for the life of one worker process; the library source is not
touched.  A name that no longer exists is reported as absent instead of
failing, so later refactors of the library do not break the benchmark.

Spans are kept in memory only for the coarse boundaries (a sweep or a CLI
call and the layer entries directly under it).  Every call, including the
hot leaves such as kostant_partition, is aggregated per (name, parent
name) into calls, total time and time covered by child spans, so the self
time of a name is total minus child time.
"""

import importlib
import sys
import time
import types

# Traced names: metric name -> (module, attribute path inside the module).
LAYERS = {
    "partfn.branching_coefficient": ("howekit.partfn", "branching_coefficient"),
    "partfn.weight_multiplicity": ("howekit.partfn", "weight_multiplicity"),
    "partfn.kostant_partition": ("howekit.partfn", "kostant_partition"),
    "weyl.act": ("howekit.weyl", "act"),
    "weyl.sign": ("howekit.weyl", "sign"),
    "weyl.dot_rho": ("howekit.weyl", "dot_rho"),
    "weyl.enumerate_weyl": ("howekit.weyl", "enumerate_weyl"),
    "laurent.init": ("howekit.laurent", "LaurentPolynomial.__init__"),
    "laurent.mul": ("howekit.laurent", "LaurentPolynomial.__mul__"),
    "laurent.add": ("howekit.laurent", "LaurentPolynomial.__add__"),
    "laurent.exact_div": ("howekit.laurent", "LaurentPolynomial.exact_div"),
    "characters.weyl_character": ("howekit.characters", "weyl_character"),
    "characters.decompose": ("howekit.characters", "decompose"),
    "characters.char_product": ("howekit.characters", "char_product"),
    "characters.elem_sym": ("howekit.characters", "elem_sym"),
    "crystals.enumerate_B": ("howekit.crystals", "enumerate_B"),
    "crystals.is_highest_weight": ("howekit.crystals", "is_highest_weight"),
    "crystals.crystal_e": ("howekit.crystals", "crystal_e"),
    "crystals.weight_of": ("howekit.crystals", "weight_of"),
    "duality.enumerate_king_tableaux": ("howekit.duality",
                                        "enumerate_king_tableaux"),
    "duality.star": ("howekit.duality", "star"),
    "duality.star_inverse": ("howekit.duality", "star_inverse"),
    "duality.is_king_tableau": ("howekit.duality", "is_king_tableau"),
    "bicrystal.kappa": ("howekit.bicrystal", "kappa"),
    "bicrystal.jdt_bar": ("howekit.bicrystal", "jdt_bar"),
    "bicrystal.statistics": ("howekit.bicrystal", "statistics"),
    "cli.dispatch": ("howekit.cli", "dispatch"),
}

# Every public verify_* sweep is traced under the one name "verify".
SWEEP_MODULE = "howekit.verify"

# Candidate King tableaux: KingElement constructions while the enumerator
# runs.
CANDIDATE_CLASS = ("howekit.duality", "KingElement.__init__")
CANDIDATE_PARENT = "duality.enumerate_king_tableaux"

# Spans at this depth or above (1 = outermost) are stored one by one.
STORED_DEPTH = 2
MAX_STORED = 200_000


def _key(args):
    """A hashable stand-in for call arguments, for repeat shares."""
    try:
        return hash(args)
    except TypeError:
        return hash(repr(args))


class Tracer:
    """Aggregating span tracer for a single thread.

    clock is injectable so that tests can drive the arithmetic with a
    scripted clock.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []          # frames: [name, child_time, span_id]
        self.agg = {}            # (name, parent) -> [calls, total, child]
        self.spans = []          # (id, parent_id, name, start, end)
        self.dropped = 0
        self.counts = {}         # name -> extra counters
        self.seen = {}           # name -> set of argument keys
        self.active = {}         # name -> open frames with that name
        self.absent = []
        self._next_id = 1

    # -- span bookkeeping --------------------------------------------------

    def _enter(self, name):
        span_id = self._next_id
        self._next_id += 1
        self.stack.append([name, 0.0, span_id])
        self.active[name] = self.active.get(name, 0) + 1
        return self.clock()

    def _exit(self, name, start, call):
        end = self.clock()
        frame = self.stack.pop()
        self.active[name] -= 1
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += dur
        rec = self.agg.get((name, parent and parent[0]))
        if rec is None:
            rec = self.agg[(name, parent and parent[0])] = [0, 0.0, 0.0]
        rec[0] += call
        rec[1] += dur
        rec[2] += frame[1]
        if len(self.stack) < STORED_DEPTH:
            if len(self.spans) < MAX_STORED:
                self.spans.append((frame[2], parent and parent[2], name,
                                   start, end))
            else:
                self.dropped += 1

    def bump(self, name, counter, by=1):
        c = self.counts.setdefault(name, {})
        c[counter] = c.get(counter, 0) + by

    def note_args(self, name, args):
        """Count a call and whether its arguments were seen before."""
        seen = self.seen.setdefault(name, set())
        k = _key(args)
        if k in seen:
            self.bump(name, "repeats")
        else:
            seen.add(k)

    def wrap(self, name, fn, observe=None):
        """A function that runs fn inside a span called name.

        observe(args, result) runs after the span closes.  Generators are
        timed step by step; each step is a span and each item counts as
        yielded.
        """
        tracer = self

        def steps(gen):
            while True:
                start = tracer._enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._exit(name, start, 0)
                tracer.bump(name, "yielded")
                yield item

        def wrapper(*args, **kwargs):
            start = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, start, 1)
            if observe is not None:
                observe(args, result)
            if isinstance(result, types.GeneratorType):
                return steps(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, module_name, path, make):
        """Replace module_name.path by make(original) in the defining
        module and in every howekit module that imported the same object.
        Returns False when the name does not exist."""
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            return False
        wrapped = make(original)
        setattr(owner, attr, wrapped)
        if not outer:
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "howekit" and not mod_name.startswith("howekit."):
                    continue
                for k, v in list(vars(mod).items()):
                    if v is original:
                        setattr(mod, k, wrapped)
        return True

    def install(self):
        """Wrap every traced name; absent names are recorded, not raised."""
        observers = {
            "partfn.kostant_partition": self._obs_kostant,
            "characters.weyl_character": self._obs_repeat(
                "characters.weyl_character"),
            "laurent.mul": self._obs_terms("laurent.mul"),
            "crystals.is_highest_weight": self._obs_true(
                "crystals.is_highest_weight"),
            "duality.enumerate_king_tableaux": self._obs_king,
        }
        for name, (module_name, path) in LAYERS.items():
            ok = self._patch(module_name, path,
                             lambda f, n=name: self.wrap(n, f,
                                                         observers.get(n)))
            if not ok:
                self.absent.append(name)
        try:
            sweeps = importlib.import_module(SWEEP_MODULE)
        except ImportError:
            sweeps = None
        names = sorted(k for k in vars(sweeps) if k.startswith("verify_")
                       and callable(getattr(sweeps, k))) if sweeps else []
        for k in names:
            self._patch(SWEEP_MODULE, k,
                        lambda f: self.wrap("verify", f, self._obs_sweep))
        if not names:
            self.absent.append("verify")
        if not self._patch(*CANDIDATE_CLASS, self._candidate_hook):
            self.absent.append("duality.enumerate_king_tableaux.candidates")

    def _candidate_hook(self, init):
        tracer = self

        def counted_init(obj, *args, **kwargs):
            if tracer.active.get(CANDIDATE_PARENT):
                tracer.bump(CANDIDATE_PARENT, "candidates")
            return init(obj, *args, **kwargs)

        return counted_init

    # -- observers -----------------------------------------------------------

    def _obs_kostant(self, args, result):
        name = "partfn.kostant_partition"
        if result == 0:
            self.bump(name, "zeros")
        roots, beta = args[0], args[1]
        try:
            key = (tuple(map(tuple, roots)), tuple(beta))
        except TypeError:
            key = repr(args)
        self.note_args(name, key)

    def _obs_repeat(self, name):
        return lambda args, result: self.note_args(name, args)

    def _obs_terms(self, name):
        def observe(args, result):
            try:
                self.bump(name, "terms_out", len(result))
            except TypeError:
                pass
        return observe

    def _obs_true(self, name):
        def observe(args, result):
            if result:
                self.bump(name, "true")
        return observe

    def _obs_king(self, args, result):
        if not isinstance(result, types.GeneratorType):
            self.bump(CANDIDATE_PARENT, "yielded", len(result))

    def _obs_sweep(self, args, result):
        if isinstance(result, dict):
            self.bump("verify", "cells", result.get("cells", 0))

    # -- report --------------------------------------------------------------

    def totals(self):
        """name -> {"calls", "total_s", "self_s"} summed over parents."""
        out = {}
        for (name, _parent), (calls, total, child) in self.agg.items():
            t = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
            t["calls"] += calls
            t["total_s"] += total
            t["self_s"] += total - child
        return out

    def calls_under(self, name, parent):
        rec = self.agg.get((name, parent))
        return rec[0] if rec else 0

    def report(self):
        """Plain data for the worker's JSON result."""
        return {
            "totals": self.totals(),
            "counts": self.counts,
            "peels": self.calls_under("characters.weyl_character",
                                      "characters.decompose"),
            "absent": self.absent,
            "stored_spans": len(self.spans),
            "dropped_spans": self.dropped,
        }


def layer_metrics(report):
    """The per-layer metric values, by BENCHMARK.json name."""
    totals = report["totals"]
    counts = report["counts"]
    out = {}

    def share(part, whole):
        return part / whole if whole else 0.0

    for name in list(LAYERS) + ["verify"]:
        t = totals.get(name, {"calls": 0, "self_s": 0.0})
        out[name + ".calls"] = t["calls"]
        out[name + ".self_s"] = t["self_s"]

    kp = counts.get("partfn.kostant_partition", {})
    kp_calls = out["partfn.kostant_partition.calls"]
    out["partfn.kostant_partition.zero_share"] = share(kp.get("zeros", 0),
                                                       kp_calls)
    out["partfn.kostant_partition.repeat_share"] = share(
        kp.get("repeats", 0), kp_calls)
    out["laurent.mul.terms_out"] = counts.get("laurent.mul", {}).get(
        "terms_out", 0)
    out["characters.weyl_character.repeat_share"] = share(
        counts.get("characters.weyl_character", {}).get("repeats", 0),
        out["characters.weyl_character.calls"])
    out["characters.decompose.peels"] = report["peels"]
    out["crystals.enumerate_B.yielded"] = counts.get(
        "crystals.enumerate_B", {}).get("yielded", 0)
    out["crystals.is_highest_weight.true_share"] = share(
        counts.get("crystals.is_highest_weight", {}).get("true", 0),
        out["crystals.is_highest_weight.calls"])
    king = counts.get(CANDIDATE_PARENT, {})
    out[CANDIDATE_PARENT + ".candidates"] = king.get("candidates", 0)
    out[CANDIDATE_PARENT + ".yielded"] = king.get("yielded", 0)
    out[CANDIDATE_PARENT + ".yield_share"] = share(
        king.get("yielded", 0), king.get("candidates", 0))
    out["verify.cells"] = counts.get("verify", {}).get("cells", 0)
    return out
