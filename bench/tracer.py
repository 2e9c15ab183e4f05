"""Per-layer tracing of noethkit from outside its source.

`Tracer.install()` replaces the public functions of every noethkit module
with timing wrappers, at each module attribute that names them, so calls
made through cross-module imports (`sets.point_leq`, `wsts.up_closure`,
`expanders.in_generated_lattice`, ...) are caught too.  A few methods are
wrapped on their classes.  Every wrapped function belongs to one bucket
(a layer, or a named part of one); a call records a span on a stack, and
a bucket's self time is the duration of its spans minus the time their
child spans cover.  Spans are aggregated in memory as they close (per
bucket, and per parent->child bucket edge), because the hot layers make
millions of calls per run.  The wrappers' own cost per call is measured at
install and at uninstall (`wrapper_cost`), so that it can be taken out of
the self times of the callee and of the caller.

`uninstall()` puts every original back; `installed_wrappers()` lists any
wrapper still present, which the timed runs require to be empty.
"""

from __future__ import annotations

import importlib
import inspect
import time

MODULES = ("ordinal", "sexpr", "space", "sets", "expanders", "inductive",
           "wsts", "cli")

# (defining module, function name) -> bucket; unlisted functions fall in
# "<module>.other", except that ordinal, sexpr and cli are one bucket each.
BUCKETS = {
    ("space", "point_leq"): "space.leq",
    ("space", "higman_leq"): "space.leq",
    ("space", "ow_higman_leq"): "space.leq",
    ("space", "enumerate_points"): "space.enumerate",
    ("space", "typecheck"): "space.typecheck",
    ("sets", "member_open"): "sets.member",
    ("sets", "member_closed"): "sets.member",
    ("sets", "normalize_open"): "sets.normalize",
    ("sets", "open_key"): "sets.normalize",
    ("sets", "extent"): "sets.extent",
    ("sets", "oracle_for"): "sets.extent",
    ("sets", "ExtentOracle.extent"): "sets.extent",
    ("sets", "ExtentOracle.extent_list"): "sets.extent",
    ("sets", "includes"): "sets.includes",
    ("sets", "find_good_index"): "sets.find_good_index",
    ("sets", "in_generated_lattice"): "sets.lattice",
    ("sets", "restrict"): "sets.lattice",
    ("expanders", "apply"): "expanders.apply",
    ("expanders", "check_respects_subsets"): "expanders.respects",
    ("expanders", "find_bad_chain"): "expanders.badchain",
    ("inductive", "DivisibilityTable.__init__"): "inductive.table",
    ("inductive", "check_preorder_stability"): "inductive.table",
    ("inductive", "divisibility_leq"): "inductive.table",
    ("inductive", "div_exp_generators"): "inductive.unfold",
    ("wsts", "backward_coverability"): "wsts.saturate",
    ("wsts", "minimize_basis"): "wsts.saturate",
}

# Functions whose bucket depends on the module that calls them.
CALLER_BUCKETS = {
    ("wsts", "up_closure"): "wsts.basis_open",
    ("wsts", "find_good_index"): "wsts.certify",
}

WHOLE_MODULE = {"ordinal": "ordinal", "sexpr": "sexpr", "cli": "cli.main"}

# Methods wrapped on their classes: (module, class) -> method names.
METHODS = {
    ("sets", "ExtentOracle"): ("extent", "extent_list"),
    ("inductive", "DivisibilityTable"): ("__init__",),
    ("inductive", "UnfoldExpander"): ("fresh_generators",),
    ("expanders", "NatShiftExpander"): ("fresh_generators",),
    ("expanders", "PrefixExpander"): ("fresh_generators",),
    ("expanders", "SubwordExpander"): ("fresh_generators",),
    ("expanders", "TreeExpander"): ("fresh_generators",),
    ("expanders", "OrdinalSubwordExpander"): ("fresh_generators",),
    ("expanders", "OrdinalTreeExpander"): ("fresh_generators",),
}

# Generator methods are counted, not timed: their work runs in the caller.
COUNTED = {
    ("wsts", "VAS"): ("pred_basis",),
    ("wsts", "LossyChannelSystem"): ("pred_basis",),
}

MARK = "_noethkit_bench_wrapper"


def modules():
    """Import every noethkit module (set-up, so never inside a timed region)."""
    return {name: importlib.import_module("noethkit." + name) for name in MODULES}


def bucket_of(defining: str, name: str, caller: str) -> str:
    if (caller, name) in CALLER_BUCKETS:
        return CALLER_BUCKETS[(caller, name)]
    if (defining, name) in BUCKETS:
        return BUCKETS[(defining, name)]
    return WHOLE_MODULE.get(defining, defining + ".other")


class Tracer:
    def __init__(self):
        self.stack = []         # open spans: [bucket, time covered by children]
        self.stats = {}         # wrapped attribute -> [bucket, calls, self seconds]
        self.edges = {}         # (parent bucket, bucket) -> [calls, seconds]
        self.costs = []         # wrapper_cost() at install and at uninstall
        self.counters = {}
        self.top_s = 0.0        # time covered by spans with no parent
        self._saved = []        # (owner, attribute, original)

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        self.costs.append(wrapper_cost())
        mods = modules()
        for caller, module in mods.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or inspect.isclass(value) \
                        or not callable(value):
                    continue
                defining = getattr(value, "__module__", "") or ""
                if not defining.startswith("noethkit."):
                    continue
                defining = defining.split(".", 1)[1]
                if inspect.isgeneratorfunction(value):
                    wrapper = self._counted(defining + "." + attr, value)
                else:
                    bucket = bucket_of(defining, attr, caller)
                    wrapper = self._span(bucket, caller + "." + attr, value,
                                         self._hook(bucket, attr))
                self._replace(module, attr, wrapper)
        for (mod, cls_name), names in METHODS.items():
            cls = getattr(mods[mod], cls_name)
            for name in names:
                original = vars(cls)[name]
                label = "%s.%s.%s" % (mod, cls_name, name)
                if (cls_name, name) == ("ExtentOracle", "extent"):
                    wrapper = self._extent_span(label, original)
                else:
                    hook = self._candidates if name == "fresh_generators" else None
                    wrapper = self._span(bucket_of(mod, cls_name + "." + name, mod),
                                         label, original, hook)
                self._replace(cls, name, wrapper)
        for (mod, cls_name), names in COUNTED.items():
            cls = getattr(mods[mod], cls_name)
            for name in names:
                self._replace(cls, name,
                              self._counted("wsts.pred_calls", vars(cls)[name]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.costs.append(wrapper_cost())

    def wrapper_cost_s(self) -> tuple:
        """(inner, outer) seconds a wrapped call adds, averaged over the
        measurements at install and at uninstall (the host's speed may
        change between them)."""
        return tuple(sum(c[k] for c in self.costs) / len(self.costs)
                     for k in (0, 1))

    def _replace(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- wrappers --------------------------------------------------------------

    def _span(self, bucket, label, fn, after=None):
        stack = self.stack
        stat = self.stats.setdefault(label, [bucket, 0, 0.0])
        edges = self.edges
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [bucket, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat[1] += 1
                stat[2] += duration - frame[1]
                if parent is None:
                    tracer.top_s += duration
                else:
                    parent[1] += duration
                    edge = edges.setdefault((parent[0], bucket), [0, 0.0])
                    edge[0] += 1
                    edge[1] += duration
            if after is not None:
                after(args, result)
            return result

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def _extent_span(self, label, fn):
        # Memo hits are read before the call, from the oracle's own dicts.
        counters = self.counters

        def probe(oracle, s):
            hit = s in oracle._open or s in oracle._closed
            counters["sets.extent.lookups"] = \
                counters.get("sets.extent.lookups", 0) + 1
            counters["sets.extent.memo_hits"] = \
                counters.get("sets.extent.memo_hits", 0) + hit
            return fn(oracle, s)

        return self._span("sets.extent", label, probe)

    def _counted(self, name, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] = counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters read from arguments and results --------------------------------

    def _add(self, name, n) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _hook(self, bucket, attr):
        if bucket == "expanders.apply":
            return lambda args, stage: self._add(
                "expanders.kept", len(stage.generators) - len(args[1].generators))
        if bucket == "inductive.unfold":
            return lambda args, gens: self._add("inductive.unfold.candidates",
                                                len(gens))
        if bucket == "sets.includes":
            return lambda args, r: self._add("sets.includes.exact",
                                             r.via != "extent")
        if attr == "backward_coverability":
            def saturated(args, result):
                self._add("wsts.rounds", result.rounds)
                self._add("wsts.inserted", result.inserted)
            return saturated
        return None

    def _candidates(self, args, gens) -> None:
        # Only generators emitted inside `apply` are candidates of a stage;
        # the stack top is the caller's span once the call has returned.
        if self.stack and self.stack[-1][0] == "expanders.apply":
            self._add("expanders.candidates", len(gens))


def wrapper_cost(calls: int = 20000, trials: int = 3) -> tuple:
    """Seconds that a span wrapper adds to one call, split by where the
    tracer books them: (inner, outer).  Inner is the time inside the span's
    clock readings, booked as the callee's self time; outer is the rest
    (building the frame, stack push and pop, statistics and edge updates,
    the extra call), booked as the caller's self time.  Measured on a
    wrapped no-op called from a wrapped loop, against the same loop calling
    the no-op directly, so inner + outer is the whole added cost; the
    median of `trials` measurements."""
    def noop():
        return None

    def direct():
        for _ in range(calls):
            noop()

    inners, outers = [], []
    for _ in range(trials):
        probe = Tracer()
        inner = probe._span("inner", "inner", noop)

        def wrapped():
            for _ in range(calls):
                inner()

        start = time.perf_counter()
        direct()
        base = time.perf_counter() - start
        probe._span("outer", "outer", wrapped)()
        inners.append(probe.stats["inner"][2] / calls)
        outers.append(max(probe.stats["outer"][2] - base, 0.0) / calls)
    return sorted(inners)[trials // 2], sorted(outers)[trials // 2]


def installed_wrappers():
    """Names of noethkit attributes that are still bench wrappers."""
    found = []
    mods = modules()
    owners = list(mods.items())
    owners += [("%s.%s" % key, getattr(mods[key[0]], key[1]))
               for key in list(METHODS) + list(COUNTED)]
    for label, owner in owners:
        for attr, value in vars(owner).items():
            if getattr(value, MARK, False):
                found.append("%s.%s" % (label, attr))
    return found


def memo_stats() -> dict:
    """Memo sizes and hit ratios, read from the memos themselves (with the
    wrappers removed)."""
    from noethkit import sets, space
    leq = space._leq.cache_info()
    key = sets.open_key.cache_info()
    oracles = list(sets._ORACLES.values())
    return {
        "space.leq.memo_entries": leq.currsize,
        "space.leq.memo_hits": leq.hits,
        "space.leq.memo_misses": leq.misses,
        "sets.open_key.memo_hits": key.hits,
        "sets.open_key.memo_misses": key.misses,
        "sets.extent.memo_entries": sum(len(o._open) + len(o._closed)
                                        for o in oracles),
        "space.universe_points": sum(len(o.universe) for o in oracles),
        "sets.oracles": len(oracles),
    }
