"""Per-layer tracing installed from outside the package.

`install()` replaces each traced public function of opfactor at every
binding site: the module that defines it, every `from .x import f`
copy in the other opfactor modules, and the package namespace.
Function-local imports (`from .expr import evaluate` inside the numeric
probe) read the defining module at call time, so they see the wrapper
too.  Nothing under src/ is edited.

A span records name, start, end, parent span and request id (LEAF
functions are timed and counted but leave no span record).  Spans
stay in memory (the first SPAN_CAP of them; later ones are counted as
dropped) and `write_spans` writes them out when the run ends.  Self
time is a span's duration minus the durations of its child spans, and
is accumulated as spans close, so it covers every span, kept or not.

A call made directly inside a span of the same name (recursion, or
apply_operator calling apply_to_expr) is folded into the open span:
`calls` counts outermost calls.  Calls made while no request span is
open (input generation, verification) pass straight through, and the
simplify cache counters are read at request boundaries, so only the
requests themselves are measured.
"""

import sys
import time

SPAN_CAP = 200_000

# span name -> (module, function names)
TIMED = {
    "expr.simplify": ("opfactor.expr", ("simplify",)),
    "expr.total_derivative": ("opfactor.expr", ("total_derivative",)),
    "expr.evaluate": ("opfactor.expr", ("evaluate",)),
    "expr.poly_sqrt": ("opfactor.expr", ("poly_sqrt",)),
    "parse.parse_expr": ("opfactor.parse", ("parse_expr",)),
    "problemfile.parse_problem": ("opfactor.problemfile", ("parse_problem",)),
    "operator.expand_product": ("opfactor.operator", ("expand_product",)),
    "operator.matrix_expand_product": ("opfactor.operator", ("matrix_expand_product",)),
    "operator.operator_from_jet": ("opfactor.operator", ("operator_from_jet",)),
    "operator.apply": ("opfactor.operator", ("apply_operator", "apply_to_expr",
                                             "matrix_apply")),
    "conditions.check": ("opfactor.conditions", ("check_candidate",)),
    "conditions.derive_conditions": ("opfactor.conditions", ("derive_conditions",)),
    "conditions.condition_residuals": ("opfactor.conditions", ("condition_residuals",)),
    "conditions.discriminant": ("opfactor.conditions", ("discriminant",)),
    "factor.ode": ("opfactor.factor", ("factor_ode",)),
    "factor.constant": ("opfactor.factor", ("factor_constant",)),
    "factor.riccati": ("opfactor.factor", ("solve_riccati_ansatz",)),
    "factor.pde": ("opfactor.factor", ("factor_pde_second_order",)),
    "cascade.ode": ("opfactor.cascade", ("cascade_ode",)),
    "cascade.system": ("opfactor.cascade", ("cascade_system_numeric",)),
    "cascade.antiderivative": ("opfactor.cascade", ("antiderivative",)),
    "cascade.verify_solution": ("opfactor.cascade", ("verify_solution",)),
    "cli.main": ("opfactor.cli", ("main",)),
}

# hot functions that call no other traced function: timed and counted
# without a span record or a frame, which keeps most of the tracing cost
# out of their callers' self time
LEAF = frozenset({"expr.simplify", "expr.evaluate"})

# counted, not timed
COUNTED = {"jet.calls": ("opfactor.jet", ("compose_index", "decompose_index",
                                          "canonical_slot"))}

# the numeric probe of check_candidate: outermost spans of these names
# inside a conditions.check span make up its probe_s
PROBE = frozenset({"operator.apply", "expr.evaluate"})

FACTOR_OUTCOMES = ("factored", "empty", "obligation", "residual_obstruction",
                   "NoRealFactorization", "other_error")

# every per-layer metric a traced run reports: name -> unit
PER_LAYER = {"jet.calls": "count"}
for _name in TIMED:
    if _name not in ("conditions.check", "factor.ode"):
        PER_LAYER[f"{_name}.calls"] = "count"
        PER_LAYER[f"{_name}.self_s"] = "s"
PER_LAYER.pop("cascade.antiderivative.self_s")
PER_LAYER.update({
    "expr.simplify.hit_ratio": "ratio",
    "expr.simplify.cache_size": "count",
    "expr.sort_key.cache_size": "count",
    "operator.expand_product.jet_terms": "count",
    "conditions.check.calls": "count",
    "conditions.check.symbolic_s": "s",
    "conditions.check.probe_s": "s",
    "conditions.check.pass_ratio": "ratio",
    "factor.riccati.found_ratio": "ratio",
    "factor.pde.obligations": "count",
    "cascade.antiderivative.hit_ratio": "ratio",
    "cascade.pieces.closed_form": "count",
    "cascade.pieces.quadrature": "count",
    "cascade.pieces.rk4": "count",
    "cli.import_s": "s",
})
for _outcome in FACTOR_OUTCOMES:
    PER_LAYER[f"factor.outcome.{_outcome}"] = "count"


def _add(table, key, values):
    """Add a (calls, ns, ns) triple into table[key]."""
    acc = table.get(key)
    if acc is None:
        acc = table[key] = [0, 0, 0]
    for i in range(3):
        acc[i] += values[i]


class Tracer:
    def __init__(self):
        self.stack = []      # open frames: [name, start_ns, child_ns, span_id, probe_ns]
        self.stats = {}      # name -> [calls, self_ns, total_ns]
        self.by_kind = {}    # (kind, name) -> [calls, self_ns, total_ns]
        self.check = {}      # kind -> [calls, symbolic_ns, probe_ns]
        self.counts = dict.fromkeys(COUNTED, 0)
        self.events = {}     # name -> count, from result hooks
        self.leaf_acc = {}
        self.spans = []
        self.dropped = 0
        self.request = -1
        self.kind = ""
        self.probe_depth = 0
        self.checks_open = []
        self.simplify_hits = self.simplify_misses = 0
        self.simplify_size = self.sort_key_size = 0
        self._simplify = self._sort_key = self._info = None
        self.sites = 0

    # -- spans ---------------------------------------------------------

    def enter(self, name):
        spans = self.spans
        if len(spans) < SPAN_CAP:
            sid = len(spans)
            spans.append(None)
        else:
            sid = -1
            self.dropped += 1
        frame = [name, 0, 0, sid, 0]
        self.stack.append(frame)
        if name in PROBE:
            self.probe_depth += 1
        elif name == "conditions.check":
            self.checks_open.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def leave(self, frame):
        end = time.perf_counter_ns()
        name, start, child, sid, probe = frame
        dur = end - start
        stack = self.stack
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += dur
        _add(self.stats, name, (1, dur - child, dur))
        _add(self.by_kind, (self.kind, name), (1, dur - child, dur))
        if name in PROBE:
            self.probe_depth -= 1
            if self.probe_depth == 0 and self.checks_open:
                self.checks_open[-1][4] += dur
        elif name == "conditions.check":
            self.checks_open.pop()
            _add(self.check, self.kind, (1, dur - probe, probe))
        if sid >= 0:
            self.spans[sid] = (sid, parent[3] if parent is not None else -1,
                               self.request, name, start, end)

    def begin_request(self, index, kind):
        self.request = index
        self.kind = kind
        self._info = self._simplify.cache_info()
        return self.enter("request")

    def end_request(self, frame):
        self.leave(frame)
        self.flush_leaves()
        info = self._simplify.cache_info()
        self.simplify_hits += info.hits - self._info.hits
        self.simplify_misses += info.misses - self._info.misses
        self.simplify_size = info.currsize
        self.sort_key_size = self._sort_key.cache_info().currsize

    def event(self, name, n=1):
        self.events[name] = self.events.get(name, 0) + n

    # -- wrappers ------------------------------------------------------

    def timed(self, name, fn, on_result=None, on_error=None):
        stack = self.stack
        enter, leave = self.enter, self.leave

        def wrapper(*args, **kwargs):
            if not stack or stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                leave(frame)
                if on_error is not None:
                    on_error(err)
                raise
            leave(frame)
            if on_result is not None:
                on_result(out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def leaf(self, name, fn):
        stack = self.stack
        now = time.perf_counter_ns
        acc = self.leaf_acc[name] = [0, 0]  # calls, ns in the open request
        active = [False]
        probe = name in PROBE
        checks_open = self.checks_open
        tracer = self

        def wrapper(*args, **kwargs):
            if active[0] or not stack:
                return fn(*args, **kwargs)
            active[0] = True
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = now() - start
                active[0] = False
                stack[-1][2] += dur
                acc[0] += 1
                acc[1] += dur
                if probe and checks_open and not tracer.probe_depth:
                    checks_open[-1][4] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def flush_leaves(self):
        for name, acc in self.leaf_acc.items():
            if acc[0]:
                _add(self.stats, name, (acc[0], acc[1], acc[1]))
                _add(self.by_kind, (self.kind, name), (acc[0], acc[1], acc[1]))
                acc[0] = acc[1] = 0

    def counted(self, name, fn):
        counts = self.counts
        stack = self.stack

        def wrapper(*args, **kwargs):
            if stack:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- result hooks --------------------------------------------------

    def _hooks(self):
        ev = self.event

        def pieces(sol):
            for p in sol.pieces:
                ev("cascade.pieces." + p.provenance.replace("-", "_"))

        def factor_error(err):
            name = type(err).__name__
            ev("factor.outcome." + (name if name in FACTOR_OUTCOMES else "other_error"))

        def ode_outcome(cands):
            ev("factor.outcome." + ("factored" if cands else "empty"))

        def pde_outcome(res):
            if res.obligation is not None:
                ev("factor.pde.obligations")
                ev("factor.outcome.obligation")
            else:
                ev("factor.outcome." + ("factored" if res.candidates
                                        else "residual_obstruction"))

        return {
            "operator.expand_product": (
                lambda jp: ev("operator.expand_product.jet_terms", len(jp.terms)), None),
            "conditions.check": (lambda rep: ev("conditions.check.passed", int(rep.passed)),
                                 None),
            "factor.riccati": (lambda ys: ev("factor.riccati.found", int(bool(ys))), None),
            "factor.ode": (ode_outcome, factor_error),
            "factor.pde": (pde_outcome, factor_error),
            "cascade.antiderivative": (
                lambda prim: ev("cascade.antiderivative.hits", int(prim is not None)), None),
            "cascade.ode": (pieces, None),
            "cascade.system": (pieces, None),
        }

    # -- installation --------------------------------------------------

    def install(self, extra=()):
        """Wrap every traced function at each of its binding sites, in
        opfactor and in the `extra` modules (the benchmark's callers)."""
        import importlib
        for modname, _ in (*TIMED.values(), *COUNTED.values()):
            importlib.import_module(modname)
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "opfactor" or n.startswith("opfactor."))]
        mods += list(extra)
        hooks = self._hooks()
        expr = sys.modules["opfactor.expr"]
        self._simplify, self._sort_key = expr.simplify, expr.sort_key
        replace = {}
        for name, (modname, funcs) in TIMED.items():
            on_result, on_error = hooks.get(name, (None, None))
            for f in funcs:
                orig = getattr(sys.modules[modname], f)
                wrapper = (self.leaf(name, orig) if name in LEAF
                           else self.timed(name, orig, on_result, on_error))
                replace[id(orig)] = (orig, wrapper)
        for name, (modname, funcs) in COUNTED.items():
            for f in funcs:
                orig = getattr(sys.modules[modname], f)
                replace[id(orig)] = (orig, self.counted(name, orig))
        sites = 0
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    sites += 1
        self.sites = sites
        return self

    # -- results -------------------------------------------------------

    def raw(self) -> dict:
        """Additive counters, for merging traces of several processes."""
        return {
            "stats": self.stats,
            "by_kind": [[k, n, v] for (k, n), v in self.by_kind.items()],
            "check": self.check,
            "counts": self.counts,
            "events": self.events,
            "simplify_hits": self.simplify_hits,
            "simplify_misses": self.simplify_misses,
            "simplify_cache_size": self.simplify_size,
            "sort_key_cache_size": self.sort_key_size,
            "spans_dropped": self.dropped,
            "sites": self.sites,
        }


def empty_raw() -> dict:
    """Merged counters of no process yet, plus a list for kept spans."""
    return {"stats": {}, "by_kind": {}, "check": {}, "counts": {}, "events": {},
            "simplify_hits": 0, "simplify_misses": 0, "simplify_cache_size": 0,
            "sort_key_cache_size": 0, "spans_dropped": 0, "sites": 0,
            "import_s": 0.0, "spans": []}


def merge(into: dict, raw: dict) -> dict:
    """Add one process's raw counters (`Tracer.raw()`) into `into`."""
    for name, v in raw["stats"].items():
        _add(into["stats"], name, v)
    for kind, name, v in raw["by_kind"]:
        _add(into["by_kind"], (kind, name), v)
    for kind, v in raw["check"].items():
        _add(into["check"], kind, v)
    for key in ("counts", "events"):
        for name, v in raw[key].items():
            into[key][name] = into[key].get(name, 0) + v
    for key in ("simplify_hits", "simplify_misses", "spans_dropped", "import_s"):
        into[key] += raw.get(key, 0)
    for key in ("simplify_cache_size", "sort_key_cache_size", "sites"):
        into[key] = max(into[key], raw[key])
    return into


def per_layer_metrics(raw: dict) -> dict:
    """Every PER_LAYER metric, from merged raw counters; 0 where a layer
    did not run."""
    stats, ev = raw["stats"], raw["events"]
    out = {}
    for name, unit in PER_LAYER.items():
        out[name] = 0
    out["jet.calls"] = sum(raw["counts"].values())
    for name, (calls, self_ns, _) in stats.items():
        if f"{name}.calls" in out:
            out[f"{name}.calls"] = calls
        if f"{name}.self_s" in out:
            out[f"{name}.self_s"] = self_ns / 1e9
    total = raw["simplify_hits"] + raw["simplify_misses"]
    out["expr.simplify.hit_ratio"] = raw["simplify_hits"] / total if total else 0.0
    out["expr.simplify.cache_size"] = raw["simplify_cache_size"]
    out["expr.sort_key.cache_size"] = raw["sort_key_cache_size"]
    out["operator.expand_product.jet_terms"] = ev.get("operator.expand_product.jet_terms", 0)
    checks = [0, 0, 0]
    for v in raw["check"].values():
        for i in range(3):
            checks[i] += v[i]
    out["conditions.check.calls"] = checks[0]
    out["conditions.check.symbolic_s"] = checks[1] / 1e9
    out["conditions.check.probe_s"] = checks[2] / 1e9
    out["conditions.check.pass_ratio"] = (ev.get("conditions.check.passed", 0) / checks[0]
                                          if checks[0] else 0.0)
    riccati = stats.get("factor.riccati", [0])[0]
    out["factor.riccati.found_ratio"] = (ev.get("factor.riccati.found", 0) / riccati
                                         if riccati else 0.0)
    out["factor.pde.obligations"] = ev.get("factor.pde.obligations", 0)
    anti = stats.get("cascade.antiderivative", [0])[0]
    out["cascade.antiderivative.hit_ratio"] = (ev.get("cascade.antiderivative.hits", 0) / anti
                                               if anti else 0.0)
    for prov in ("closed_form", "quadrature", "rk4"):
        out[f"cascade.pieces.{prov}"] = ev.get(f"cascade.pieces.{prov}", 0)
    for outcome in FACTOR_OUTCOMES:
        out[f"factor.outcome.{outcome}"] = ev.get(f"factor.outcome.{outcome}", 0)
    out["cli.import_s"] = raw.get("import_s", 0.0)
    return out


def write_spans(path: str, spans):
    """Write spans as CSV: id,parent,request,name,start_ns,end_ns.

    Span ids are unique within a process; in cli-corpus each request is
    its own process, so (request, id) identifies a span there."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,parent,request,name,start_ns,end_ns\n")
        for span in spans:
            fh.write(",".join(str(x) for x in span) + "\n")
