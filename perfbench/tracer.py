"""Per-layer tracing of gsl from outside the library.

A Tracer wraps the public functions and methods of each layer module
(gf, linalg, talg, hopf, zoo, action, parse) for the length of a
``with`` block.  Module-level functions are replaced at every binding in
every loaded ``gsl`` module, because zoo, action and parse import
``hopf_verify``, ``apply_map`` and friends by name; methods are replaced
in the class dict, under every name that refers to them (``__radd__`` is
``__add__``).  Leaving the block restores every original.

Hot calls (Field, Poly, Subspace, reduce_term, ...) only add to counters
in place.  Coarse calls also keep a span (id, parent, job, name, start,
end) and an inclusive time taken over outermost calls only, so nested or
recursive calls are not counted twice.

Self time of a call is its duration minus the durations of the wrapped
calls it made.  The wrappers' own cost is taken out afterwards: its
total is the traced pass minus an untraced pass of the same jobs, spread
evenly over the wrapped calls, and ``calibrate`` measures which share of
it falls inside a call's interval (taken off that call's self time) and
which in its caller's (taken off the caller's).  The self times then add
up to the untraced pass.
"""

import statistics
import sys
import time
import types

LAYERS = ("gf", "linalg", "talg", "hopf", "zoo", "action", "parse")

# Public helpers that only their own layer calls, in its innermost loops;
# wrapping them would only add cost, as their time already stays in-layer.
SKIP = {"talg": {"mono_mul", "mono_pow", "mono_index", "index_mono",
                 "monomials", "strides"}}

# Dunder methods that are layer entry points (Poly arithmetic, construction).
DUNDERS = ("__init__", "__add__", "__sub__", "__rsub__", "__neg__",
           "__mul__", "__pow__", "__eq__")

# Coarse calls: a span each, plus an inclusive time.
SPANNED = {
    "talg": {"ideal_span", "apply_map", "quotient_algebra",
             "quotient_by_subspace", "invert_unit", "eliminate_linear",
             "subalgebra_generated", "weight_decomposition", "is_ideal"},
    "hopf": {"hopf_verify", "HopfAlgebra.__init__", "HopfAlgebra.delta_table",
             "morphism_check", "enumerate_subgroups", "enumerate_morphisms",
             "find_isomorphism", "kernel_subgroup", "image_subgroup",
             "closed_subgroup", "subgroup_from_elements", "quotient_group",
             "hopf_product", "presentations_equal", "primitive_elements",
             "hopf_ideal_closure", "frobenius", "points_group"},
    "zoo": "*", "action": "*", "parse": "*",
}

CONSTRUCTORS = ("alpha", "mu", "D", "H", "witt2", "kerFV", "E_trunc",
                "cocycle_ext", "SL2_kerF", "H_unip", "pullback", "semidirect",
                "zoo_parse")

# Counter names that differ from "<layer>.<qualified name>".
KEYS = {
    "talg.Poly.__add__": "talg.poly_add",
    "talg.Poly.__mul__": "talg.poly_mul",
    "talg.Poly.__pow__": "talg.poly_pow",
    "talg.Algebra.reduce_term": "talg.reduce_term",
    "talg.QuotientAlgebra.reduce_term": "talg.reduce_term",
    "talg.TensorAlgebra.reduce_term": "talg.reduce_term",
    "talg.TensorAlgebra.__init__": "talg.tensor_algebras",
    "linalg.Subspace.insert": "linalg.insert",
    "linalg.Subspace.residue": "linalg.residue",
    "linalg.Subspace.contains": "linalg.contains",
    "linalg.SpanSolver.add": "linalg.spansolver",
    "linalg.SpanSolver.express": "linalg.spansolver",
    "linalg.SpanSolver.contains": "linalg.spansolver",
    "hopf.HopfAlgebra.__init__": "hopf.init",
    "hopf.HopfAlgebra.delta_table": "hopf.delta_table",
}
for _name in CONSTRUCTORS:
    KEYS["zoo." + _name] = "zoo.build"
for _name in ("add", "sub", "neg", "mul", "inv"):
    KEYS["gf.Field." + _name] = "gf." + _name

MARK = "_perfbench_original"


class Stat(object):
    """Raw counters of one counter key; ``Tracer.corrected`` removes the
    wrappers' own cost from the times."""

    __slots__ = ("calls", "kids", "self_raw", "incl_raw", "top_calls",
                 "nested_in", "depth", "extra")

    def __init__(self):
        self.calls = 0        # calls of this key
        self.kids = 0         # wrapped calls made directly by them
        self.self_raw = 0.0   # duration minus wrapped children's durations
        self.incl_raw = 0.0   # duration of outermost calls less hook time
        self.top_calls = 0    # outermost calls
        self.nested_in = 0    # wrapped calls made anywhere inside them
        self.depth = 0
        self.extra = {}


# -- counters that need the arguments or the result ----------------------------


def _grew(st, args, out):
    if out:
        st.extra["grew"] = st.extra.get("grew", 0) + 1


def _accepted(st, args, out):
    if out["ok"]:
        st.extra["accepted"] = st.extra.get("accepted", 0) + 1


def _term_products(st, args, out):
    a, b = args
    nb = len(b.d) if hasattr(b, "d") else 1
    st.extra["term_products"] = st.extra.get("term_products", 0) + len(a.d) * nb


def _ideal_dims(st, args, out):
    st.extra["shell_dim"] = st.extra.get("shell_dim", 0) + args[0].ambient_dim()
    st.extra["ideal_dim"] = st.extra.get("ideal_dim", 0) + out.dim


HOOKS = {"linalg.insert": _grew, "hopf.morphism_check": _accepted,
         "zoo.group_coaction_verify": _accepted,
         "talg.poly_mul": _term_products, "talg.ideal_span": _ideal_dims}


def targets(modules):
    """(owner, attribute, function, counter key, spanned) for each layer.

    Owners are layer modules and their classes; only functions defined in
    that layer module are taken.
    """
    out = []
    for layer in LAYERS:
        mod = modules["gsl." + layer]
        skip = SKIP.get(layer, ())
        spanned = SPANNED.get(layer, ())
        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                # an alias (construct = zoo_parse) counts as its target
                found = [(mod, name, obj, obj.__name__)]
            elif isinstance(obj, type):
                found = [(obj, attr, fn, "%s.%s" % (name, fn.__name__))
                         for attr, fn in sorted(vars(obj).items())
                         if isinstance(fn, types.FunctionType)
                         and attr not in skip
                         and (not attr.startswith("_") or attr in DUNDERS)]
            else:
                continue
            for owner, attr, fn, qual in found:
                key = layer + "." + qual
                out.append((owner, attr, fn, KEYS.get(key, key),
                            spanned == "*" or qual in spanned))
    return out


class Tracer(object):
    """Counts, self times, inclusive times and spans of one traced pass.

    ``split`` is the share of the wrapper's own cost per call that falls
    inside the wrapped call's interval, as ``calibrate`` measures it.
    """

    def __init__(self, split, keep_spans=False):
        self.split = split
        self.clock = time.perf_counter
        self.keep_spans = keep_spans
        self.stats = {}
        self.spans = []
        self.job = None
        self.distinct_terms = set()
        self._root = self.stat("bench.root")
        self._stack = [0.0]          # wrapped children's time of each open call
        self._owners = [self._root]  # Stat of each open call
        self._span_ids = [-1]
        self._nested = [0]           # wrapped calls completed so far
        self._hooks = [0.0]          # seconds spent in counter hooks so far
        self._saved = []

    def stat(self, key):
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = Stat()
        return st

    # -- wrappers ---------------------------------------------------------------

    def wrap(self, fn, key, spanned=False):
        st = self.stat(key)
        hook = HOOKS.get(key)
        if key == "talg.reduce_term":
            hook = self._distinct_hook
        if spanned:
            wrapper = self._spanned(fn, st, hook, key)
        else:
            wrapper = self._hot(fn, st, hook)
        setattr(wrapper, MARK, fn)
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _distinct_hook(self, st, args, out):
        self.distinct_terms.add(hash((id(args[0]), args[1])))

    def _hot(self, fn, st, hook):
        stack, owners, nested, clock = (self._stack, self._owners,
                                        self._nested, self.clock)
        hooks = self._hooks

        def call(*args, **kw):
            stack.append(0.0)
            owners.append(st)
            t0 = clock()
            try:
                out = fn(*args, **kw)
            finally:
                dt = clock() - t0
                st.calls += 1
                st.self_raw += dt - stack.pop()
                stack[-1] += dt
                owners.pop()
                owners[-1].kids += 1
                nested[0] += 1
            if hook is not None:
                # the hook's time is nobody's: add it to the caller's children
                t1 = clock()
                hook(st, args, out)
                dh = clock() - t1
                stack[-1] += dh
                hooks[0] += dh
            return out
        return call

    def _spanned(self, fn, st, hook, name):
        stack, owners, nested, clock = (self._stack, self._owners,
                                        self._nested, self.clock)
        ids, spans, hooks = self._span_ids, self.spans, self._hooks

        def call(*args, **kw):
            sid = len(spans)
            if self.keep_spans:
                spans.append(None)
            parent = ids[-1]
            ids.append(sid)
            st.depth += 1
            n0, h0 = nested[0], hooks[0]
            stack.append(0.0)
            owners.append(st)
            t0 = clock()
            try:
                out = fn(*args, **kw)
            finally:
                dt = clock() - t0
                ids.pop()
                st.depth -= 1
                if st.depth == 0:
                    st.incl_raw += dt - (hooks[0] - h0)
                    st.top_calls += 1
                    st.nested_in += nested[0] - n0
                st.calls += 1
                st.self_raw += dt - stack.pop()
                stack[-1] += dt
                owners.pop()
                owners[-1].kids += 1
                nested[0] += 1
                if self.keep_spans:
                    spans[sid] = (sid, parent, self.job, name, t0, t0 + dt)
            if hook is not None:
                t1 = clock()
                hook(st, args, out)
                dh = clock() - t1
                stack[-1] += dh
                hooks[0] += dh
            return out
        return call

    def job_span(self, name, fn, *args):
        """Run one benchmark job as a root span under the "bench" layer."""
        self.job = name
        return self.wrap(fn, "bench.job", spanned=True)(*args)

    # -- install / restore ------------------------------------------------------

    def __enter__(self):
        mods = {name: m for name, m in sys.modules.items()
                if name == "gsl" or name.startswith("gsl.")}
        for owner, attr, fn, key, spanned in targets(mods):
            wrapper = self.wrap(fn, key, spanned)
            if isinstance(owner, type):
                # every name in the class bound to this function
                names = [a for a, v in vars(owner).items() if v is fn]
                for a in names:
                    self._saved.append((owner, a, fn))
                    setattr(owner, a, wrapper)
            else:
                for mod in mods.values():
                    for a, v in list(vars(mod).items()):
                        if v is fn:
                            self._saved.append((mod, a, fn))
                            setattr(mod, a, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    # -- results ------------------------------------------------------------------

    def corrected(self, traced_s, untraced_s):
        """Self and inclusive seconds per key with the wrappers' cost removed.

        Each wrapped call costs c seconds more than an unwrapped one: a
        share ``split`` of c inside its own interval, the rest in its
        caller's.  c is fitted so that the self times add up to the
        untraced pass; returns (self_s, incl_s, c).
        """
        root = self._root
        root.self_raw = traced_s - self._stack[0]
        raw = sum(st.self_raw for st in self.stats.values())
        calls = sum(st.calls for st in self.stats.values())
        c = max(0.0, (raw - untraced_s) / calls) if calls else 0.0
        inner, outer = c * self.split, c * (1.0 - self.split)
        self_s, incl_s = {}, {}
        for key, st in self.stats.items():
            self_s[key] = st.self_raw - st.calls * inner - st.kids * outer
            incl_s[key] = (st.incl_raw - st.nested_in * c
                           - st.top_calls * inner)
        return self_s, incl_s, c

    def metrics(self, traced_s, untraced_s):
        """The per-layer metrics of BENCHMARK.json, by name."""
        self_s, incl_s, _ = self.corrected(traced_s, untraced_s)

        def calls(key):
            return self.stats[key].calls if key in self.stats else 0

        def incl(key):
            return incl_s.get(key, 0.0)

        def extra(key, name):
            return self.stats[key].extra.get(name, 0) if key in self.stats else 0

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        for op in ("add", "sub", "neg", "mul", "inv"):
            m["gf.%s.calls" % op] = calls("gf." + op)
        m["linalg.insert.calls"] = calls("linalg.insert")
        m["linalg.insert.grew"] = extra("linalg.insert", "grew")
        m["linalg.insert.useful"] = ratio(m["linalg.insert.grew"],
                                          m["linalg.insert.calls"])
        m["linalg.residue.calls"] = calls("linalg.residue")
        m["linalg.contains.calls"] = calls("linalg.contains")
        m["linalg.spansolver.calls"] = calls("linalg.spansolver")
        m["talg.poly_mul.calls"] = calls("talg.poly_mul")
        m["talg.poly_mul.term_products"] = extra("talg.poly_mul", "term_products")
        m["talg.poly_add.calls"] = calls("talg.poly_add")
        m["talg.poly_pow.calls"] = calls("talg.poly_pow")
        m["talg.reduce_term.calls"] = calls("talg.reduce_term")
        m["talg.reduce_term.repeat_ratio"] = 1.0 - ratio(
            len(self.distinct_terms), m["talg.reduce_term.calls"])
        m["talg.ideal_span.calls"] = calls("talg.ideal_span")
        m["talg.ideal_span.s"] = incl("talg.ideal_span")
        m["talg.ideal_span.shell_dim"] = extra("talg.ideal_span", "shell_dim")
        m["talg.ideal_span.ideal_dim"] = extra("talg.ideal_span", "ideal_dim")
        m["talg.apply_map.calls"] = calls("talg.apply_map")
        m["talg.apply_map.s"] = incl("talg.apply_map")
        m["talg.tensor_algebras"] = calls("talg.tensor_algebras")
        m["hopf.hopf_verify.calls"] = calls("hopf.hopf_verify")
        m["hopf.hopf_verify.s"] = incl("hopf.hopf_verify")
        m["hopf.init.s"] = incl("hopf.init")
        m["hopf.delta_table.s"] = incl("hopf.delta_table")
        m["hopf.morphism_check.calls"] = calls("hopf.morphism_check")
        m["hopf.morphism_check.accepted"] = extra("hopf.morphism_check", "accepted")
        m["hopf.morphism_check.useful"] = ratio(m["hopf.morphism_check.accepted"],
                                                m["hopf.morphism_check.calls"])
        m["hopf.enumerate_subgroups.s"] = incl("hopf.enumerate_subgroups")
        m["hopf.enumerate_morphisms.s"] = incl("hopf.enumerate_morphisms")
        m["zoo.build.s"] = incl("zoo.build")
        m["zoo.group_coaction_verify.calls"] = calls("zoo.group_coaction_verify")
        m["zoo.group_coaction_verify.accepted"] = extra(
            "zoo.group_coaction_verify", "accepted")
        m["zoo.mu2_invariants_D.s"] = incl("zoo.mu2_invariants_D")
        m["zoo.sl2_hom_enumerate.s"] = incl("zoo.sl2_hom_enumerate")
        m["action.coaction_verify.calls"] = calls("action.coaction_verify")
        m["action.coaction_verify.s"] = incl("action.coaction_verify")
        m["action.laurent_invert.s"] = incl("action.laurent_invert")
        m["parse.parse_presentation.s"] = incl("parse.parse_presentation")
        m["parse.print_presentation.s"] = incl("parse.print_presentation")
        selfs = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for key, s in self_s.items():
            selfs[key.split(".", 1)[0]] += s
        for layer, s in selfs.items():
            m[layer + ".self_s"] = s
        total = sum(selfs.values())
        for a, b in (("gf", "linalg"), ("talg", "linalg"), ("talg", "hopf")):
            m["stress.%s_%s" % (a, b)] = ratio(selfs[a] + selfs[b], total)
        return m


def installed_wrappers():
    """Bindings in loaded gsl modules and their classes that are wrappers."""
    found = []
    for name, mod in list(sys.modules.items()):
        if not (name == "gsl" or name.startswith("gsl.")):
            continue
        for attr, v in vars(mod).items():
            if hasattr(v, MARK):
                found.append("%s.%s" % (name, attr))
            if isinstance(v, type) and v.__module__ == name:
                for a, f in vars(v).items():
                    if hasattr(f, MARK):
                        found.append("%s.%s.%s" % (name, attr, a))
    return found


def calibrate(rounds=5, n=100000):
    """Share of a wrapper's own cost per call that falls inside the wrapped
    call's measured interval (median of rounds).

    Measured on a two-argument method, the shape of the hottest calls
    (Field.add, Poly.__mul__).
    """
    class Probe(object):
        def add(self, a, b):
            return a ^ b

    probe = Probe()
    plain = Probe.add
    clock = time.perf_counter
    splits = []
    for _ in range(rounds):
        Probe.add = plain
        t0 = clock()
        for i in range(n):
            probe.add(i, 3)
        base = (clock() - t0) / n
        tr = Tracer(0.0)
        Probe.add = tr.wrap(plain, "probe")
        t0 = clock()
        for i in range(n):
            probe.add(i, 3)
        cost = (clock() - t0) / n - base
        inner = tr.stats["probe"].self_raw / n - base
        splits.append(min(1.0, max(0.0, inner / cost)))
    return statistics.median(splits)
