"""Outside-in tracer for one cdgl CLI invocation.

Nothing in the engine knows about it.  ``Tracer.install`` rebinds engine
callables from the outside, and ``Tracer.uninstall`` puts every original
object back and reports whether the modules and classes are exactly as they
were.

Where wrappers go:

* a public engine function is rebound in every other cdgl module that
  imported it by name, so a call that crosses a module boundary passes a
  wrapper and a call inside the defining module does not (recursion inside
  a layer is not spanned);
* ``exactlin`` is also reached as a module object (``exactlin.kernel_basis``)
  by ``dgl`` and ``derivations``, so its public functions are rebound in
  ``exactlin`` itself as well;
* the functions that carry a per-layer metric (``PROBES``) are rebound in
  their own module too, so calls from inside the layer are counted, except
  ``freelie.bracket``, whose count is defined over cross-module calls only;
* public methods of the engine's service classes are wrapped on the class.
  The value types (elements, vectors, matrices, truncations, derivations,
  forms) and a short list of accessors are left alone: they are called
  millions of times and each call does little work, so their time stays
  with the layer that calls them.

A wrapper opens a span only when the call enters a different layer than the
one currently running, so each span marks a layer boundary.  Spans are kept
in memory as ``[id, parent, layer, name, t0, t1, phase]`` lists; ``phase``
turns from ``answer`` to ``stability`` once the command loads its model at
cap N + 1 (``workbench.tasks._load`` called with a cap override).

Probe statistics count outermost calls only (a call made while another call
of the same statistic is running is not counted again), with their
inclusive time.
"""

import sys
import time
import types

ENGINE = ("models", "dgl", "freelie", "exactlin", "derivations", "coalgebra",
          "cylinder")
LAYERS = ("workbench",) + ENGINE

# value types: not wrapped (see module docstring)
VALUE_TYPES = {"Generator", "Truncation", "LieElement", "SparseVec",
               "SparseMat", "Derivation", "HomElement", "PolyForm",
               "DerSLElement"}

# accessors that only look a value up or build an empty value; a wrapper
# would cost more than they do (DGLPresentation.zero alone is called about
# two million times in one derivations pass)
ACCESSORS = {"word_degree", "DGLPresentation.zero", "DGLPresentation.gen",
             "DGLPresentation.generator", "CDGC.dim", "CDGC.reduced_indices",
             "CDGC.reduced_comul", "CDGC.d_of", "ConvolutionDGL.zero",
             "Cylinder.zero", "GradedChainComplex.dim",
             "GradedChainComplex.degrees", "GradedChainComplex.d",
             "ChainMap.block", "DerComplex.space", "GeneratorFiltration.level_of"}

# modules that other cdgl modules import as a whole
MODULE_OBJECT_IMPORTS = {"exactlin"}

CROSS_MODULE_ONLY = {("freelie", "bracket")}

# (layer, attribute path) -> statistic names and hook name
PROBES = {
    ("models", "builtin_model"): (("models.build",), None),
    ("dgl", "bch"): (("dgl.bch",), None),
    ("dgl", "H0Group.class_of"): (("dgl.class_of",), None),
    ("dgl", "gauge_act"): (("dgl.gauge",), None),
    ("dgl", "gauge_equivalent"): (("dgl.gauge",), None),
    ("dgl", "apply_operator"): (("dgl.apply_operator",), None),
    ("dgl", "DGLPresentation.complex"): (("dgl.complex",), None),
    ("freelie", "lie_basis"): (("freelie.lie_basis",), "lie_basis"),
    ("freelie", "gen_sequences"): ((), "gen_sequences"),
    ("freelie", "is_lie"): (("freelie.is_lie",), None),
    ("freelie", "exp_terms"): (("freelie.exp_log",), None),
    ("freelie", "log_terms"): (("freelie.exp_log",), None),
    ("freelie", "bracket"): (("freelie.bracket",), None),
    ("freelie", "Coordinatizer.__init__"): (("freelie.coordinatizer",), None),
    ("freelie", "Coordinatizer.coords"): (("freelie.coords",), None),
    ("exactlin", "solve_linear"): (("exactlin.solve", "exactlin.factor"),
                                   "solve"),
    ("exactlin", "kernel_basis"): (("exactlin.factor",), "kernel"),
    ("exactlin", "echelon_of_matrix"): (("exactlin.factor",), "factor"),
    ("exactlin", "echelon_of_rows"): (("exactlin.factor",), "factor"),
    ("exactlin", "IncrementalSpan.add"): (("exactlin.span_add",), "span_add"),
    ("exactlin", "homology_at"): (("exactlin.homology",), None),
    ("exactlin", "les_of_ses"): (("exactlin.les",), None),
    ("derivations", "derivation_bracket"): (("derivations.bracket",), None),
    ("derivations", "DerComplex.complex"): (("derivations.complex",), None),
    ("coalgebra", "chains_functor"): (("coalgebra.chains_functor",),
                                      "chains"),
}


def layer_of(module_name):
    """'cdgl.dgl' -> 'dgl'; every 'cdgl.workbench.*' module -> 'workbench'."""
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else "workbench"


def _coeff_bits(vecs):
    bits = 0
    for v in vecs:
        for c in v.entries.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def _matrix_key(args):
    """Hash identifying the matrix an elimination factors."""
    first = args[0]
    if hasattr(first, "entries"):            # SparseMat
        return hash((first.n_rows, first.n_cols,
                     frozenset(first.entries.items())))
    return hash((args[1], tuple(frozenset(v.entries.items()) for v in first)))


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [None]          # open span ids; None below the root
        self.layer = None            # layer of the innermost open span
        self.phase = "answer"
        self.calls = {}
        self.seconds = {}
        self.depth = {}
        self.counters = {"freelie.sequences": 0, "freelie.kept": 0,
                         "exactlin.span_accepts": 0, "exactlin.max_coeff_bits": 0,
                         "coalgebra.chains_dim": 0}
        self.matrices = set()
        self.patches = []
        self.snapshot = None

    # -- installation ----------------------------------------------------

    def _modules(self):
        return {name: mod for name, mod in sys.modules.items()
                if name == "cdgl" or name.startswith("cdgl.")}

    def _classes(self, modules):
        out = []
        for name, mod in modules.items():
            if layer_of(name) not in ENGINE:
                continue
            for obj in vars(mod).values():
                if (isinstance(obj, type) and obj.__module__ == name
                        and not issubclass(obj, BaseException)
                        and obj.__name__ not in VALUE_TYPES):
                    out.append(obj)
        return out

    def _take_snapshot(self, modules, classes):
        owners = list(modules.values()) + list(classes)
        return {id(o): (o, {k: id(v) for k, v in vars(o).items()})
                for o in owners}

    def install(self):
        modules = self._modules()
        classes = self._classes(modules)
        self.snapshot = self._take_snapshot(modules, classes)
        # module-level functions
        for home_name, home in modules.items():
            home_layer = layer_of(home_name)
            for attr, fn in list(vars(home).items()):
                if (home_layer not in ENGINE or attr.startswith("_")
                        or attr in ACCESSORS or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != home_name):
                    continue
                spec = PROBES.get((home_layer, attr))
                name = "%s.%s" % (home_layer, attr)
                for other in modules.values():
                    if other is home or vars(other).get(attr) is not fn:
                        continue
                    self._patch(other, attr, fn, home_layer, spec, name)
                if ((spec is not None or home_layer in MODULE_OBJECT_IMPORTS)
                        and (home_layer, attr) not in CROSS_MODULE_ONLY):
                    self._patch(home, attr, fn, home_layer, spec, name)
        # methods of service classes
        for cls in classes:
            layer = layer_of(cls.__module__)
            for attr, fn in list(vars(cls).items()):
                if not isinstance(fn, types.FunctionType):
                    continue
                qualname = "%s.%s" % (cls.__name__, attr)
                spec = PROBES.get((layer, qualname))
                if spec is None and (attr.startswith("_") or qualname in ACCESSORS):
                    continue
                self._patch(cls, attr, fn, layer, spec,
                            "%s.%s" % (layer, qualname))
        # the stability re-run starts where the command reloads its model
        tasks = modules["cdgl.workbench.tasks"]
        self._patch(tasks, "_load", tasks._load, "workbench", ((), "phase"),
                    "workbench.tasks._load")

    def _patch(self, owner, attr, fn, layer, spec, name):
        stats, hook = spec if spec is not None else ((), None)
        wrapper = self._wrap(fn, layer, name, stats, hook)
        self.patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Restore every wrapped attribute; True when all modules and
        classes hold exactly the objects they held before ``install``."""
        for owner, attr, fn in reversed(self.patches):
            setattr(owner, attr, fn)
        self.patches = []
        for owner, before in self.snapshot.values():
            now = {k: id(v) for k, v in vars(owner).items()}
            if now != before:
                return False
        return True

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, layer, name, stats, hook):
        tracer = self
        clock = time.perf_counter
        spans = self.spans
        stack = self.stack
        calls, seconds, depth = self.calls, self.seconds, self.depth
        before = getattr(self, "_before_%s" % hook, None)
        after = getattr(self, "_after_%s" % hook, None)
        for s in stats:
            calls.setdefault(s, 0)
            seconds.setdefault(s, 0.0)
            depth.setdefault(s, 0)

        def wrapper(*args, **kwargs):
            if not stats and hook is None and tracer.layer == layer:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            outer = [s for s in stats if not depth[s]]
            for s in stats:
                depth[s] += 1
            sid = None
            if tracer.layer != layer:
                sid = len(spans)
                spans.append([sid, stack[-1], layer, name, 0.0, 0.0, tracer.phase])
                stack.append(sid)
                saved_layer, tracer.layer = tracer.layer, layer
            t0 = clock()
            if sid is not None:
                spans[sid][4] = t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if sid is not None:
                    spans[sid][5] = t1
                    stack.pop()
                    tracer.layer = saved_layer
                for s in stats:
                    depth[s] -= 1
                for s in outer:
                    calls[s] += 1
                    seconds[s] += t1 - t0
            if after is not None:
                after(token, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def root(self, fn, *args):
        """Call fn as the root span (layer workbench) of one command."""
        self.phase = "answer"
        sid = len(self.spans)
        self.spans.append([sid, None, "workbench", "workbench.cli.main",
                           0.0, 0.0, self.phase])
        self.stack.append(sid)
        self.layer = "workbench"
        self.spans[sid][4] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans[sid][5] = time.perf_counter()
            self.stack.pop()
            self.layer = None

    # -- hooks ---------------------------------------------------------------

    def _before_phase(self, args, kwargs):
        override = args[1] if len(args) > 1 else kwargs.get("trunc_override")
        if override is not None:
            self.phase = "stability"

    def _before_lie_basis(self, args, kwargs):
        return self.counters["freelie.sequences"]

    def _after_lie_basis(self, token, args, result):
        if self.counters["freelie.sequences"] != token:   # not a cache hit
            self.counters["freelie.kept"] += len(result)

    def _after_gen_sequences(self, token, args, result):
        self.counters["freelie.sequences"] += len(result)

    def _before_factor(self, args, kwargs):
        if not self.depth["exactlin.factor"]:
            self.matrices.add(_matrix_key(args))

    _before_solve = _before_kernel = _before_factor

    def _after_solve(self, token, args, result):
        if result is not None:
            self._bits([result])

    def _after_kernel(self, token, args, result):
        self._bits(result)

    def _bits(self, vecs):
        c = self.counters
        c["exactlin.max_coeff_bits"] = max(c["exactlin.max_coeff_bits"],
                                           _coeff_bits(vecs))

    def _after_span_add(self, token, args, result):
        if result:
            self.counters["exactlin.span_accepts"] += 1

    def _after_chains(self, token, args, result):
        self.counters["coalgebra.chains_dim"] += result.dim()

    # -- export ----------------------------------------------------------------

    def export_stats(self):
        out = {"calls": dict(self.calls), "seconds": dict(self.seconds),
               "counters": dict(self.counters)}
        out["counters"]["exactlin.distinct_matrices"] = len(self.matrices)
        return out


def check_spans(spans):
    """Self time per layer, after checking that the spans nest.

    Returns (self_seconds_by_layer, problems).  A span must lie inside its
    parent, siblings must not overlap, and no self time may be negative.
    """
    by_id = {s[0]: s for s in spans}
    children = {}
    problems = []
    for s in spans:
        if s[5] < s[4]:
            problems.append("span %s ends before it starts" % s[0])
        if s[1] is None:
            continue
        p = by_id.get(s[1])
        if p is None:
            problems.append("span %s has unknown parent %s" % (s[0], s[1]))
            continue
        if s[4] < p[4] or s[5] > p[5]:
            problems.append("span %s (%s) lies outside its parent %s (%s)"
                            % (s[0], s[3], p[0], p[3]))
        children.setdefault(s[1], []).append(s)
    own = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        kids = sorted(children.get(s[0], ()), key=lambda k: k[4])
        for a, b in zip(kids, kids[1:]):
            if b[4] < a[5]:
                problems.append("spans %s and %s overlap" % (a[0], b[0]))
        self_s = (s[5] - s[4]) - sum(k[5] - k[4] for k in kids)
        if self_s < 0:
            problems.append("span %s has negative self time %g" % (s[0], self_s))
        own[s[2]] += self_s
    return own, problems
