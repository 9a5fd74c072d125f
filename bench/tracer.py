"""Span tracing of vertexcalc's layer boundaries, installed from outside.

The tracer replaces each traced public function with a wrapper at every
module namespace of the package that bound it (``check_A`` is bound both in
``rationalforms`` and in ``structures``), and each traced method on its class.
A wrapper records one span per call: a label, start and end times, and the
index of the span that was open when it was called.  Spans are kept in flat
arrays in memory and written out once, when the run ends.  ``uninstall``
puts every original back, so an untraced run never meets a wrapper.

Per-layer metrics are derived from the spans: calls and self time (a span's
duration minus the time of the spans directly inside it) per label, plus a
few ratios that need the parent links.
"""
from __future__ import annotations

import functools
import json
from array import array
from time import perf_counter

PACKAGE = "vertexcalc"

# (module, function, argument index naming the span, or None)
FUNCTIONS = (
    ("scalars", "binom", None),
    ("deltacalc", "window_coeffs", None),
    ("deltacalc", "prove_identity", None),
    ("series", "apply_delta", None),
    ("series", "taylor_substitute", None),
    ("series", "multiply", None),
    ("series", "binomial_power", None),
    ("rationalforms", "check_A", None),
    ("rationalforms", "find_pole_witness", None),
    ("rationalforms", "reconstruct_form", None),
    ("rationalforms", "check_EFG", None),
    ("rationalforms", "generate_instance", None),
    ("rationalforms", "replay_implication", 0),
    ("structures", "check_axiom", 1),
    ("structures", "_jacobi_symbolic_zero", None),
    ("modules", "check_module_axiom", 1),
    ("configio", "load_structure", None),
    ("configio", "load_module", None),
    ("configio", "machine_report", None),
    ("cli", "build_parser", None),
)

VEC_OPS = ("__add__", "__sub__", "__neg__", "scale")

# mode products: (module, class, method); their distinct keys drop the
# variable-name arguments, since a renamed product is the same product
PRODUCTS = (
    ("structures", "VertexStructure", "compose_y"),
    ("structures", "VertexStructure", "iterate_y"),
    ("modules", "ModuleStructure", "compose_yw"),
    ("modules", "ModuleStructure", "iterate_yw"),
)

MARK = "_bench_span"


def package_modules(sys_modules):
    return {name: mod for name, mod in sys_modules.items()
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))}


class Tracer:
    def __init__(self):
        self.labels = []
        self._label_ids = {}
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {"series.WindowedSeries.built": 0,
                       "configio.report_bytes": 0}
        self.distinct = {}
        self._seen = {}
        self._patches = []

    # -- recording ---------------------------------------------------------
    def _label_id(self, name):
        lid = self._label_ids.get(name)
        if lid is None:
            lid = self._label_ids[name] = len(self.labels)
            self.labels.append(name)
        return lid

    def _wrap(self, fn, name, name_arg=None, key_of=None, after=None):
        tracer = self
        stack = self._stack
        label, parent, start, end = self.label, self.parent, self.start, self.end
        fixed = self._label_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name_arg is None:
                lid = fixed
            else:
                lid = tracer._label_id(f"{name}[{args[name_arg]}]")
            if key_of is not None:
                tracer._note_key(name, key_of(args))
            idx = len(end)
            label.append(lid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def _note_key(self, name, key):
        seen = self._seen.setdefault(name, set())
        if key not in seen:
            seen.add(key)
            self.distinct[name] = self.distinct.get(name, 0) + 1

    def new_process_scope(self):
        """Forget product keys: each CLI call stands for a fresh process."""
        self._seen.clear()

    def _count_report(self, report):
        self.counts["configio.report_bytes"] += len(report.encode("utf-8"))

    # -- installing ----------------------------------------------------------
    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, sys_modules):
        """Wrap every traced function and method the package has; return
        the names of those it does not have (they read as zero)."""
        mods = package_modules(sys_modules)
        missing = []

        def lookup(modname, *attrs):
            obj = mods.get(f"{PACKAGE}.{modname}")
            for attr in attrs:
                obj = None if obj is None else vars(obj).get(attr)
            if obj is None:
                missing.append(".".join((modname,) + attrs))
            return obj

        for modname, fname, name_arg in FUNCTIONS:
            original = lookup(modname, fname)
            if original is None:
                continue
            after = self._count_report if fname == "machine_report" else None
            wrapper = self._wrap(original, f"{modname}.{fname}", name_arg,
                                 after=after)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        methods = [("scalars", "Vec", meth, None) for meth in VEC_OPS]
        methods += [(modname, cls, meth,
                     lambda a: (a[0].name, a[1], a[3], a[5]))
                    for modname, cls, meth in PRODUCTS]
        for modname, cls, meth, key_of in methods:
            fn = lookup(modname, cls, meth)
            if fn is not None:
                label = f"scalars.Vec.{meth}" if cls == "Vec" else f"{modname}.{meth}"
                self._patch(vars(mods[f"{PACKAGE}.{modname}"])[cls], meth,
                            self._wrap(fn, label, key_of=key_of))
        init = lookup("series", "WindowedSeries", "__init__")
        if init is None:
            return missing
        counts = self.counts

        @functools.wraps(init)
        def counted_init(*args, **kwargs):
            counts["series.WindowedSeries.built"] += 1
            init(*args, **kwargs)

        setattr(counted_init, MARK, "series.WindowedSeries.__init__")
        self._patch(vars(mods[f"{PACKAGE}.series"])["WindowedSeries"],
                    "__init__", counted_init)
        return missing

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------
    def write(self, path):
        """One JSON header line (labels, span count), then the raw arrays."""
        with open(path, "wb") as fh:
            header = {"labels": self.labels, "spans": len(self.start),
                      "arrays": ["label:i", "parent:i", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.label, self.parent, self.start, self.end):
                arr.tofile(fh)

    def totals(self):
        """Per label: [calls, inclusive seconds, self seconds]."""
        start, end, parent = self.start, self.end, self.parent
        n = len(start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {}
        label, labels = self.label, self.labels
        for i in range(n):
            rec = out.setdefault(labels[label[i]], [0, 0.0, 0.0])
            dur = end[i] - start[i]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child[i]
        return out

    def ancestor(self, i, names):
        """Label of the nearest enclosing span whose label is in ``names``."""
        p = self.parent[i]
        while p >= 0:
            name = self.labels[self.label[p]]
            if name in names:
                return name
            p = self.parent[p]
        return None

    def spans_of(self, name):
        lid = self._label_ids.get(name)
        if lid is None:
            return []
        return [i for i, l in enumerate(self.label) if l == lid]


def leftover_wrappers(sys_modules):
    """Names of tracer wrappers still reachable from the package."""
    found = []
    for name, mod in package_modules(sys_modules).items():
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{name}.{attr}")
            elif isinstance(value, type):
                for meth, fn in vars(value).items():
                    if hasattr(fn, MARK):
                        found.append(f"{name}.{attr}.{meth}")
    return found
