"""Per-module spans recorded from outside the library.

`Tracer.install()` wraps every public function of the traced modules, and
every public method of the classes they define, then rebinds each wrapped
name in every module of the package that imported it, so calls between
modules go through the wrapper too.  `uninstall()` puts the originals back.

Spans are aggregated in memory per function: calls, total time, self time
(span time minus the time of wrapped child spans) and calls that raised.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("derivators", "lsintegral", "gderiv", "special", "ode", "heat1d",
          "heat2d", "problems", "cli")
PACKAGE = "stieltjes_heat"
# public entries of the numeric-derivative layer whose first argument is the
# function being differentiated
_DIFF_ENTRIES = ("heat_residual", "gderiv", "gderiv2", "right_limit_of")
_KEPT_DUNDERS = ("__init__", "__call__")


class Stat:
    __slots__ = ("calls", "total", "self", "raised")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.raised = 0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.splits = {}  # special.gexp calls split by the kind of rate
        self.active = True  # False while the benchmark does untraced work
        self.f_evals = 0  # evaluations of functions handed to the gderiv layer
        self._stack = []  # child time accumulated per open span
        self._diff_depth = 0
        self._undo = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, key, fn, classify=None):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        clock = time.perf_counter
        split = None
        if classify is not None:
            split = {k: self.splits.setdefault(f"{key}_{k}", Stat()) for k in classify[1]}

        tracer = self

        def wrapper(*args, **kw):
            if not tracer.active:
                return fn(*args, **kw)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kw)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                dur = clock() - start
                child = stack.pop()
                stat.calls += 1
                stat.total += dur
                stat.self += dur - child
                if stack:
                    stack[-1] += dur
                if split is not None:
                    split[classify[0](args)].calls += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_diff_entry(self, key, fn):
        """Count evaluations of the function differentiated, at the outermost
        entry into the gderiv layer only (inner entries differentiate the
        layer's own derivative functions)."""
        inner = self._wrap(key, fn)
        tracer = self

        def counted(f):
            def g(*a, **kw):
                tracer.f_evals += 1
                return f(*a, **kw)
            return g

        def entry(f, *args, **kw):
            if tracer._diff_depth or not tracer.active:
                return inner(f, *args, **kw)
            tracer._diff_depth += 1
            try:
                return inner(counted(f), *args, **kw)
            finally:
                tracer._diff_depth -= 1

        entry.__wrapped__ = fn
        return entry

    # -- installation ------------------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        replaced = {}  # id(original) -> wrapper, for rebinding imported names
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                key = f"{layer}.{name}"
                if inspect.isclass(obj):
                    self._wrap_class(key, obj)
                elif inspect.isfunction(obj):
                    if layer == "gderiv" and name in _DIFF_ENTRIES:
                        w = self._wrap_diff_entry(key, obj)
                    elif key == "special.gexp":
                        w = self._wrap(key, obj, classify=(
                            lambda a: "callable" if callable(a[1]) else "const",
                            ("callable", "const")))
                    else:
                        w = self._wrap(key, obj)
                    replaced[id(obj)] = (obj, w)
        # scipy's quad as bound inside the integration layer
        lsi = mods["lsintegral"]
        replaced[id(lsi.quad)] = (lsi.quad, self._wrap("lsintegral.quad", lsi.quad))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._undo.append((mod, name, obj))

    def _wrap_class(self, key, cls):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in _KEPT_DUNDERS:
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(f"{key}.{name}", raw.__func__))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(f"{key}.{name}", raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(f"{key}.{name}", raw)
            else:
                continue
            setattr(cls, name, new)
            self._undo.append((cls, name, raw))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- reading -------------------------------------------------------------------

    def layer_totals(self):
        """{layer: (calls, self seconds)} summed over the layer's functions."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for key, st in self.stats.items():
            layer = key.split(".", 1)[0]
            out[layer][0] += st.calls
            out[layer][1] += st.self
        return out

    def calls(self, key):
        st = self.stats.get(key) or self.splits.get(key)
        return st.calls if st else 0

    def seconds(self, key):
        st = self.stats.get(key)
        return st.total if st else 0.0

    def raised(self, key):
        st = self.stats.get(key)
        return st.raised if st else 0

    def dump(self):
        return {key: {"calls": st.calls, "total_s": st.total, "self_s": st.self,
                      "raised": st.raised}
                for key, st in sorted(self.stats.items()) if st.calls}
