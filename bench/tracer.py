"""Per-layer tracing installed from outside the library.

install() replaces public callables of subrec's modules with wrappers that
record a span (id, name, start, end, parent id) at each layer boundary, and
counts at the same boundaries. A function is replaced in every subrec module
that binds it, so `occurrences` is traced whether words, recurrence or
rotation looks it up. QuadraticReal methods run millions of times; they get
counts and aggregate time only, no spans. Self time is a span's duration
minus the time its child spans (and exact arithmetic) cover.

A callable that no longer exists is reported in `absent` and every metric
built from it is left out; nothing here requires a particular name to exist.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import defaultdict
from time import perf_counter

# (span name, layer, module, attribute)
SPANS = (
    ("cli.main", "cli", "subrec.cli", "main"),
    ("rate_series", "recurrence", "subrec.recurrence", "rate_series"),
    ("tau_cylinder", "recurrence", "subrec.recurrence", "tau_cylinder"),
    ("lr_constant_estimate", "recurrence", "subrec.recurrence", "lr_constant_estimate"),
    ("power_report", "recurrence", "subrec.recurrence", "power_report"),
    ("return_table", "recurrence", "subrec.recurrence", "return_table"),
    ("occurrences", "words", "subrec.words", "occurrences"),
    ("return_words", "words", "subrec.words", "return_words"),
    ("max_power_witness", "words", "subrec.words", "max_power_witness"),
    ("word_counts", "words", "subrec.words", "word_counts"),
    ("cross_check", "rotation", "subrec.rotation", "cross_check"),
    ("tau_length", "rotation", "subrec.rotation", "tau_length"),
    ("cylinder_measure", "rotation", "subrec.rotation", "cylinder_measure"),
    ("mu_tower_values", "rotation", "subrec.rotation", "mu_tower_values"),
    ("atom_lengths", "rotation", "subrec.rotation", "atom_lengths"),
    ("quadratic_of_cf", "contfrac", "subrec.contfrac", "quadratic_of_cf"),
)
PREFIX_SPAN = "WordSource.prefix"
# Each call rebuilds a word from symbol 0.
BUILDERS = ("rotation_coding_prefix", "standard_word_prefix", "kappa_prefix", "fixed_point_prefix")

LAYERS = ("cli", "recurrence", "words", "generators", "rotation", "contfrac", "quadratic", "bench")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [id, name, start, child seconds]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.qr_s = 0.0
        self.qr_busy = False
        self.sources: list = []
        self.built: dict[int, int] = defaultdict(int)
        self.served: dict[int, int] = defaultdict(int)
        self.built_total = 0
        self.served_total = 0
        self.layer_of = {"job": "bench", PREFIX_SPAN: "generators"}
        self.present: set[str] = set()
        self.absent: set[str] = set()
        self._patches: list[tuple] = []
        self._next_id = 0

    # ------------------------------------------------------------- spans

    def begin(self, name: str):
        self._next_id += 1
        self.stack.append([self._next_id, name, perf_counter(), 0.0])

    def end(self):
        end = perf_counter()
        sid, name, start, child = self.stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((sid, name, start, end, parent[0] if parent else 0))

    def end_job(self):
        """Close the job span and fold per-source build counts into totals."""
        self.end()
        for key, n in self.built.items():
            self.built_total += n
            self.served_total += self.served.get(key, 0)
        self.built.clear()
        self.served.clear()

    # ---------------------------------------------------------- wrappers

    def _span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                tracer.end()

        return wrapper

    def _prefix(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(source, *args, **kwargs):
            if tracer.stack and tracer.stack[-1][1] == "tau_cylinder":
                tracer.counts["window_rounds"] += 1
            tracer.begin(PREFIX_SPAN)
            tracer.sources.append(source)
            try:
                result = fn(source, *args, **kwargs)
                key = id(source)
                tracer.served[key] = max(tracer.served[key], len(result))
                return result
            finally:
                tracer.sources.pop()
                tracer.end()

        return wrapper

    def _builder(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            n = len(result)
            tracer.counts["build_calls"] += 1
            tracer.counts["symbols_built"] += n
            if tracer.sources:
                tracer.built[id(tracer.sources[-1])] += n
            return result

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _qr(self, key, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if tracer.qr_busy:
                return fn(*args, **kwargs)
            tracer.qr_busy = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                tracer.qr_busy = False
                tracer.qr_s += dt
                if tracer.stack:
                    tracer.stack[-1][3] += dt

        return wrapper

    # ------------------------------------------------------ installation

    def _replace(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _replace_function(self, module: str, attr: str, make) -> bool:
        """Rebind module.attr in every subrec module that binds the same object."""
        original = getattr(sys.modules.get(module), attr, None)
        if not callable(original):
            self.absent.add("%s.%s" % (module, attr))
            return False
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "subrec" or name.startswith("subrec."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)
        return True

    def install(self):
        import subrec  # noqa: F401  (loads every module the package exports)

        def occ_after(args, kwargs, result):
            text = args[1] if len(args) > 1 else kwargs.get("text", "")
            self.counts["occ_scanned"] += len(text)
            self.counts["occ_hits"] += len(result)

        def tau_after(args, kwargs, result):
            if getattr(result, "stabilized", True) is False:
                self.counts["unstabilized"] += 1

        hooks = {"occurrences": occ_after, "tau_cylinder": tau_after}
        for name, layer, module, attr in SPANS:
            make = functools.partial(self._span, name, after=hooks.get(name))
            if self._replace_function(module, attr, make):
                self.present.add(name)
                self.layer_of[name] = layer

        for attr in BUILDERS:
            if self._replace_function("subrec.generators", attr, self._builder):
                self.present.add("builders")

        generators = sys.modules["subrec.generators"]
        base = getattr(generators, "WordSource", None)
        if base is not None and callable(getattr(base, "prefix", None)):
            todo = [base]
            while todo:
                cls = todo.pop()
                todo.extend(cls.__subclasses__())
                if "prefix" in vars(cls):
                    self._replace(cls, "prefix", self._prefix(vars(cls)["prefix"]))
            self.present.add(PREFIX_SPAN)
        else:
            self.absent.add("subrec.generators.WordSource.prefix")

        cf_class = getattr(sys.modules["subrec.contfrac"], "CFExpansion", None)
        if cf_class is not None and callable(getattr(cf_class, "coefficient", None)):
            self._replace(cf_class, "coefficient", self._counter("coefficient", cf_class.coefficient))
            self.present.add("coefficient")
        else:
            self.absent.add("subrec.contfrac.CFExpansion.coefficient")

        qr = getattr(sys.modules["subrec.quadratic"], "QuadraticReal", None)
        if qr is None:
            self.absent.add("subrec.quadratic.QuadraticReal")
        else:
            for attr, value in list(vars(qr).items()):
                if isinstance(value, types.FunctionType) and attr != "__setattr__":
                    self._replace(qr, attr, self._qr("qr." + attr, value))
                    self.present.add("qr." + attr)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ----------------------------------------------------------- results

    def layer_seconds(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            out[self.layer_of.get(name, "bench")] += seconds
        out["quadratic"] += self.qr_s
        return out

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-pass per-layer metrics: name -> (value, unit); absent ones omitted."""
        has = self.present.__contains__
        per = 1.0 / passes
        calls, self_s, counts = self.calls, self.self_s, self.counts
        table = [
            ("generators.prefix_calls", has(PREFIX_SPAN), calls[PREFIX_SPAN] * per, "count"),
            ("generators.prefix_self_s", has(PREFIX_SPAN), self_s[PREFIX_SPAN] * per, "s"),
            ("generators.build_calls", has("builders"), counts["build_calls"] * per, "count"),
            ("generators.symbols_built", has("builders"), counts["symbols_built"] * per, "count"),
            ("generators.built_per_served", has("builders") and has(PREFIX_SPAN),
             self.built_total / self.served_total if self.served_total else 0.0, "ratio"),
            ("recurrence.tau_calls", has("tau_cylinder"), calls["tau_cylinder"] * per, "count"),
            ("recurrence.window_rounds", has("tau_cylinder") and has(PREFIX_SPAN),
             counts["window_rounds"] * per, "count"),
            ("recurrence.tau_self_s", has("tau_cylinder"), self_s["tau_cylinder"] * per, "s"),
            ("recurrence.rate_series_self_s", has("rate_series"), self_s["rate_series"] * per, "s"),
            ("recurrence.lr_self_s", has("lr_constant_estimate"), self_s["lr_constant_estimate"] * per, "s"),
            ("recurrence.unstabilized", has("tau_cylinder"), counts["unstabilized"] * per, "count"),
            ("words.occ_calls", has("occurrences"), calls["occurrences"] * per, "count"),
            ("words.occ_self_s", has("occurrences"), self_s["occurrences"] * per, "s"),
            ("words.occ_scanned", has("occurrences"), counts["occ_scanned"] * per, "count"),
            ("words.occ_hits", has("occurrences"), counts["occ_hits"] * per, "count"),
            ("words.power_self_s", has("max_power_witness"), self_s["max_power_witness"] * per, "s"),
            ("words.counts_self_s", has("word_counts"), self_s["word_counts"] * per, "s"),
            ("words.return_words_self_s", has("return_words"), self_s["return_words"] * per, "s"),
            ("quadratic.new_calls", has("qr.__init__"), counts["qr.__init__"] * per, "count"),
            ("quadratic.floor_calls", has("qr.__floor__"), counts["qr.__floor__"] * per, "count"),
            ("quadratic.cmp_calls", has("qr.sign"), counts["qr.sign"] * per, "count"),
            ("quadratic.self_s", any(k.startswith("qr.") for k in self.present), self.qr_s * per, "s"),
            ("contfrac.coefficient_calls", has("coefficient"), counts["coefficient"] * per, "count"),
            ("contfrac.quadratic_of_cf_s", has("quadratic_of_cf"), self.total_s["quadratic_of_cf"] * per, "s"),
            ("rotation.tau_length_calls", has("tau_length"), calls["tau_length"] * per, "count"),
            ("rotation.tau_length_self_s", has("tau_length"), self_s["tau_length"] * per, "s"),
            ("rotation.cylinder_measure_calls", has("cylinder_measure"), calls["cylinder_measure"] * per, "count"),
            ("rotation.cylinder_measure_self_s", has("cylinder_measure"), self_s["cylinder_measure"] * per, "s"),
            ("rotation.mu_tower_self_s", has("mu_tower_values"), self_s["mu_tower_values"] * per, "s"),
            ("rotation.atoms_self_s", has("atom_lengths"), self_s["atom_lengths"] * per, "s"),
            ("rotation.cross_check_self_s", has("cross_check"), self_s["cross_check"] * per, "s"),
            ("cli.main_calls", has("cli.main"), calls["cli.main"] * per, "count"),
            ("cli.self_s", has("cli.main"), self_s["cli.main"] * per, "s"),
        ]
        return {name: (value, unit) for name, ok, value, unit in table if ok}

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent\n")
            for sid, name, start, end, parent in self.spans:
                fh.write("%d,%s,%.9f,%.9f,%d\n" % (sid, name, start, end, parent))
