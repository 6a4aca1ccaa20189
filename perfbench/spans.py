"""Timing wrappers around the public functions of each modrep2 module, loaded
into a job's process by child.py; nothing under src/ is edited.

A layer is one module of the package.  In "trace" mode every public
module-level function, every public class constructor and the methods in
METHODS get a span wrapper; spans (name, start, end, parent) are kept in
memory and reduced to per-name self time and call counts when the job ends.
In "count" mode only the per-element hot paths, AutGroup.mul and
ClassFunction.fingerprint, get a bare call counter, so their wrapper cost
stays out of the traced self times.

A wrapper replaces the original on the defining module and on every
module-level alias of it (``from .x import y`` copies the object, so wrapping
only the defining module would miss the calls made through the copy).
"""

import functools
import importlib
import inspect
import resource
import statistics
import sys
import time

LAYERS = ("rings", "groups", "orbits", "classfun", "dixon", "build", "verify",
          "cli")

# Methods that do a layer's work behind an attribute access or a cache, named
# after what they compute.  GroupBase._compute_classes is the lazy fill behind
# class_reps/class_sizes/cls_index, so it runs once per group.
METHODS = {
    "groups.classes": ("groups", "GroupBase", "_compute_classes"),
    "groups.abelianization": ("groups", "GroupBase", "abelianization"),
    "groups.subgroup": ("groups", "AutGroup", "subgroup"),
    "classfun.fingerprint": ("classfun", "ClassFunction", "fingerprint"),
}

# Classes built through a cached factory (aut_group, make_ring).  Leaving them
# without spans of their own keeps element enumeration and ring tables in the
# factory's self time.
NO_CONSTRUCTOR_SPAN = {"groups.AutGroup", "rings.LocalRing",
                       "rings.FiniteField"}


class Recorder:
    """Spans and counters of one process."""

    def __init__(self):
        self.spans = []          # (name, start_ns, end_ns, parent index or -1)
        self.stack = [-1]
        self.counts = {}         # name -> one-element list, bumped in place
        self.extra = {"dixon.rss_delta_mb": 0.0, "dixon.class_count": 0,
                      "classfun.dedupe.offered": 0,
                      "classfun.dedupe.kept": 0}

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[i] = (name, start, end, parent)
        return wrapper

    def counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    def summary(self):
        """Per-name self seconds and call counts, plus counters and extras.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_s, calls = {}, {}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner) / 1e9
            calls[name] = calls.get(name, 0) + 1
        return {"self_s": self_s, "calls": calls,
                "counts": {k: v[0] for k, v in self.counts.items()},
                "extra": dict(self.extra)}


def span_cost_s(calls=20000, rounds=7):
    """Seconds one span adds to a traced job, measured in this process: per
    call of a no-op, the wrapped time plus its share of summary() minus the
    bare time, as the median over rounds."""
    def noop():
        return None

    costs = []
    for _ in range(rounds):
        rec = Recorder()
        wrapped = rec.span("noop", noop)
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            wrapped()
        rec.summary()
        t2 = time.perf_counter_ns()
        costs.append((t2 - 2 * t1 + t0) / calls / 1e9)
    return statistics.median(costs)


def _dixon_extras(rec, fn):
    """Record ru_maxrss growth across the oracle call and the class count k
    (one degree per class)."""
    extra = rec.extra

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        degrees = fn(*args, **kwargs)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        extra["dixon.rss_delta_mb"] += (after - before) / 1024.0
        extra["dixon.class_count"] += len(degrees)
        return degrees
    return wrapper


def _dedupe_extras(rec, fn):
    """Record how many class functions dedupe was offered and kept."""
    extra = rec.extra

    @functools.wraps(fn)
    def wrapper(funcs):
        kept = fn(funcs)
        extra["classfun.dedupe.offered"] += len(funcs)
        extra["classfun.dedupe.kept"] += len(kept)
        return kept
    return wrapper


EXTRAS = {"dixon.character_degrees": _dixon_extras,
          "classfun.dedupe": _dedupe_extras}


def _public_callables(layer, module):
    """(span name, object) for each public function and class the module
    defines itself."""
    for name, obj in vars(module).items():
        if name.startswith("_") or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield layer + "." + name, obj


def _swap(value, replacements):
    try:
        return replacements.get(value, value)
    except TypeError:  # unhashable values are never wrapped originals
        return value


def _replace_aliases(replacements):
    """Swap each original for its wrapper wherever a modrep2 module holds it:
    as a module attribute or as a value of a module-level dict."""
    for modname, module in list(sys.modules.items()):
        if modname != "modrep2" and not modname.startswith("modrep2."):
            continue
        for attr, value in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            if isinstance(value, dict):
                for k, v in list(value.items()):
                    value[k] = _swap(v, replacements)
            else:
                setattr(module, attr, _swap(value, replacements))


def install_trace(rec):
    modules = {layer: importlib.import_module("modrep2." + layer)
               for layer in LAYERS}
    replacements = {}
    for layer, module in modules.items():
        for name, obj in _public_callables(layer, module):
            if inspect.isclass(obj):
                if "__init__" in vars(obj) and name not in NO_CONSTRUCTOR_SPAN:
                    obj.__init__ = rec.span(name, obj.__init__)
                continue
            fn = obj
            if name in EXTRAS:
                fn = EXTRAS[name](rec, fn)
            replacements[obj] = rec.span(name, fn)
    for name, (layer, clsname, meth) in METHODS.items():
        cls = getattr(modules[layer], clsname)
        setattr(cls, meth, rec.span(name, vars(cls)[meth]))
    _replace_aliases(replacements)


def install_count(rec):
    groups = importlib.import_module("modrep2.groups")
    classfun = importlib.import_module("modrep2.classfun")
    init = groups.AutGroup.__init__

    # AutGroup.mul is a closure bound per instance in __init__; subgroups and
    # quotients copy or call it, so counting it here counts them too.
    @functools.wraps(init)
    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.mul = rec.counter("groups.mul", self.mul)

    groups.AutGroup.__init__ = counted_init
    cf = classfun.ClassFunction
    cf.fingerprint = rec.counter("classfun.fingerprint", cf.fingerprint)


def install(mode):
    """Install the wrappers for mode "trace" or "count"; returns the
    Recorder that collects what they see."""
    rec = Recorder()
    if mode == "trace":
        install_trace(rec)
    elif mode == "count":
        install_count(rec)
    else:
        raise ValueError("unknown mode %r" % (mode,))
    return rec
