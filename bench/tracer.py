"""Span tracer installed from outside the library.

The tracer wraps public functions and a fixed list of methods of the `cgf`
modules at run time, so no library file changes.  A wrapped call records a
span (name, start, end, parent span, op id); hot ring-level methods are only
counted, because a span per ring operation would cost more than the work it
measures.  Spans stay in memory and are written as JSON lines when the run
ends.

Self time is a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# The layers, in the order the report lists them.  `sampling` is left out:
# the benchmark builds its own inputs.
LAYERS = ("rings", "matrices", "words", "reduce", "factor", "homotopy",
          "localglobal", "orthoquot", "oracle", "cli")

# Methods that get a span, by (module, class, method).
SPAN_METHODS = (
    ("matrices", "Mat", "__matmul__"),
    ("matrices", "Mat", "__mul__"),
    ("matrices", "Mat", "det"),
    ("matrices", "Mat", "inverse"),
    ("words", "GenWord", "eval"),
    ("homotopy", "Homotopy", "from_word"),
    ("homotopy", "Homotopy", "from_matrix"),
)

# Ring-level methods that are counted, never spanned.
VALUE_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__neg__", "__pow__", "inverse")

# Public functions too small and too frequent for a span of their own: the
# generator index pairing runs once per column update, and the word-length
# cap is read once per word.  Ring-module functions are counted as well.
COUNT_ONLY = ("words.paired_index", "words.word_limit")

# Span names whose calls inside a `words.GenWord.eval` span are part of the
# evaluation rather than a separate word application.
_APPLY = ("words.apply_word_right", "words.apply_word_left",
          "words.apply_word_to_row")


def _mat_key(m):
    return (m.ring.describe(), m.rows, m.cols,
            tuple(e.payload for row in m.entries for e in row))


def _word_key(w):
    return (w.ring.describe(), w.size, w.family,
            tuple((g.i, g.j, g.param.payload) for g in w.gens))


class Tracer:
    """Collects spans and counters for one traced pass over a set of ops."""

    def __init__(self):
        self.spans = []
        self.stack = []  # [span index, time covered by direct children]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.raised = Counter()  # (span name, exception class name)
        self.counts = Counter()
        self.repeats = Counter()
        self.op_id = -1
        self._seen = defaultdict(set)
        self._paused = 0
        self._restore = []
        self._t0 = perf_counter()

    # -- op boundaries ---------------------------------------------------
    def begin_op(self, op_id: int):
        self.op_id = op_id
        self._seen.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls inside this block are neither spanned nor counted."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- wrappers ----------------------------------------------------------
    def _span(self, name, fn, hook=None, on_result=None):
        tracer = self
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            if name in _APPLY and stack and \
                    spans[stack[-1][0]][0] == "words.GenWord.eval":
                return fn(*args, **kwargs)
            if hook is not None:
                with tracer.paused():
                    hook(tracer, args)
            idx = len(spans)
            spans.append([name, perf_counter(), None, -1, tracer.op_id])
            stack.append([idx, 0.0])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = perf_counter()
                _, covered = stack.pop()
                span = spans[idx]
                span[2] = end
                dur = end - span[1]
                if stack:
                    stack[-1][1] += dur
                    span[3] = stack[-1][0]
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - covered
                tracer.total_s[name] += dur
            if on_result is not None:
                with tracer.paused():
                    on_result(tracer, result)
            return result
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._paused:
                counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _note_repeat(self, kind, key):
        seen = self._seen[kind]
        if key in seen:
            self.repeats[kind] += 1
        else:
            seen.add(key)

    # -- installation -------------------------------------------------------
    def install(self, cgf_pkg):
        """Wrap the library in place; `uninstall` puts every original back."""
        # `cgf.cli` is loaded only by the workload that drives the CLI
        mods = {layer: sys.modules[f"{cgf_pkg.__name__}.{layer}"]
                for layer in LAYERS
                if f"{cgf_pkg.__name__}.{layer}" in sys.modules}
        hooks = {
            "matrices.membership":
                lambda t, a: t._note_repeat("membership", (_mat_key(a[0]),
                                                           a[1])),
            "matrices.Mat.det":
                lambda t, a: t.counts.update(
                    ["det.le6" if a[0].rows <= 6 else "det.gt6"]),
            "words.GenWord.eval": self._eval_hook,
        }
        results = {
            "oracle.enumerate_orbits":
                lambda t, r: t.counts.update({"oracle.objects":
                                              len(r.orbit_of)}),
        }
        replaced = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if layer == "rings" or name in COUNT_ONLY:
                    new = self._counter(name, obj)
                else:
                    new = self._span(name, obj, hooks.get(name),
                                     results.get(name))
                replaced[id(obj)] = (obj, new)
        for layer, cls_name, meth in SPAN_METHODS:
            cls = getattr(mods[layer], cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                new = classmethod(self._span(name, raw.__func__,
                                             hooks.get(name)))
            else:
                new = self._span(name, raw, hooks.get(name))
            self._set(cls, meth, new)
        value_cls = mods["rings"].RingValue
        self._set(value_cls, "__init__",
                  self._counter("rings.values", value_cls.__init__))
        for meth in VALUE_ARITH:
            self._set(value_cls, meth,
                      self._counter("rings.arith", value_cls.__dict__[meth]))
        ring_base = mods["rings"].Ring
        for obj in vars(mods["rings"]).values():
            if (inspect.isclass(obj) and issubclass(obj, ring_base)
                    and "key" in obj.__dict__):
                self._set(obj, "key",
                          self._counter("rings.key", obj.__dict__["key"]))
        # rebind every name that refers to a wrapped function, including the
        # copies made by `from .x import name` in other modules
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == cgf_pkg.__name__ or
                                   mod_name.startswith(cgf_pkg.__name__ + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def _eval_hook(self, tracer, args):
        word = args[0]
        self.counts["words.eval.gens"] += len(word.gens)
        self._note_repeat("eval", _word_key(word))

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- output -------------------------------------------------------------
    def group(self, names):
        """(calls, self seconds) summed over span names."""
        return (sum(self.calls[n] for n in names),
                sum(self.self_s[n] for n in names))

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name,
                                     "start": round(start - self._t0, 9),
                                     "end": round(end - self._t0, 9),
                                     "parent": parent, "op": op},
                                    separators=(",", ":")) + "\n")
