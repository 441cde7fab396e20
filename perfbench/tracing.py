"""Spans and counters around the calls into each quivertl layer.

The wrappers are installed where the callers look the names up (module
globals such as ``decomposition.graded_path_count`` and methods of
``Geometry``), so no file of the package changes.  Spans are kept in memory
as ``[name, start_ns, end_ns, parent_index, request_id]`` and written out
when the pass ends.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import time

# (module, attribute, span name).  The same span name may be bound in more
# than one namespace: ``cli`` imports the decomposition routes by name.
SPANS = (
    ("cli", "main", "cli.main"),
    ("decomposition", "blocks", "decomposition.blocks"),
    ("decomposition", "decomposition_matrix", "decomposition.decomposition_matrix"),
    ("cli", "decomposition_matrix", "decomposition.decomposition_matrix"),
    ("decomposition", "kn_oracle", "decomposition.kn_oracle"),
    ("cli", "kn_oracle", "decomposition.kn_oracle"),
    ("decomposition", "graded_path_count", "paths.graded_path_count"),
    ("decomposition", "alcove_series", "paths.alcove_series"),
    ("paths", "reflection_closure", "paths.reflection_closure"),
    ("decomposition", "run_all", "soergel.run_all"),
    ("soergel", "n_function", "soergel.n_function"),
    ("decomposition", "split_symmetric", "laurent.split_symmetric"),
    ("geometry.Geometry", "star", "geometry.star"),
    ("geometry.Geometry", "minimal_gallery", "geometry.minimal_gallery"),
    ("geometry.Geometry", "alcove_of", "geometry.alcove_of"),
)

# Modules whose spans add up to a ``<module>.self_s`` total.
MODULES = ("decomposition", "paths", "geometry", "soergel", "laurent")


def _path_total(result):
    return sum(result.terms.values())


# (module, attribute, counter, measure): counters fed from return values.
# ``_closure_cached`` is the closure lookup that ``paths_between`` scans in
# full on every graded path count; it gets no span of its own.
COUNTERS = (
    ("paths", "reflection_closure", "closure_paths", len),
    ("paths", "_closure_cached", "closure_scanned", len),
    ("decomposition", "graded_path_count", "paths_counted", _path_total),
)


class MissingHook(Exception):
    pass


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = dict.fromkeys((c[2] for c in COUNTERS), 0)
        self.request = None
        self.on = False

    def wrap_span(self, name, fn):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def wrap_counter(self, counter, measure, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.on:
                counters[counter] += measure(result)
            return result

        return counted

    def install(self, modules):
        """Patch the wrappers into ``modules`` (a name -> module map, with
        ``"geometry.Geometry"`` naming the class).  Returns a callable that
        puts the originals back.  Raises ``MissingHook``, and patches
        nothing, when the program no longer binds one of the names: the
        benchmark must then be updated with the program, or that layer's
        metrics would read as zero."""
        hooks = [
            (modules[mod], attr, lambda fn, name=name: self.wrap_span(name, fn))
            for mod, attr, name in SPANS
        ] + [
            (modules[mod], attr, lambda fn, c=counter, m=measure: self.wrap_counter(c, m, fn))
            for mod, attr, counter, measure in COUNTERS
        ]
        missing = [
            "%s.%s" % (owner.__name__, attr)
            for owner, attr, _ in hooks
            if owner.__dict__.get(attr) is None
        ]
        if missing:
            raise MissingHook("not bound any more: %s" % ", ".join(missing))
        saved = []
        for owner, attr, wrapper_of in hooks:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper_of(original))

        def restore():
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return restore

    def summary(self):
        """Per-layer metrics of everything recorded so far."""
        child_ns = [0] * len(self.spans)
        calls = dict.fromkeys((s[2] for s in SPANS), 0)
        self_ns = dict.fromkeys(calls, 0)
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_ns[parent] += end - start
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_ns.setdefault(name, 0)
            self_ns[name] += (end - start) - child_ns[idx]
        out = {}
        for name in sorted(calls):
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_ns[name] / 1e9
        for mod in MODULES:
            out[mod + ".self_s"] = sum(
                ns for name, ns in self_ns.items() if name.startswith(mod + ".")
            ) / 1e9
        c = self.counters
        out["paths.closure_paths"] = c["closure_paths"]
        out["paths.scan_per_hit"] = _ratio(c["closure_scanned"], c["paths_counted"])
        out["soergel.n_function.miss_ratio"] = _ratio(
            calls["geometry.minimal_gallery"], calls["soergel.n_function"]
        )
        return out

    def write(self, path):
        """Write the spans as gzipped JSON, one list per span."""
        data = {
            "fields": ["name", "start_ns", "end_ns", "parent", "request"],
            "spans": self.spans,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))


def _ratio(num, den):
    return num / den if den else 0.0


def is_count(metric):
    """Metrics that must repeat exactly across passes and seeds."""
    return metric.endswith(".calls") or metric in (
        "paths.closure_paths",
        "paths.scan_per_hit",
        "soergel.n_function.miss_ratio",
    )
