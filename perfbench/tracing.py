"""Per-layer spans and counters, recorded from outside the scenetg package.

Nothing here edits the package.  A traced operation runs with:

* a :class:`CountingDriver` between the explorer and the simulator, which
  times every driver call as a ``simulator.*`` span, and
* :func:`patched` module-level names (``scenetg.engine.parse_hierarchy_dump``,
  ``scenetg.simulator.serialize_tree``, graph methods, ...), each replaced by
  a wrapper that records a span and restored when the operation ends.

Spans nest: a span's self time is its duration minus the time of the spans
opened inside it.  The tracer keeps only per-name sums in memory (calls,
total and self nanoseconds) plus named counters, so its cost per span is a
few dictionary updates.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns


class NullTracer:
    """Untraced operations call through this; it only forwards the call."""

    active = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    active = True

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self._open = []  # child nanoseconds of each open span, innermost last

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` as a span called ``name``."""
        open_spans = self._open
        open_spans.append(0)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter_ns() - start
            children = open_spans.pop()
            self.calls[name] += 1
            self.ns[name] += elapsed
            self.self_ns[name] += elapsed - children
            if open_spans:
                open_spans[-1] += elapsed

    def wrap(self, name, fn, observe=None):
        """``fn`` as a span; ``observe(tracer, result)`` sees each result."""

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(self, result)
            return result

        return traced


class CountingDriver:
    """Forwards the driver contract to ``inner``, timing each call.

    ``launch_activity``, ``current_dump`` and the four actions are spans.
    Every other attribute (``running``, ``screenshot_ref``, ``input_type_of``
    and anything a later contract adds) is looked up on ``inner`` when it is
    read, so the proxy has ``input_type_of`` exactly when ``inner`` has it and
    ``running`` always reports the live state: the explorer probes both with
    ``getattr``.
    """

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def launch_activity(self, icc):
        return self._tracer.call("simulator.launch_activity", self._inner.launch_activity, icc)

    def current_dump(self):
        raw, activity = self._tracer.call("simulator.current_dump", self._inner.current_dump)
        self._tracer.counts["simulator.dump_bytes"] += len(raw.encode("utf-8"))
        return raw, activity

    def tap(self, selector):
        return self._tracer.call("simulator.tap", self._inner.tap, selector)

    def press_back(self):
        return self._tracer.call("simulator.press_back", self._inner.press_back)

    def set_text(self, selector, value):
        return self._tracer.call("simulator.set_text", self._inner.set_text, selector, value)

    def toggle(self, selector):
        return self._tracer.call("simulator.toggle", self._inner.toggle, selector)


ACTION_SPANS = ("simulator.tap", "simulator.press_back", "simulator.set_text", "simulator.toggle")


def _count_new_edge(tracer, inserted):
    if inserted:
        tracer.counts["graphs.add_edge.new"] += 1


def _count_launch_ok(tracer, result):
    if getattr(result, "success", False):
        tracer.counts["icc.direct_launch.ok"] += 1


def layer_targets():
    """``(span name, owner, attribute, observe)`` for every patched layer boundary.

    An owner whose attribute is gone (a later design removed the call) makes
    that layer absent: it is skipped and reported with zero calls.
    """
    from scenetg import diff, engine, graphs, identity, simulator

    return [
        ("layout.serialize_tree", simulator, "serialize_tree", None),
        ("layout.parse_hierarchy_dump.engine", engine, "parse_hierarchy_dump", None),
        ("layout.parse_hierarchy_dump.diff", diff, "parse_hierarchy_dump", None),
        ("layout.find_clickable", engine, "find_clickable", None),
        ("layout.match_component", engine, "match_component", None),
        ("identity.scene_id", identity, "scene_id", None),
        ("icc.direct_launch", engine, "direct_launch", _count_launch_ok),
        ("graphs.add_edge", graphs.ActivityGraph, "add_edge", _count_new_edge),
        ("graphs.add_edge", graphs.SceneGraph, "add_edge", _count_new_edge),
        ("graphs.caller_chains", graphs.ActivityGraph, "caller_chains", None),
        ("graphs.export", graphs, "export_json", None),
        ("graphs.export", graphs, "export_dot", None),
        ("engine", engine, "explore", None),
        ("engine.write_outputs", engine, "write_outputs", None),
        ("diff.match_scenes", diff, "match_scenes", None),
        ("diff.diff_trees", diff, "diff_trees", None),
    ]


def absent_layers(targets) -> list[str]:
    """Span names none of whose patch points exist any more."""
    present = {name for name, owner, attr, _ in targets if attr in vars(owner)}
    return sorted({name for name, _, _, _ in targets} - present)


@contextmanager
def patched(tracer: Tracer, targets):
    """Replace each present target with a span wrapper; restore all on exit."""
    saved = []
    try:
        for name, owner, attr, observe in targets:
            original = vars(owner).get(attr)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, observe))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
