"""Outside-in span tracer for the sparsemimo layers.

The tracer wraps public functions of the ``sparsemimo`` modules at run time,
rebinding every module-level name that refers to a wrapped function, so each
caller's own lookup reaches the wrapper. Nothing in the package changes on
disk and every binding is restored when the ``traced`` block exits, also on
error. A target whose function no longer exists is skipped and simply
reports zero calls.

A span is the tuple ``(name_id, start_ns, end_ns, parent, run)``: ``parent``
is the index of the enclosing span (-1 at the root) and ``run`` the index of
the enclosing ``experiment.run_single`` span, shared by every span of that
Monte-Carlo run (-1 outside a run). Spans stay in memory until ``save``.
"""
from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np

PACKAGE = "sparsemimo"


def _arg(position: int, keyword: str) -> Callable:
    """Tagger reading one call argument; a missing argument gives no tag."""

    def tag(args, kwargs):
        value = args[position] if len(args) > position else kwargs.get(keyword)
        return value if isinstance(value, str) else None

    return tag


def _algorithm_of_state(args, kwargs):
    state = args[0] if args else kwargs.get("state")
    value = getattr(state, "algorithm", None)
    return value if isinstance(value, str) else None


class Target(NamedTuple):
    """One wrapped callable: ``module.attr`` (``attr`` may be ``Class.method``)."""

    module: str
    attr: str
    span: str
    tag: Callable | None = None
    run: bool = False  # spans of this target open a Monte-Carlo run


# Layer boundaries: the calls one module makes into another, plus the
# experiment entry points the per-run and aggregation metrics need.
# Update rules are reached through ``estimator.update`` and tagged by the
# state's algorithm, so rule-internal calls add no nested spans.
FULL_TARGETS = (
    Target("channel", "assemble_mimo_channel", "channel.assemble"),
    Target("signal", "TrainingGenerator.next", "signal.training"),
    Target("signal", "push_regressor", "signal.push_regressor"),
    Target("signal", "system_output", "signal.system_output"),
    Target("estimator", "EstimatorState.initial", "estimator.initial"),
    Target("estimator", "predict", "estimator.predict"),
    Target("estimator", "update", "estimator.update", _algorithm_of_state),
    Target("experiment", "run_grid", "experiment.run_grid"),
    Target("experiment", "run_single", "experiment.run_single", _arg(2, "algorithm"), run=True),
    Target("experiment", "average_mse", "experiment.average_mse"),
    Target("experiment", "realization_digest", "experiment.realization_digest"),
    Target("cli", "main", "cli.main"),
    Target("cli", "emit_csv", "cli.emit_csv"),
    Target("cli", "RunManifest.collect", "cli.manifest"),
    Target("cli", "RunManifest.write", "cli.manifest"),
)

# Only experiment and cli entry points: a few spans per Monte-Carlo run, so
# the timings they give are those of an untraced pass.
SHALLOW_TARGETS = tuple(t for t in FULL_TARGETS if t.span.split(".")[0] in ("experiment", "cli"))


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.errors: Counter = Counter()  # (span name, exception type) -> count
        self._stack = [(-1, -1)]  # (span index, run index)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn: Callable, target: Target) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        base = self.name_id(target.span)
        tag, opens_run = target.tag, target.run

        def traced_call(*args, **kwargs):
            nid = base
            if tag is not None:
                label = tag(args, kwargs)
                if label is not None:
                    nid = self.name_id(f"{target.span}.{label}")
            parent, run = stack[-1]
            index = len(spans)
            if opens_run:
                run = index
            spans.append(None)
            stack.append((index, run))
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[(self.names[nid], type(exc).__name__)] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, parent, run)

        traced_call.__wrapped__ = fn
        return traced_call

    def table(self) -> np.ndarray:
        """Spans as an ``(n, 5)`` int64 array (columns as in the module doc)."""
        if not self.spans:
            return np.zeros((0, 5), dtype=np.int64)
        return np.array(self.spans, dtype=np.int64)

    def save(self, path) -> None:
        table = self.table()
        np.savez_compressed(
            path,
            name_id=table[:, 0], start_ns=table[:, 1], end_ns=table[:, 2],
            parent=table[:, 3], run=table[:, 4], names=np.array(self.names),
        )


def _modules():
    prefix = PACKAGE + "."
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(prefix))]


@contextmanager
def traced(tracer: Tracer, targets=FULL_TARGETS):
    """Install wrappers for ``targets``; restore every original binding on exit."""
    restore = []  # (owner, attribute, original object)
    try:
        for target in targets:
            module = sys.modules.get(f"{PACKAGE}.{target.module}")
            if module is None:
                continue
            if "." in target.attr:
                class_name, method = target.attr.split(".", 1)
                owner = getattr(module, class_name, None)
                raw = owner.__dict__.get(method) if isinstance(owner, type) else None
                if raw is None:
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(tracer.wrap(raw.__func__, target))
                elif callable(raw):
                    wrapped = tracer.wrap(raw, target)
                else:
                    continue
                restore.append((owner, method, raw))
                setattr(owner, method, wrapped)
                continue
            original = getattr(module, target.attr, None)
            if not callable(original):
                continue
            wrapper = tracer.wrap(original, target)
            for mod in _modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


class SpanStats(NamedTuple):
    """Per-name aggregates: call count, inclusive and self nanoseconds."""

    calls: dict[str, int]
    total_ns: dict[str, int]
    self_ns: dict[str, int]


def self_times(table: np.ndarray) -> np.ndarray:
    """Self time of every span: its duration minus its children's durations.

    Spans come from one thread and nest, so children never overlap each
    other and lie inside their parent; the part of the parent's interval
    they cover is the sum of their durations.
    """
    duration = table[:, 2] - table[:, 1]
    parent = table[:, 3]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(table))
    return duration - covered.astype(np.int64)


def span_stats(table: np.ndarray, names: list[str]) -> SpanStats:
    calls, total, own = {}, {}, {}
    if len(table):
        ids = table[:, 0]
        duration = table[:, 2] - table[:, 1]
        selfs = self_times(table)
        count = np.bincount(ids, minlength=len(names))
        dur_sum = np.bincount(ids, weights=duration, minlength=len(names))
        self_sum = np.bincount(ids, weights=selfs, minlength=len(names))
        for nid, name in enumerate(names):
            if count[nid]:
                calls[name] = int(count[nid])
                total[name] = int(dur_sum[nid])
                own[name] = int(self_sum[nid])
    return SpanStats(calls, total, own)


def layer_self_ns(stats: SpanStats) -> dict[str, int]:
    """Self time summed per layer, the first dotted component of a span name."""
    layers: Counter = Counter()
    for name, ns in stats.self_ns.items():
        layers[name.split(".", 1)[0]] += ns
    return dict(layers)


def matching(stats_field: dict, span: str) -> int:
    """Sum over ``span`` and its tagged variants ``span.<tag>``."""
    return sum(v for k, v in stats_field.items() if k == span or k.startswith(span + "."))
