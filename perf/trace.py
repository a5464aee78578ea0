"""Outside-in layer tracer: times the public entry points of each layer.

No file in ``src/`` changes.  :data:`POINTS` declares every traced
callable as ``module:qualname`` at the place where its caller looks it
up: a method on its class, or a function at the module binding its
caller imported it under.  :meth:`Tracer.install` replaces each with a
timing wrapper and :meth:`Tracer.uninstall` puts the originals back.
The wrappers only observe — arguments and results pass through
untouched — so a traced job's ``(count, clock, io)`` triple equals the
untraced job's.

Every wrapped call is a span with a name, start, end, parent and
request id.  The request id is inherited from the enclosing span unless
the point extracts its own (a job index, a grid cell, a query id).
Per-tuple entry points are not kept one by one: the nearest enclosing
kept span aggregates their call count and time.  A span's self time is
its duration minus that of its children, and a layer's self time is the
sum over its spans.  Spans stay in memory (at most :data:`MAX_SPANS` per
entry point; totals always count every call) until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Layers in report order.  ``other`` is the time the benchmark's own
#: root spans (and the grid's per-cell glue) spend outside every layer.
LAYERS = (
    "workloads", "net", "sim", "pipeline", "columnar", "hashing", "flushing",
    "merging", "storage", "recorder", "operator", "session", "broker",
    "events", "other",
)

#: Spans kept per entry point; later calls still count in the totals.
MAX_SPANS = 2000


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _add(counts: dict, key: str, n) -> None:
    counts[key] = counts.get(key, 0) + n


# Counter hooks: (counts, args, kwargs, result, before) -> None.

def _popped_rows(counts, args, kwargs, result, before):
    _add(counts, "net.rows", len(result[1]))


def _popped_row(counts, args, kwargs, result, before):
    _add(counts, "net.rows", 1)


def _columnar_rows(counts, args, kwargs, result, before):
    _add(counts, "columnar.rows", len(_arg(args, kwargs, 1, "batch").keys))


def _probed_batch(counts, args, kwargs, result, before):
    _add(counts, "hashing.rows", len(_arg(args, kwargs, 1, "keys")))
    _add(counts, "hashing.candidates", int(result.candidates.sum()))
    _add(counts, "hashing.matches", int(result.total_matches))


def _probed_tuple(counts, args, kwargs, result, before):
    _add(counts, "hashing.rows", 1)
    _add(counts, "hashing.candidates", result[1])
    _add(counts, "hashing.matches", len(result[0]))


def _recorded(n_of: Callable, phase_at: int):
    def hook(counts, args, kwargs, result, before):
        n = n_of(args, kwargs, result)
        _add(counts, "recorder.rows", n)
        if _arg(args, kwargs, phase_at, "phase") == "merging":
            _add(counts, "merging.results", n)

    return hook


def _disk_pages(args) -> tuple[int, int]:
    disk = args[0]
    return disk.pages_written, disk.pages_read


def _paged(counts, args, kwargs, result, before):
    written, read = _disk_pages(args)
    _add(counts, "storage.pages_written", written - before[0])
    _add(counts, "storage.pages_read", read - before[1])


def _blocked(counts, args, kwargs, result, before):
    _add(counts, "sim.blocked_windows", 1)


def _is_plan_query(args) -> bool:
    return type(args[0].driver).__name__ == "PlanExecutor"


@dataclass(frozen=True)
class TracePoint:
    """One traced callable and how its calls are accounted.

    Attributes:
        target: ``module:qualname`` where the caller looks it up.
        layer: The layer its self time is charged to.
        per_tuple: Aggregate calls into the enclosing kept span instead
            of keeping each as a span.
        counters: ``(counts, args, kwargs, result, before)`` hook that
            adds the work the call did to the count totals.
        snapshot: ``args -> before`` state read ahead of the call, for
            counters that measure a difference (page I/O).
        request: ``args -> request id`` for this span and its children.
        plan: ``args -> bool``, True when the call drives a plan-shaped
            query; spans below it then charge ``plan_layer``.
        plan_layer: This point's layer inside a plan-shaped query.
        iterator: The call returns an iterator; each step is timed.
        wraps_argument: Instead of timing the call, wrap the callable
            passed at this position (a listener) and time its calls.
    """

    target: str
    layer: str
    per_tuple: bool = False
    counters: Callable | None = None
    snapshot: Callable | None = None
    request: Callable | None = None
    plan: Callable | None = None
    plan_layer: str | None = None
    iterator: bool = False
    wraps_argument: int | None = None


def _operator_points(cls_target: str) -> list[TracePoint]:
    return [
        TracePoint(f"{cls_target}.on_column_batch", "operator"),
        TracePoint(f"{cls_target}.on_tuple_batch", "operator"),
        TracePoint(f"{cls_target}.on_tuple", "operator", per_tuple=True),
        TracePoint(f"{cls_target}.on_blocked", "operator", counters=_blocked),
        TracePoint(f"{cls_target}.finish", "operator"),
    ]


def _disk_point(method: str, **extra) -> TracePoint:
    return TracePoint(
        f"repro.storage.disk:SimulatedDisk.{method}",
        "storage",
        counters=_paged,
        snapshot=_disk_pages,
        **extra,
    )


POINTS: tuple[TracePoint, ...] = (
    TracePoint("repro.workloads.generator:make_relation_pair", "workloads"),
    TracePoint("repro.bench.grid:make_relation_pair", "workloads"),
    TracePoint("repro.service.spec:make_relation_pair", "workloads"),
    TracePoint("repro.pipeline.shapes:make_plan_relations", "workloads"),
    TracePoint("repro.net.source:NetworkSource.pop_batch_columns", "net",
               counters=_popped_rows),
    TracePoint("repro.net.source:NetworkSource.pop_batch", "net",
               counters=_popped_rows),
    TracePoint("repro.net.source:NetworkSource.pop", "net", per_tuple=True,
               counters=_popped_row),
    TracePoint("repro.net.source:SourceCursor.pop", "net", per_tuple=True,
               counters=_popped_row),
    TracePoint("repro.sim.scheduler:EventScheduler.step", "sim",
               plan_layer="pipeline"),
    TracePoint("repro.sim.query:Query.step", "sim",
               request=lambda args: args[0].query_id, plan=_is_plan_query),
    TracePoint("repro.core.hmj:run_columnar_batch", "columnar",
               counters=_columnar_rows),
    TracePoint("repro.joins.xjoin:run_columnar_batch", "columnar",
               counters=_columnar_rows),
    TracePoint("repro.core.hashing:DualHashTable.probe_insert_batch", "hashing",
               counters=_probed_batch),
    TracePoint("repro.core.hashing:DualHashTable.probe_insert", "hashing",
               per_tuple=True, counters=_probed_tuple),
    TracePoint("repro.core.hashing:DualHashTable.hash_batch", "hashing"),
    TracePoint("repro.core.hashing:DualHashTable.extract_group_columns", "hashing"),
    *(
        TracePoint(f"repro.core.flushing:{cls}.select_victims", "flushing")
        for cls in (
            "FlushAllPolicy", "FlushSmallestPolicy", "FlushLargestPolicy",
            "AdaptiveFlushingPolicy", "FlushColdestPolicy",
        )
    ),
    TracePoint("repro.core.merging:MergeScheduler.work", "merging"),
    TracePoint("repro.core.merging:MergeScheduler.register_flush", "merging"),
    TracePoint("repro.core.merging:MergeScheduler.register_flush_columns", "merging"),
    _disk_point("write_block"),
    _disk_point("write_block_columns"),
    _disk_point("read_block"),
    _disk_point("page_reader", iterator=True),
    _disk_point("charge_write_pages", per_tuple=True),
    _disk_point("absorb_io_pages", per_tuple=True),
    TracePoint("repro.storage.disk:SimulatedDisk.block_columns", "storage"),
    TracePoint("repro.core.merging:vectorized_run_merge", "storage"),
    TracePoint("repro.core.hmj:sort_columns_by_key", "storage"),
    TracePoint("repro.metrics.recorder:MetricsRecorder.append_batch_columns",
               "recorder",
               counters=_recorded(lambda a, k, r: len(_arg(a, k, 1, "times")), 3)),
    TracePoint("repro.metrics.recorder:MetricsRecorder.record", "recorder",
               per_tuple=True, counters=_recorded(lambda a, k, r: 1, 2)),
    TracePoint("repro.metrics.recorder:MetricsRecorder.record_batch", "recorder"),
    *_operator_points("repro.core.hmj:HashMergeJoin"),
    *_operator_points("repro.joins.xjoin:XJoin"),
    *_operator_points("repro.joins.pmj:ProgressiveMergeJoin"),
    TracePoint("repro.service.session:QuerySession.step", "session"),
    TracePoint("repro.service.session:QuerySession.submit", "session",
               request=lambda args: args[1].query_id),
    TracePoint("repro.service.broker:SharedBroker.rebalance", "broker"),
    TracePoint("repro.service.session:QuerySession.add_listener", "events",
               per_tuple=True, wraps_argument=1,
               request=lambda args: args[1].query_id),
    TracePoint("repro.bench.grid:run_cell", "other",
               request=lambda args: args[0].key),
)


def resolve(target: str):
    """``(owner, attribute, callable, owned)`` for a ``module:qualname``.

    Raises ``ImportError``/``AttributeError`` when the target no longer
    exists, so an upstream rename fails loudly instead of silently
    dropping a layer.  ``owned`` is False for a method inherited from a
    base class (restoring it means deleting the override).
    """
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = getattr(owner, attribute)
    if not callable(original):
        raise TypeError(f"trace point {target} is not callable")
    return owner, attribute, original, attribute in vars(owner)


# Frame slots (a frame is a list: cheap to build on the hot path).  A
# per-tuple frame's _OWNER is the nearest enclosing kept frame, whose
# _AGG collects the per-tuple calls below it.
_POINT, _LAYER, _START, _CHILD, _REQUEST, _PLAN, _ID, _OWNER, _AGG = range(9)


def _kept(frame: list | None) -> list | None:
    """The nearest frame at or above ``frame`` that is kept as a span."""
    if frame is None or not frame[_POINT].per_tuple:
        return frame
    return frame[_OWNER]


class Tracer:
    """Installs the wrappers and accumulates spans, self times and counts."""

    def __init__(self) -> None:
        self._patched: list[tuple] = []
        self._stack: list[list] = []
        self._active = False
        self._epoch = time.perf_counter()
        self._next_id = 0
        self._spans_per_point: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.point_totals: dict[str, list] = {}
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.counts: dict[str, int] = {}
        self.roots = 0
        self.root_seconds = 0.0

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every trace point (all resolve first, or nothing is patched)."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        resolved = [(point, *resolve(point.target)) for point in POINTS]
        for point, owner, attribute, original, owned in resolved:
            setattr(owner, attribute, self._wrapper(point, original))
            self._patched.append((owner, attribute, original, owned))
        self._active = True

    def uninstall(self) -> None:
        """Restore every original callable."""
        self._active = False
        for owner, attribute, original, owned in reversed(self._patched):
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrapper(self, point: TracePoint, original: Callable) -> Callable:
        if point.wraps_argument is not None:
            index = point.wraps_argument

            def wrap_argument(*args, **kwargs):
                args = list(args)
                args[index] = self._timed(point, args[index])
                return original(*args, **kwargs)

            return wrap_argument
        return self._timed(point, original)

    def _timed(self, point: TracePoint, fn: Callable) -> Callable:
        enter, leave = self._enter, self._leave
        counters, snapshot = point.counters, point.snapshot

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            before = snapshot(args) if snapshot is not None else None
            frame = enter(point, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if point.iterator:
                return _TimedIterator(self, point, args, result)
            if counters is not None:
                counters(self.counts, args, kwargs, result, before)
            return result

        return traced

    # -- spans ---------------------------------------------------------------

    def _enter(self, point: TracePoint, args) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        if point.request is not None:
            request = point.request(args)
        else:
            request = parent[_REQUEST] if parent is not None else None
        if point.plan is not None:
            plan = point.plan(args)
        else:
            plan = parent[_PLAN] if parent is not None else False
        layer = point.plan_layer if plan and point.plan_layer else point.layer
        frame = [point, layer, 0.0, 0.0, request, plan, None, None, None]
        if point.per_tuple:
            frame[_OWNER] = _kept(parent)
        else:
            frame[_ID] = self._next_id
            self._next_id += 1
        stack.append(frame)
        frame[_START] = time.perf_counter()
        return frame

    def _leave(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[_START]
        self_time = duration - frame[_CHILD]
        point = frame[_POINT]
        totals = self.point_totals.get(point.target)
        if totals is None:
            name = point.target.partition(":")[2]
            totals = self.point_totals[point.target] = [point.layer, 0, 0.0, name]
        totals[1] += 1
        totals[2] += self_time
        self.layer_self[frame[_LAYER]] += self_time
        if stack:
            stack[-1][_CHILD] += duration
        else:
            self.roots += 1
            self.root_seconds += duration
        name = totals[3]
        if point.per_tuple:
            owner = frame[_OWNER]
            if owner is not None:
                agg = owner[_AGG]
                if agg is None:
                    agg = owner[_AGG] = {}
                entry = agg.get(name)
                if entry is None:
                    agg[name] = [1, duration]
                else:
                    entry[0] += 1
                    entry[1] += duration
            return
        kept = self._spans_per_point.get(point.target, 0)
        if kept >= MAX_SPANS:
            self.dropped += 1
            return
        self._spans_per_point[point.target] = kept + 1
        parent = _kept(stack[-1]) if stack else None
        self.spans.append((
            frame[_ID],
            parent[_ID] if parent is not None else None,
            name,
            frame[_LAYER],
            frame[_START] - self._epoch,
            end - self._epoch,
            frame[_REQUEST],
            frame[_AGG],
        ))

    @contextmanager
    def root(self, name: str, request: str):
        """A root span of the benchmark's own (one job, pass or set-up)."""
        frame = self._enter(TracePoint(f"perf:{name}", "other", request=lambda _: request), ())
        try:
            yield
        finally:
            self._leave(frame)

    # -- output --------------------------------------------------------------

    def summary(self) -> dict:
        """Totals per layer and entry point, counts and root time."""
        return {
            "layers": dict(self.layer_self),
            "points": {
                target: {"layer": layer, "calls": calls, "self_s": seconds}
                for target, (layer, calls, seconds, _) in sorted(self.point_totals.items())
            },
            "counts": dict(self.counts),
            "roots": {"count": self.roots, "seconds": self.root_seconds},
            "spans": {"kept": len(self.spans), "dropped": self.dropped},
        }

    def write(self, path: Path) -> dict:
        """Write the summary to ``path`` and the spans next to it (JSON lines)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        summary = self.summary()
        path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
        fields = ("id", "parent", "name", "layer", "start", "end", "request", "agg")
        with path.with_suffix(".spans.jsonl").open("w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(fields, span))) + "\n")
        return summary


class _TimedIterator:
    """Times each step of an iterator a traced call returned."""

    def __init__(self, tracer: Tracer, point: TracePoint, args, iterator) -> None:
        self._tracer = tracer
        self._point = point
        self._args = args
        self._iterator = iter(iterator)

    def __iter__(self):
        return self

    def __next__(self):
        tracer, point = self._tracer, self._point
        if not tracer._active:
            return next(self._iterator)
        before = point.snapshot(self._args) if point.snapshot is not None else None
        frame = tracer._enter(point, self._args)
        try:
            item = next(self._iterator)
        finally:
            tracer._leave(frame)
            if point.counters is not None:
                point.counters(tracer.counts, self._args, {}, None, before)
        return item


def layer_metrics(summary: dict, ops: int) -> dict[str, float]:
    """The declared per-layer metrics from a tracer summary.

    Self times are shares (%) of the traced operations' total time, so
    they sum to 100 and compare across workloads of any length; counts
    are per traced operation (a job, a grid pass, a query).
    """
    total = summary["roots"]["seconds"]
    metrics = {
        f"{layer}.self_pct": 100.0 * seconds / total if total else 0.0
        for layer, seconds in summary["layers"].items()
    }
    calls = dict.fromkeys(LAYERS, 0)
    steps = 0
    for target, point in summary["points"].items():
        calls[point["layer"]] += point["calls"]
        if target.endswith("EventScheduler.step"):
            steps += point["calls"]
    counts = summary["counts"]

    def count(name: str) -> int:
        return counts.get(name, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    per_op = max(1, ops)
    metrics.update({
        "workloads.calls": calls["workloads"] / per_op,
        "net.rows": count("net.rows") / per_op,
        "sim.steps": steps / per_op,
        "sim.rows_per_step": ratio(count("net.rows"), steps),
        "sim.blocked_windows": count("sim.blocked_windows") / per_op,
        "columnar.rows": count("columnar.rows") / per_op,
        "hashing.rows": count("hashing.rows") / per_op,
        "hashing.candidates": count("hashing.candidates") / per_op,
        "hashing.match_ratio": ratio(count("hashing.matches"), count("hashing.candidates")),
        "flushing.calls": calls["flushing"] / per_op,
        "merging.calls": calls["merging"] / per_op,
        "merging.results": count("merging.results") / per_op,
        "merging.results_per_page": ratio(
            count("merging.results"), count("storage.pages_read")
        ),
        "storage.pages_written": count("storage.pages_written") / per_op,
        "storage.pages_read": count("storage.pages_read") / per_op,
        "recorder.rows": count("recorder.rows") / per_op,
        "operator.calls": calls["operator"] / per_op,
        "broker.calls": calls["broker"] / per_op,
        "events.count": calls["events"] / per_op,
    })
    return metrics
