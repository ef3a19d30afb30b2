"""In-memory span recorder and the instrumentation that feeds it.

A span covers one call into a wrapped public function: name, start, end,
parent span, operation and thread. Spans opened on a thread with an empty
stack are adopted by the innermost open ``adopt_threads`` span (the
``run_collection`` call whose workers opened them); otherwise they start a
new operation. Self time is a span's duration minus the union of the
intervals its children cover, clipped to the span.

The recorder patches each wrapped name in every ``fuelspatial`` module that
binds it, so ``gwr.distance_matrix`` and ``geo.distance_matrix`` are both
traced, and restores the originals on ``uninstall``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import re
import sys
import threading
import time
from dataclasses import dataclass

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


@dataclass(slots=True)
class Span:
    span_id: int
    op_id: int
    parent_id: int | None
    name: str
    thread: int
    start: float
    end: float = math.nan

    def as_dict(self) -> dict:
        return {"span": self.span_id, "op": self.op_id, "parent": self.parent_id,
                "name": self.name, "thread": self.thread,
                "start": self.start, "end": self.end}


class _ThreadBuffer:
    """One thread's open-span stack, finished spans and counters."""

    def __init__(self):
        self.stack: list[Span] = []
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.peaks: dict[str, float] = {}


class Tracer:
    """Span and counter recorder for several threads.

    Each thread appends only to its own buffer, so the hot path takes no
    lock; the lock guards the state threads share: the buffer registry, the
    adopting spans, operation roots and the per-operation ``seen`` sets.
    Span ids come from one ``itertools.count``, whose ``next`` is a single
    call under the interpreter lock.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._adopters: list[Span] = []
        self._roots: dict[int, str] = {}
        self._seen: dict[int, set] = {}

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def open(self, name: str, adopt_threads: bool = False) -> Span:
        stack = self._buffer().stack
        span_id = next(self._ids)
        if stack:
            parent = stack[-1]
        else:
            with self._lock:
                parent = self._adopters[-1] if self._adopters else None
                if parent is None:
                    self._roots[span_id] = name
        span = Span(span_id, span_id if parent is None else parent.op_id,
                    None if parent is None else parent.span_id, name,
                    threading.get_ident(), self.clock())
        if adopt_threads:
            with self._lock:
                self._adopters.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        buf = self._buffer()
        if not buf.stack or buf.stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        buf.stack.pop()
        with self._lock:
            if self._adopters and self._adopters[-1] is span:
                self._adopters.pop()
        buf.spans.append(span)

    @property
    def spans(self) -> list[Span]:
        with self._lock:
            return [s for buf in self._buffers for s in buf.spans]

    @property
    def counters(self) -> dict[str, float]:
        out: dict[str, float] = {}
        with self._lock:
            for buf in self._buffers:
                for key, value in buf.counters.items():
                    out[key] = out.get(key, 0.0) + value
                for key, value in buf.peaks.items():
                    out[key] = max(out.get(key, value), value)
        return out

    def root_name(self, span: Span) -> str:
        with self._lock:
            return self._roots.get(span.op_id, span.name)

    def count(self, key: str, value: float = 1.0) -> None:
        counters = self._buffer().counters
        counters[key] = counters.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        """Keep the largest ``value`` seen under ``key``."""
        peaks = self._buffer().peaks
        peaks[key] = max(peaks.get(key, value), value)

    def seen_in_op(self, span: Span, key) -> bool:
        """True if ``key`` was already marked in the operation of ``span``;
        marks it."""
        with self._lock:
            seen = self._seen.setdefault(span.op_id, set())
            if key in seen:
                return True
            seen.add(key)
            return False

    @contextlib.contextmanager
    def span(self, name: str, adopt_threads: bool = False):
        span = self.open(name, adopt_threads)
        try:
            yield span
        finally:
            self.close(span)


def _covered(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end))
                   for c in children.get(s.span_id, ())]
        out[s.span_id] = (s.end - s.start) - _covered([iv for iv in clipped if iv[1] > iv[0]])
    return out


def layer_times(spans, names) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s and self_s (every name in ``names``)."""
    own = self_times(spans)
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += own[s.span_id]
    return out


# ---------------------------------------------------------------------------
# Instrumentation of the package's public functions


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _arg(args, kwargs, name):
    return kwargs[name] if name in kwargs else args[0]


def _on_distance_matrix(t, span, args, kwargs, result):
    n = result.shape[0]
    t.count("geo.distance_matrix.pairs", n * (n - 1))


def _on_build_weights(t, span, args, kwargs, result):
    t.count("geo.build_weights.kept", result.data.size)
    t.count("geo.build_weights.offdiag", result.n * (result.n - 1))


def _on_moran_sweep(t, span, args, kwargs, result):
    t.count("spatial_stats.moran_sweep.cells", len(result.rows))
    t.count("spatial_stats.moran_sweep.skipped", len(result.skipped))


def _on_optimize_bandwidth(t, span, args, kwargs, result):
    t.count("gwr.optimize_bandwidth.evaluations", len(result.evaluations))
    t.count("gwr.optimize_bandwidth.infeasible",
            sum(1 for _, v in result.evaluations if not math.isfinite(v)))


def _on_gwr_fit(t, span, args, kwargs, result):
    data = _arg(args, kwargs, "data")
    t.count("gwr.gwr_fit.locations", data.n)
    if t.seen_in_op(span, ("gwr_fit", id(data), result.spec)):
        t.count("gwr.gwr_fit.repeats")


def _on_enumerate_models(t, span, args, kwargs, result):
    t.count("gwr.enumerate_models.configs", len(result.entries))
    t.count("gwr.enumerate_models.failed", result.n_failed)


def _on_fe_variance_explained(t, span, args, kwargs, result):
    t.count("econometrics.fe_variance_explained.rows",
            len(_arg(args, kwargs, "panel")))


def _on_store_add(t, span, args, kwargs, result):
    phase = t.root_name(span)
    t.count(f"ingest.ObservationStore.add.{phase}.calls")
    t.count(f"ingest.ObservationStore.add.{phase}.stored", 1 if result else 0)


def _on_parse(t, span, args, kwargs, result):
    observations, quarantined = result
    t.count("ingest.parse_price_record.lines", len(observations) + len(quarantined))


def _on_run_collection(t, span, args, kwargs, result):
    plan = _arg(args, kwargs, "plan")
    t.count("ingest.run_collection.attempts", sum(result.attempts.values()))
    t.count("ingest.run_collection.urls", len(plan.urls))
    t.count("ingest.run_collection.failed", result.failed)
    t.peak("ingest.run_collection.peak_in_flight", result.peak_in_flight)


PACKAGE = "fuelspatial"

# (module, attribute path, counter hook, adopts worker-thread spans)
TARGETS = [
    ("geo", "distance_matrix", _on_distance_matrix, False),
    ("geo", "kernel_weight", None, False),
    ("geo", "adaptive_bandwidths", None, False),
    ("geo", "build_weights", _on_build_weights, False),
    ("spatial_stats", "moran_sweep", _on_moran_sweep, False),
    ("spatial_stats", "moran_index", None, False),
    ("spatial_stats", "variance_decomposition", None, False),
    ("gwr", "enumerate_models", _on_enumerate_models, False),
    ("gwr", "optimize_bandwidth", _on_optimize_bandwidth, False),
    ("gwr", "gwr_fit", _on_gwr_fit, False),
    ("gwr", "nearest_neighbor_scale", None, False),
    ("gwr", "fit_to_csv", None, False),
    ("gwr", "fit_to_geojson", None, False),
    ("econometrics", "fe_variance_explained", _on_fe_variance_explained, False),
    ("econometrics", "county_regression", None, False),
    ("econometrics", "cluster_robust_se", None, False),
    ("ingest", "run_collection", _on_run_collection, True),
    ("ingest", "parse_price_record", _on_parse, False),
    ("ingest", "ObservationStore.add", _on_store_add, False),
    ("ingest", "ObservationStore.load", None, False),
    ("ingest", "MockSource.fetch", None, False),
    ("ingest", "filter_observations", None, False),
    ("ingest", "aggregate_daily", None, False),
    ("ingest", "aggregate_county", None, False),
    ("ingest", "load_station_registry", None, False),
    ("ingest", "load_covariate_table", None, False),
    ("cli", "write_manifest", None, False),
]

# Spans the benchmark opens itself around each ``cli.execute`` call.
CLI_SPANS = ["cli.ingest", "cli.stats", "cli.moran", "cli.gwr", "cli.fe", "cli.report",
             "cli.reingest"]

SPAN_NAMES = [f"{module}.{attr}" for module, attr, _, _ in TARGETS] + CLI_SPANS


def _wrap(tracer: Tracer, name: str, func, hook, adopt: bool):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        span = tracer.open(name, adopt)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(span)
        if hook is not None:
            hook(tracer, span, args, kwargs, result)
        return result

    return traced


class Instrumentation:
    """Patches every binding of the TARGETS functions; ``uninstall`` undoes it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, attr, hook, adopt in TARGETS:
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                func = cls.__dict__[meth]
                self._patch(cls, meth, _wrap(self.tracer, name, func, hook, adopt))
                continue
            func = getattr(home, attr)
            wrapped = _wrap(self.tracer, name, func, hook, adopt)
            for module in modules:
                if module.__dict__.get(attr) is func:
                    self._patch(module, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced pass: ``<module>.<function>.<stat>`` ->
    (value, unit)."""
    c = tracer.counters.get
    out: dict[str, tuple[float, str]] = {}
    for name, row in layer_times(tracer.spans, SPAN_NAMES).items():
        out[f"{name}.calls"] = (row["calls"] / passes, "count")
        out[f"{name}.total_s"] = (row["total_s"] / passes, "s")
        out[f"{name}.self_s"] = (row["self_s"] / passes, "s")
    per_pass = ["geo.distance_matrix.pairs", "spatial_stats.moran_sweep.cells",
                "spatial_stats.moran_sweep.skipped", "gwr.optimize_bandwidth.evaluations",
                "gwr.gwr_fit.locations", "econometrics.fe_variance_explained.rows",
                "ingest.parse_price_record.lines", "ingest.run_collection.attempts"]
    for key in per_pass:
        out[key] = (c(key, 0.0) / passes, "count")
    fits = out["gwr.gwr_fit.calls"][0] * passes
    ratios = {
        "geo.build_weights.kept_ratio": (c("geo.build_weights.kept", 0),
                                         c("geo.build_weights.offdiag", 0)),
        "gwr.optimize_bandwidth.infeasible_ratio": (
            c("gwr.optimize_bandwidth.infeasible", 0),
            c("gwr.optimize_bandwidth.evaluations", 0)),
        "gwr.gwr_fit.repeat_ratio": (c("gwr.gwr_fit.repeats", 0), fits),
        "gwr.enumerate_models.failed_ratio": (c("gwr.enumerate_models.failed", 0),
                                              c("gwr.enumerate_models.configs", 0)),
        "ingest.ObservationStore.add.stored_ratio_fresh": (
            c("ingest.ObservationStore.add.cli.ingest.stored", 0),
            c("ingest.ObservationStore.add.cli.ingest.calls", 0)),
        "ingest.ObservationStore.add.stored_ratio_recrawl": (
            c("ingest.ObservationStore.add.cli.reingest.stored", 0),
            c("ingest.ObservationStore.add.cli.reingest.calls", 0)),
        "ingest.run_collection.failed_ratio": (c("ingest.run_collection.failed", 0),
                                               c("ingest.run_collection.urls", 0)),
    }
    for key, (num, den) in ratios.items():
        out[key] = (_ratio(num, den), "ratio")
    out["ingest.run_collection.peak_in_flight"] = (
        c("ingest.run_collection.peak_in_flight", 0.0), "count")
    return out


# Metrics the runner adds from its untraced and traced passes.
TRACE_METRICS = {"trace.overhead_s": "s", "trace.spans": "count"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits -> its unit, sorted."""
    units = {name: unit for name, (_, unit) in layer_metrics(Tracer(), 1).items()}
    return dict(sorted({**units, **TRACE_METRICS}.items()))
