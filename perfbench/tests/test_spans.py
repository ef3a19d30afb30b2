"""Span recorder: self-time arithmetic, thread adoption, instrumentation and
metric names."""

import json
import sys
import threading
from pathlib import Path

import pytest

import spans
from spans import NAME_RE, Span, Tracer, layer_times, self_times

ROOT = Path(__file__).resolve().parents[2]


def span(span_id, parent, start, end, name="x", thread=1):
    return Span(span_id, 1, parent, name, thread, start, end)


class TestSelfTime:
    def test_nested(self):
        recorded = [span(1, None, 0.0, 10.0), span(2, 1, 2.0, 5.0), span(3, 2, 3.0, 4.0),
                    span(4, 1, 6.0, 7.0)]
        own = self_times(recorded)
        assert own == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})

    def test_overlapping_children_on_two_threads_count_once(self):
        recorded = [span(1, None, 0.0, 10.0), span(2, 1, 1.0, 6.0, thread=2),
                    span(3, 1, 4.0, 8.0, thread=3)]
        assert self_times(recorded)[1] == pytest.approx(3.0)

    def test_children_are_clipped_to_the_parent(self):
        recorded = [span(1, None, 2.0, 6.0), span(2, 1, 0.0, 3.0, thread=2),
                    span(3, 1, 5.0, 9.0, thread=3)]
        assert self_times(recorded)[1] == pytest.approx(2.0)

    def test_layer_times_sum_per_name(self):
        recorded = [span(1, None, 0.0, 4.0, "a"), span(2, 1, 1.0, 2.0, "b"),
                    span(3, None, 5.0, 6.0, "a")]
        rows = layer_times(recorded, ["a", "b", "c"])
        assert rows["a"] == pytest.approx({"calls": 2, "total_s": 5.0, "self_s": 4.0})
        assert rows["c"] == {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def test_fake_clock_through_the_tracer(self):
        ticks = iter([0.0, 1.0, 3.0, 4.0])
        tracer = Tracer(clock=lambda: next(ticks))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        rows = layer_times(tracer.spans, ["outer", "inner"])
        assert rows["outer"]["self_s"] == pytest.approx(2.0)
        assert rows["inner"]["self_s"] == pytest.approx(2.0)


class TestThreads:
    def test_worker_spans_are_adopted_by_the_open_adopting_span(self):
        tracer = Tracer()

        def work():
            with tracer.span("child"):
                tracer.count("n")

        with tracer.span("root") as root:
            with tracer.span("collect", adopt_threads=True) as collect:
                threads = [threading.Thread(target=work) for _ in range(3)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
        with tracer.span("later") as later:
            pass
        children = [s for s in tracer.spans if s.name == "child"]
        assert len(children) == 3
        assert {s.parent_id for s in children} == {collect.span_id}
        assert {s.op_id for s in children} == {root.span_id}
        assert len({s.thread for s in children} - {root.thread}) >= 1
        assert later.parent_id is None and later.op_id == later.span_id
        assert tracer.root_name(children[0]) == "root"
        assert tracer.counters["n"] == 3

    def test_no_update_is_lost_under_contention(self):
        tracer = Tracer()
        workers, per_worker = 8, 2000
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work():
                for _ in range(per_worker):
                    with tracer.span("w"):
                        tracer.count("c")
                        tracer.peak("p", 1)

            with tracer.span("collect", adopt_threads=True):
                threads = [threading.Thread(target=work) for _ in range(workers)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert tracer.counters["c"] == workers * per_worker
        assert tracer.counters["p"] == 1
        recorded = tracer.spans
        assert len(recorded) == workers * per_worker + 1
        assert len({s.span_id for s in recorded}) == len(recorded)

    def test_out_of_order_close_is_an_error(self):
        tracer = Tracer()
        outer = tracer.open("outer")
        tracer.open("inner")
        with pytest.raises(RuntimeError):
            tracer.close(outer)


class TestInstrumentation:
    def test_patches_every_binding_and_restores_them(self):
        from fuelspatial import cli, geo, gwr, ingest, spatial_stats  # noqa: F401

        originals = (geo.distance_matrix, gwr.distance_matrix,
                     spatial_stats.build_weights, ingest.ObservationStore.add)
        tracer = Tracer()
        with spans.Instrumentation(tracer):
            assert gwr.distance_matrix is geo.distance_matrix
            assert geo.distance_matrix is not originals[0]
            assert spatial_stats.build_weights is not originals[2]
            points = [geo.GeoPoint(40.0, -100.0 + i) for i in range(4)]
            spatial_stats.build_weights(points, geo.KernelShape.GAUSSIAN,
                                        geo.Bandwidth.fixed_distance(50.0))
        assert (geo.distance_matrix, gwr.distance_matrix, spatial_stats.build_weights,
                ingest.ObservationStore.add) == originals
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["geo.distance_matrix"].parent_id == by_name["geo.build_weights"].span_id
        metrics = spans.layer_metrics(tracer, 1)
        assert metrics["geo.distance_matrix.pairs"] == (12, "count")
        assert metrics["geo.build_weights.calls"] == (1, "count")
        assert 0.0 < metrics["geo.build_weights.kept_ratio"][0] <= 1.0


def test_every_metric_name_is_well_formed_and_declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spans.per_layer_units()
    for name in list(declared) + [m["name"] for m in bench["end_to_end"]]:
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(declared.items())
