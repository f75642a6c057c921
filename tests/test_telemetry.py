"""repro.telemetry: metrics primitives, tracing, the journal, docs drift.

The unit half exercises the primitives in isolation (counters, gauges,
log-bucket histograms, the activity window with an injected clock, the
tracer's no-op discipline, clock calibration and structural validation on
synthetic traces, the journal).  The integration half drives real servers:
a traced 2-worker cluster run must merge into a structurally valid trace
with every frame covered, spans flushed before a worker crash must survive
the crash, results must stay bit-identical with tracing enabled on every
engine, and every registered metric name must appear in
``docs/observability.md`` (the drift check that keeps the doc honest).
"""

import os
from dataclasses import replace

import pytest

from repro.chaos import FaultEvent, FaultPlan
from repro.cluster import ClusterServer, ClusterStats, SupervisorConfig, WorkerStats
from repro.config import ExtractorConfig, PyramidConfig
from repro.errors import ReproError
from repro.features import OrbExtractor
from repro.image import random_blocks
from repro.telemetry import (
    ActivityWindow,
    Counter,
    EventJournal,
    Gauge,
    Histogram,
    MetricsRegistry,
    Trace,
    Tracer,
    current_tracer,
    load_chrome_trace,
    set_tracer,
)

ENGINES = ("reference", "vectorized", "hwexact")

FAST_SUPERVISION = SupervisorConfig(
    restart_backoff_s=0.02, restart_backoff_max_s=0.2, heartbeat_timeout_s=30.0
)


@pytest.fixture(scope="module")
def telemetry_config():
    return ExtractorConfig(
        image_width=160,
        image_height=120,
        pyramid=PyramidConfig(num_levels=2),
        max_features=150,
    )


@pytest.fixture(scope="module")
def telemetry_images():
    return [random_blocks(120, 160, block=9, seed=seed) for seed in range(6)]


def _feature_key(result):
    return result.feature_records()  # the repo-wide bit-identity key


# ---------------------------------------------------------------------------
# metrics primitives
# ---------------------------------------------------------------------------


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("events_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_inc_rejects_negative(self):
        counter = Counter("events_total")
        with pytest.raises(ReproError):
            counter.inc(-1)

    def test_bad_name_rejected(self):
        with pytest.raises(ReproError):
            Counter("bad name!")


class TestGauge:
    def test_set_inc_dec_set_max(self):
        gauge = Gauge("depth")
        gauge.set(3)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 2
        gauge.set_max(10)
        gauge.set_max(4)  # lower: ignored
        assert gauge.value == 10


class TestHistogram:
    def test_percentiles_within_one_bucket_width(self):
        histogram = Histogram("latency_s")
        samples = [0.001] * 50 + [0.1] * 50
        for sample in samples:
            histogram.observe(sample)
        assert histogram.count == 100
        assert histogram.sum == pytest.approx(sum(samples))
        # worst-case relative error is one bucket's width (growth - 1)
        assert histogram.percentile(25.0) == pytest.approx(0.001, rel=0.3)
        assert histogram.percentile(95.0) == pytest.approx(0.1, rel=0.3)

    def test_underflow_and_overflow_buckets(self):
        histogram = Histogram("latency_s", lowest=1e-3, num_buckets=8)
        histogram.observe(0.0)  # underflow bucket
        histogram.observe(1e9)  # clamped into the open-ended last bucket
        counts = histogram.bucket_counts()
        assert counts[0] == 1 and counts[-1] == 1
        assert histogram.count == 2

    def test_empty_percentile_is_zero_and_bad_q_raises(self):
        histogram = Histogram("latency_s")
        assert histogram.percentile(50.0) == 0.0
        with pytest.raises(ReproError):
            histogram.percentile(101.0)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total")
        second = registry.counter("x_total")
        assert first is second

    def test_labels_distinguish_series_but_fold_in_names(self):
        registry = MetricsRegistry()
        a = registry.counter("w_total", labels={"worker": "0"})
        b = registry.counter("w_total", labels={"worker": "1"})
        assert a is not b
        assert registry.metric_names() == ["w_total"]

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ReproError):
            registry.gauge("x_total")

    def test_prometheus_text_exposition(self):
        registry = MetricsRegistry()
        registry.counter("x_total", help="things").inc(3)
        registry.gauge("g", labels={"worker": "1"}).set(2)
        histogram = registry.histogram("h_s")
        histogram.observe(0.01)
        histogram.observe(0.02)
        text = registry.prometheus_text()
        assert "# HELP x_total things" in text
        assert "# TYPE x_total counter" in text
        assert "x_total 3" in text
        assert 'g{worker="1"} 2' in text
        assert "# TYPE h_s histogram" in text
        assert 'h_s_bucket{le="+Inf"} 2' in text  # cumulative reaches count
        assert "h_s_count 2" in text


class TestActivityWindow:
    def test_idle_gaps_are_capped(self):
        now = [0.0]
        window = ActivityWindow(gap_s=0.5, clock=lambda: now[0])
        window.touch()  # first event: establishes the epoch, accrues nothing
        now[0] = 0.2
        window.touch()  # back-to-back: counts fully
        now[0] = 60.2
        window.touch()  # a minute idle: contributes at most gap_s
        assert window.active_s == pytest.approx(0.7)

    def test_gap_must_be_positive(self):
        with pytest.raises(ReproError):
            ActivityWindow(gap_s=0.0)


# ---------------------------------------------------------------------------
# tracer + trace merge
# ---------------------------------------------------------------------------


class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("work", frame=1) as span:
            span.set(late="arg")  # accepted and discarded
        tracer.record("wait", 0.0, 1.0, frame=1)
        tracer.complete("body", 0.0, frame=1)
        tracer.instant("mark", frame=1)
        assert len(tracer) == 0
        assert tracer.drain() == []

    def test_disabled_span_is_one_shared_object(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is tracer.span("b")  # no per-call allocation

    def test_enabled_tracer_records_all_kinds(self):
        tracer = Tracer(enabled=True, track="t")
        with tracer.span("work", frame=1) as span:
            span.set(found=3)
        tracer.record("wait", 1.0, 2.0, frame=1)
        tracer.complete("body", 0.5, frame=1)
        tracer.instant("mark", frame=1)
        records = tracer.drain()
        assert [record[0] for record in records] == [
            "span",
            "async",
            "span",
            "instant",
        ]
        span_record = records[0]
        assert span_record[1] == "work" and span_record[6] == {"found": 3}
        assert tracer.drain() == []  # drain cleared the buffer

    def test_process_local_tracer_install_and_restore(self):
        assert not current_tracer().enabled  # default is a disabled tracer
        mine = Tracer(enabled=True, track="test")
        previous = set_tracer(mine)
        try:
            assert current_tracer() is mine
        finally:
            set_tracer(previous)
        assert current_tracer() is previous


class TestTraceMerge:
    def test_min_offset_clock_calibration(self):
        trace = Trace()
        records = [("span", "work", 10.0, 10.5, 1, 1, None)]
        # first flush arrives 100.0s "later" on the server clock
        trace.add_worker_spans("w", records, worker_clock_s=11.0, server_clock_s=111.0)
        # a slower transit over-estimates; the running minimum ignores it
        trace.add_worker_spans("w", [], worker_clock_s=12.0, server_clock_s=112.5)
        assert trace.spans()[0][3] == pytest.approx(10.0 + 100.0)
        # a faster transit is a strictly better bound and replaces it
        trace.add_worker_spans("w", [], worker_clock_s=13.0, server_clock_s=112.8)
        (merged,) = trace.spans()
        assert merged[0] == "w"
        assert merged[3] == pytest.approx(10.0 + 99.8)  # start on server clock

    def test_merge_orders_across_tracks_by_corrected_start(self):
        trace = Trace()
        trace.add_spans("server", [("span", "submit", 5.0, 5.1, 1, 1, None)])
        trace.add_worker_spans(
            "w",
            [("span", "extract", 1.0, 1.4, 1, 9, None)],
            worker_clock_s=2.0,
            server_clock_s=12.0,  # offset 10 -> extract starts at 11.0
        )
        names = [item[2] for item in trace.spans()]
        assert names == ["submit", "extract"]

    def test_validate_accepts_nesting_and_rejects_overlap(self):
        clean = Trace()
        clean.add_spans(
            "t",
            [
                ("span", "outer", 0.0, 1.0, None, 1, None),
                ("span", "inner", 0.2, 0.8, None, 1, None),
            ],
        )
        assert clean.validate() == []

        crossed = Trace()
        crossed.add_spans(
            "t",
            [
                ("span", "a", 0.0, 1.0, None, 1, None),
                ("span", "b", 0.5, 1.5, None, 1, None),  # overlaps, not nested
            ],
        )
        assert any("overlaps" in problem for problem in crossed.validate())

        negative = Trace()
        negative.add_spans("t", [("span", "a", 1.0, 0.5, None, 1, None)])
        assert any("negative" in problem for problem in negative.validate())

    def test_async_waits_are_exempt_from_nesting(self):
        trace = Trace()
        trace.add_spans(
            "t",
            [
                ("async", "wait", 0.0, 1.0, 1, 1, None),
                ("async", "wait", 0.5, 1.5, 2, 1, None),  # overlap is fine
            ],
        )
        assert trace.validate() == []

    def test_frame_coverage(self):
        trace = Trace()
        trace.add_spans(
            "server",
            [
                ("span", "submit", 0.0, 0.1, 7, 1, None),
                ("instant", "resolve", 0.2, 0.2, 7, 1, None),
                ("span", "submit", 0.3, 0.4, 8, 1, None),  # never resolves
            ],
        )
        coverage = trace.frame_coverage()
        assert coverage[7]["covered"]
        assert not coverage[8]["covered"] and coverage[8]["submit"]

    def test_chrome_export_roundtrip(self, tmp_path):
        trace = Trace()
        trace.add_spans(
            "server",
            [
                ("span", "submit", 0.0, 0.1, 7, 1, {"worker": 0}),
                ("async", "backlog_wait", 0.0, 0.05, 7, 1, None),
                ("instant", "resolve", 0.2, 0.2, 7, 1, None),
            ],
        )
        path = trace.export_chrome_trace(str(tmp_path / "trace.json"))
        payload = load_chrome_trace(path)
        events = payload["traceEvents"]
        phases = {event["ph"] for event in events}
        assert {"M", "X", "b", "e", "i"} <= phases
        names = {
            event["args"]["name"] for event in events if event["ph"] == "M"
        }
        assert "server" in names  # process metadata names the track

    def test_load_rejects_non_trace_json(self, tmp_path):
        path = tmp_path / "not_a_trace.json"
        path.write_text('{"foo": 1}')
        with pytest.raises(ReproError):
            load_chrome_trace(str(path))


# ---------------------------------------------------------------------------
# event journal
# ---------------------------------------------------------------------------


class TestEventJournal:
    def test_log_filter_and_order(self):
        journal = EventJournal()
        journal.log("requeue", worker_id=1, jobs=4)
        journal.log("leak_reclaim", reason="ring_exhausted")
        journal.log("requeue", worker_id=0, jobs=5)
        assert len(journal) == 3
        requeues = journal.events(kind="requeue")
        assert [event.worker_id for event in requeues] == [1, 0]
        assert journal.events()[1].as_dict()["reason"] == "ring_exhausted"
        at = [event.at_s for event in journal.events()]
        assert at == sorted(at)  # monotonic timestamps

    def test_fault_seed_stamps_subsequent_rows(self):
        journal = EventJournal()
        journal.log("requeue")
        journal.fault_seed = 7
        journal.log("worker_dead", worker_id=1)
        rows = journal.events()
        assert rows[0].seed is None and rows[1].seed == 7

    def test_bounded_capacity_drops_oldest(self):
        journal = EventJournal(capacity=4)
        for index in range(10):
            journal.log("expired", job=index)
        assert len(journal) == 4
        assert journal.dropped == 6
        assert [event.detail["job"] for event in journal.events()] == [6, 7, 8, 9]


# ---------------------------------------------------------------------------
# stats views: legacy keys preserved
# ---------------------------------------------------------------------------


class TestStatsGoldenKeys:
    CLUSTER_KEYS = {
        "frames_submitted", "frames_completed", "frames_failed",
        "max_in_flight", "queue_depth",
        "frames_via_ring", "results_zero_copy",
        "restarts", "retries", "requeued",
        "latency_p50_ms", "latency_p95_ms",
        "active_elapsed_s", "active_throughput_fps", "workers",
    }
    WORKER_KEYS = {
        "worker_id", "frames_completed", "frames_failed", "queue_depth",
        "restarts", "alive", "state",
        "latency_p50_ms", "latency_p95_ms",
    }

    def test_cluster_stats_keys_and_counter_semantics(self):
        clock = [100.0]
        stats = ClusterStats(_clock=lambda: clock[0])
        stats._add_worker()
        assert set(stats.as_dict()) == self.CLUSTER_KEYS
        stats._submitted(0)
        clock[0] += 0.1
        stats._completed(0, latency_s=0.1)
        report = stats.as_dict()
        assert report["frames_submitted"] == 1
        assert report["frames_completed"] == 1
        assert report["max_in_flight"] == 1
        assert report["active_elapsed_s"] == pytest.approx(0.1)
        assert report["active_throughput_fps"] == pytest.approx(10.0)
        assert report["latency_p50_ms"] == pytest.approx(100.0, rel=0.3)
        assert report["workers"][0]["frames_completed"] == 1
        # constant until the benchmark retires them: no shared-memory transport
        assert report["frames_via_ring"] == report["results_zero_copy"] == 0

    def test_active_throughput_ignores_idle_gap(self):
        clock = [0.0]
        stats = ClusterStats(_clock=lambda: clock[0])
        stats._add_worker()
        for _ in range(2):  # two frames separated by a long idle gap
            stats._submitted(0)
            clock[0] += 0.1
            stats._completed(0, latency_s=0.1)
            clock[0] += 30.0
        report = stats.as_dict()
        # first submit to last completion is 30.2 s, which would read 0.07 fps
        assert report["active_throughput_fps"] > 1.0
        assert report["active_elapsed_s"] < 2.0

    def test_worker_stats_keys(self):
        assert set(WorkerStats(0).as_dict()) == self.WORKER_KEYS

    def test_second_cluster_stats_on_one_registry_rejected(self):
        # unlabelled cluster_* series would merge two servers' counts
        registry = MetricsRegistry()
        first = ClusterStats(registry=registry)
        first._add_worker()
        with pytest.raises(ReproError, match="cluster_frames_submitted_total"):
            ClusterStats(registry=registry)
        first._submitted(0)
        assert registry.counter("cluster_frames_submitted_total").value == 1
        # a registry holding only other metrics is fine
        other = MetricsRegistry()
        other.counter("slam_frames_total")
        ClusterStats(registry=other)

    def test_second_cluster_server_on_one_registry_starts_nothing(
        self, telemetry_config
    ):
        import multiprocessing

        registry = MetricsRegistry()
        with ClusterServer(telemetry_config, num_workers=1, registry=registry):
            workers_before = multiprocessing.active_children()
            with pytest.raises(ReproError, match="cluster_"):
                ClusterServer(telemetry_config, num_workers=1, registry=registry)
            assert multiprocessing.active_children() == workers_before


# ---------------------------------------------------------------------------
# the traced cluster (integration)
# ---------------------------------------------------------------------------


class TestClusterTracing:
    def test_traced_run_is_valid_covered_and_calibrated(
        self, telemetry_config, telemetry_images
    ):
        tracer = Tracer(enabled=True, track="server")
        with ClusterServer(
            telemetry_config, num_workers=2, tracer=tracer
        ) as server:
            results = server.extract_many(telemetry_images)
            trace = server.trace()
        assert len(results) == len(telemetry_images)
        # a worker track exists only through add_worker_spans, which
        # calibrates its clock offset
        assert trace.tracks() == ["server", "worker-0", "worker-1"]
        assert trace.validate() == []
        coverage = trace.frame_coverage()
        assert len(coverage) == len(telemetry_images)
        assert all(row["covered"] for row in coverage.values())
        worker_names = {
            item[2] for item in trace.spans() if item[0].startswith("worker")
        }
        assert {"extract", "serve_frame"} <= worker_names

    def test_frame_is_traced_before_its_future_resolves(
        self, telemetry_config, telemetry_images
    ):
        # done-callbacks run inside set_result, so one that reads the trace
        # sees exactly what the server recorded before resolving the frame;
        # the stall holds the frame until the callback is in place
        tracer = Tracer(enabled=True, track="server")
        seen = []
        with ClusterServer(telemetry_config, num_workers=1, tracer=tracer) as server:
            assert server.chaos_stall(0, duration_s=0.3) == 0
            future = server.submit(telemetry_images[0], frame_id=7)
            future.add_done_callback(
                lambda _: seen.append(
                    {
                        item[2]
                        for item in server.trace().spans("server")
                        if item[5] == 7
                    }
                )
            )
            future.result(timeout=60)
        assert seen and {"submit", "serve", "resolve"} <= seen[0]

    def test_flushed_spans_survive_worker_crash(
        self, telemetry_config, telemetry_images
    ):
        # every result ships the worker's spans recorded since the last one
        tracer = Tracer(enabled=True, track="server")
        with ClusterServer(
            telemetry_config,
            num_workers=1,
            supervision=FAST_SUPERVISION,
            tracer=tracer,
        ) as server:
            server.extract_many(telemetry_images[:3])
            spans_before = len(server.trace().spans("worker-0"))
            assert spans_before > 0  # shipped with the pre-crash flushes
            server.chaos_kill(0)
            results = server.extract_many(telemetry_images[3:5])
            trace = server.trace()
            journal = server.journal
        assert len(results) == 2
        assert len(trace.spans("worker-0")) > spans_before  # respawn traced too
        kinds = {event.kind for event in journal.events()}
        assert {"worker_dead", "restart"} <= kinds

    @pytest.mark.parametrize("engine", ENGINES)
    def test_tracing_never_changes_results(
        self, engine, telemetry_config, telemetry_images
    ):
        config = replace(telemetry_config, engine=engine)
        sequential = [OrbExtractor(config).extract(im) for im in telemetry_images]
        tracer = Tracer(enabled=True, track="server")
        with ClusterServer(config, num_workers=2, tracer=tracer) as server:
            served = server.extract_many(telemetry_images)
        for seq_result, traced_result in zip(sequential, served):
            assert _feature_key(seq_result) == _feature_key(traced_result)

    def test_chaos_journal_carries_plan_seed(self, telemetry_images):
        config = ExtractorConfig(
            image_width=160,
            image_height=120,
            pyramid=PyramidConfig(num_levels=2),
            max_features=150,
        )
        plan = FaultPlan([FaultEvent(at_submit=2, kind="kill")], seed=11)
        with ClusterServer(
            config, num_workers=1, supervision=FAST_SUPERVISION, fault_plan=plan
        ) as server:
            server.extract_many(telemetry_images[:4])
            rows = server.journal.events(kind="chaos_kill")
            deaths = server.journal.events(kind="worker_dead")
        assert len(rows) == 1 and rows[0].seed == 11
        assert deaths and deaths[0].seed == 11


# ---------------------------------------------------------------------------
# docs drift check
# ---------------------------------------------------------------------------


class TestDocsDrift:
    def test_every_metric_name_is_documented(self, telemetry_images):
        """``docs/observability.md`` must name every registered metric."""
        doc_path = os.path.join(
            os.path.dirname(__file__), "..", "docs", "observability.md"
        )
        with open(doc_path) as handle:
            doc = handle.read()
        config = ExtractorConfig(
            image_width=160,
            image_height=120,
            pyramid=PyramidConfig(num_levels=2),
            max_features=150,
        )
        registry = MetricsRegistry()
        with ClusterServer(
            config, num_workers=1, registry=registry, supervision=FAST_SUPERVISION
        ) as server:
            server.extract_many(telemetry_images[:2])
        missing = [
            name for name in registry.metric_names() if name not in doc
        ]
        assert not missing, (
            f"metrics missing from docs/observability.md: {missing}"
        )

    def test_every_cluster_as_dict_key_is_documented(self):
        doc_path = os.path.join(
            os.path.dirname(__file__), "..", "docs", "observability.md"
        )
        with open(doc_path) as handle:
            doc = handle.read()
        stats = ClusterStats()
        stats._add_worker()
        missing = [f"`{key}`" for key in stats.as_dict() if f"`{key}`" not in doc]
        assert not missing, (
            f"ClusterStats.as_dict keys missing from docs: {missing}"
        )
