"""The observability layer: tracing, run-stats emission, merging, schema, report."""

import json

import pytest

from repro.cli import main
from repro.obs.merge import (
    load_events,
    merge_worker_events,
    span_paths,
    span_tree,
)
from repro.obs.metrics import COLLISION_KEY, emit_stats
from repro.obs.report import cache_rows, hotspot_rows, phase_rows, render_report
from repro.obs.schema import validate_event, validate_events
from repro.obs.trace import (
    SCHEMA_VERSION,
    NullTracer,
    Tracer,
    activate,
    active,
    deactivate,
    tracing,
)


class TestTracer:
    def test_span_nesting_parents(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        starts = [e for e in tracer.events if e["type"] == "span_start"]
        outer, inner = starts
        assert outer["parent"] is None
        assert inner["parent"] == outer["span"]

    def test_span_end_pairs_and_duration(self):
        tracer = Tracer()
        with tracer.span("work", phase="demo") as span:
            span.set(items=3)
        start, end = tracer.events
        assert (start["type"], end["type"]) == ("span_start", "span_end")
        assert start["span"] == end["span"]
        assert end["dur"] >= 0.0
        assert end["attrs"] == {"items": 3}
        assert start["phase"] == end["phase"] == "demo"

    def test_timestamps_monotonic(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        stamps = [e["ts"] for e in tracer.events]
        assert stamps == sorted(stamps)
        assert all(ts >= 0 for ts in stamps)

    def test_metric_event_shape(self):
        tracer = Tracer(worker=2)
        tracer.metric("hits", 5, kind="counter", labels={"cache": "wire"})
        (event,) = tracer.events
        assert event["worker"] == 2
        assert event["kind"] == "counter"
        assert event["labels"] == {"cache": "wire"}

    def test_metric_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Tracer().metric("x", 1, kind="histogram")

    def test_meta_carries_schema_version(self):
        tracer = Tracer()
        tracer.meta(command="optimize")
        assert tracer.events[0]["schema"] == SCHEMA_VERSION

    def test_drain_clears(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        drained = tracer.drain()
        assert len(drained) == 2
        assert tracer.events == []

    def test_write_and_load_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s"):
            tracer.metric("m", 1)
        path = str(tmp_path / "t.jsonl")
        count = tracer.write(path)
        assert count == 3
        assert load_events(path) == tracer.events

    def test_active_defaults_to_null(self):
        deactivate()
        assert isinstance(active(), NullTracer)
        assert not active().enabled

    def test_null_tracer_is_inert(self):
        null = NullTracer()
        with null.span("anything") as span:
            assert span.set(x=1) is span
        null.metric("m", 1)
        null.meta(a=1)
        assert null.drain() == []

    def test_tracing_scope_restores_null(self):
        with tracing() as tracer:
            assert active() is tracer
        assert not active().enabled

    def test_activate_returns_tracer(self):
        tracer = Tracer()
        assert activate(tracer) is tracer
        assert active() is tracer
        deactivate()


class TestEmitStats:
    def _emitted(self, stats):
        tracer = Tracer()
        emit_stats(tracer, stats, "run")
        return [(e["name"], e["kind"], e["value"]) for e in tracer.events]

    def test_leaves_in_sorted_dotted_order(self):
        stats = {"b": {"y": 1, "x": 2}, "a": 3, 10: {"c": 4}, 9: 5}
        assert [name for name, _, _ in self._emitted(stats)] == [
            "run.10.c",
            "run.9",
            "run.a",
            "run.b.x",
            "run.b.y",
        ]

    def test_ints_are_counters_and_floats_gauges(self):
        assert self._emitted({"hits": 2, "rate": 0.5, "secs": 1.0}) == [
            ("run.hits", "counter", 2),
            ("run.rate", "gauge", 0.5),
            ("run.secs", "gauge", 1.0),
        ]

    def test_non_numeric_leaves_skipped(self):
        stats = {
            "flag": True,
            "parallel": None,
            "note": "serial",
            "workers": {"requested": "auto", "effective": 1},
        }
        assert self._emitted(stats) == [("run.workers.effective", "counter", 1)]

    def test_collision_lists_skipped(self):
        stats = {"note": {COLLISION_KEY: [3, "text"]}, "n": 1}
        assert self._emitted(stats) == [("run.n", "counter", 1)]

    def test_disabled_tracer_emits_nothing(self):
        tracer = NullTracer()
        emit_stats(tracer, {"hits": 1}, "run")
        assert tracer.events == []


class TestMerge:
    def _worker_events(self, lane):
        worker = Tracer(worker=lane)
        with worker.span("verify"):
            with worker.span("eval"):
                pass
        return worker.drain()

    def test_reparents_roots_under_anchor(self):
        main = Tracer()
        with main.span("trial") as anchor:
            merged = merge_worker_events(main, self._worker_events(3), 3)
        assert merged == 4
        verify_start = next(
            e
            for e in main.events
            if e["type"] == "span_start" and e["name"] == "verify"
        )
        assert verify_start["worker"] == 3
        assert verify_start["parent"] == anchor.id
        assert verify_start["parent_worker"] == 0
        # Non-root worker spans keep their worker-local parents.
        eval_start = next(
            e
            for e in main.events
            if e["type"] == "span_start" and e["name"] == "eval"
        )
        assert "parent_worker" not in eval_start

    def test_explicit_anchor(self):
        main = Tracer()
        with main.span("a") as a:
            pass
        with main.span("b"):
            merge_worker_events(main, self._worker_events(1), 1, anchor=a.id)
        verify_start = next(
            e
            for e in main.events
            if e["type"] == "span_start" and e["name"] == "verify"
        )
        assert verify_start["parent"] == a.id

    def test_disabled_tracer_merges_nothing(self):
        assert merge_worker_events(NullTracer(), self._worker_events(1), 1) == 0

    def test_span_paths_counts(self):
        main = Tracer()
        with main.span("trial"):
            merge_worker_events(main, self._worker_events(1), 1)
            merge_worker_events(main, self._worker_events(2), 2)
        paths = span_paths(main.events)
        assert paths["trial"] == 1
        assert paths["trial/verify"] == 2
        assert paths["trial/verify/eval"] == 2

    def test_span_tree_dedups(self):
        main = Tracer()
        with main.span("trial"):
            merge_worker_events(main, self._worker_events(1), 1)
            merge_worker_events(main, self._worker_events(2), 2)
        serial = Tracer()
        with serial.span("trial"):
            with serial.span("verify"):
                with serial.span("eval"):
                    pass
        assert span_tree(main.events) == span_tree(serial.events)

    def test_orphan_parent_is_marked(self):
        events = [
            {
                "type": "span_start",
                "ts": 0.0,
                "worker": 0,
                "span": 7,
                "parent": 99,
                "name": "lost",
            }
        ]
        assert span_paths(events) == {"<orphan>/lost": 1}


class TestSchema:
    def _trace(self):
        tracer = Tracer()
        tracer.meta(command="test")
        with tracer.span("outer", phase="p"):
            tracer.metric("m", 1)
        return tracer.events

    def test_valid_trace_passes(self):
        assert validate_events(self._trace()) == []

    def test_bad_type_rejected(self):
        errors = validate_event({"type": "bogus", "ts": 0.0, "worker": 0})
        assert errors and "bad type" in errors[0]

    def test_negative_ts_rejected(self):
        event = {"type": "meta", "ts": -1.0, "worker": 0, "schema": 1, "attrs": {}}
        assert any("bad ts" in e for e in validate_event(event))

    def test_metric_kind_checked(self):
        event = {
            "type": "metric",
            "ts": 0.0,
            "worker": 0,
            "name": "m",
            "kind": "histogram",
            "value": 1,
        }
        assert any("bad metric kind" in e for e in validate_event(event))

    def test_unclosed_span_reported(self):
        events = self._trace()[:-1]  # drop the span_end
        assert any("never closed" in e for e in validate_events(events))

    def test_non_lifo_close_reported(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        events = tracer.events
        # Swap the two span_end events: a closes before b.
        events[2], events[3] = events[3], events[2]
        assert any("innermost" in e for e in validate_events(events))

    def test_duplicate_span_id_reported(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        events = tracer.events + [dict(tracer.events[0]), dict(tracer.events[1])]
        assert any("duplicate span id" in e for e in validate_events(events))

    def test_dangling_parent_reported(self):
        events = [
            {
                "type": "span_start",
                "ts": 0.0,
                "worker": 1,
                "span": 0,
                "parent": 42,
                "parent_worker": 0,
                "name": "verify",
            },
            {
                "type": "span_end",
                "ts": 0.1,
                "worker": 1,
                "span": 0,
                "name": "verify",
                "dur": 0.1,
            },
        ]
        assert any("not in trace" in e for e in validate_events(events))

    def test_validate_file(self, tmp_path, capsys):
        tracer = Tracer()
        tracer.meta(command="test")
        with tracer.span("s"):
            pass
        good = tmp_path / "good.jsonl"
        tracer.write(str(good))
        assert validate_events(load_events(str(good))) == []
        assert main(["report", "--trace", str(good), "--validate"]) == 0
        assert "schema OK" in capsys.readouterr().out
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["report", "--trace", str(bad), "--validate"]) == 2
        assert "not a JSONL trace" in capsys.readouterr().err
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", "--trace", str(empty), "--validate"]) == 2
        assert "empty trace" in capsys.readouterr().err


class TestReport:
    def _trace(self):
        tracer = Tracer()
        with tracer.span("run", phase="cli"):
            with tracer.span("stage_a", phase="local"):
                pass
            with tracer.span("stage_a", phase="local"):
                pass
            with tracer.span("stage_b", phase="eco"):
                pass
            tracer.metric("wire_hits", 30)
            tracer.metric("wire_misses", 10)
            tracer.metric("plan_hit_rate", 0.9, kind="gauge")
        return tracer.events

    def test_phase_rows_cover_all_phases(self):
        rows = phase_rows(self._trace())
        assert {row[0] for row in rows} == {"cli", "local", "eco"}
        shares = [float(row[3].rstrip("%")) for row in rows]
        assert sum(shares) == pytest.approx(100.0, abs=0.5)

    def test_hotspot_rows_aggregate_by_path(self):
        rows = hotspot_rows(self._trace(), top=10)
        by_path = {row[0]: int(row[1]) for row in rows}
        assert by_path["run/stage_a"] == 2
        assert by_path["run/stage_b"] == 1

    def test_hotspot_top_limits(self):
        assert len(hotspot_rows(self._trace(), top=1)) == 1

    def test_cache_rows_pair_hits_and_misses(self):
        rows = cache_rows(self._trace())
        by_cache = {row[0]: row for row in rows}
        assert by_cache["wire"][1] == "30"
        assert by_cache["wire"][2] == "10"
        assert by_cache["wire"][3] == "75.0%"
        assert by_cache["plan"][3] == "90.0%"

    def test_render_report_header(self):
        text = render_report(self._trace())
        assert text.startswith("trace: ")
        assert "per-phase exclusive time" in text
        assert "hotspots" in text
        assert "caches" in text

    def test_render_is_deterministic(self):
        events = self._trace()
        assert render_report(events) == render_report(events)


class TestTracedFlows:
    """Traced runs: span-tree determinism and stats-shape stability."""

    @pytest.fixture(scope="class")
    def predictor(self, library_cls1):
        from repro.core.ml.training import train_predictor

        return train_predictor(library_cls1, [], "full_rsmt_d2m")

    def _run(self, mini_problem, predictor, workers):
        from repro.core.local_opt import LocalOptConfig, LocalOptimizer

        with tracing() as tracer:
            result = LocalOptimizer(
                mini_problem,
                predictor,
                LocalOptConfig(max_iterations=2, workers=workers),
            ).run()
        return result, tracer.events

    def test_span_tree_identical_across_worker_counts(
        self, mini_problem, predictor
    ):
        result_serial, serial = self._run(mini_problem, predictor, 1)
        result_pool, pooled = self._run(mini_problem, predictor, 2)
        assert validate_events(serial) == []
        assert validate_events(pooled) == []
        assert span_tree(serial) == span_tree(pooled)
        # Bit-identical trajectories, as everywhere else.
        assert result_serial.final_objective_ps == pytest.approx(
            result_pool.final_objective_ps
        )

    def test_span_tree_identical_across_sweep_worker_counts(
        self, mini_problem, mini_design
    ):
        """The pooled U-sweep (worker start, remote realize) adds no paths."""
        from repro.core.framework import (
            GlobalOptConfig,
            GlobalOptimizer,
            TechnologyCache,
        )

        tech = TechnologyCache(mini_design.library)
        runs = {}
        for workers in (1, 2):
            config = GlobalOptConfig(
                sweep_factors=(1.0, 1.15), max_iterations=1, workers=workers
            )
            with tracing() as tracer:
                result = GlobalOptimizer(mini_problem, tech, config).run()
            runs[workers] = (result, tracer.events)
        (serial_result, serial), (pooled_result, pooled) = runs[1], runs[2]
        assert validate_events(serial) == []
        assert validate_events(pooled) == []
        assert span_tree(serial) == span_tree(pooled)
        assert len({e["worker"] for e in pooled}) > 1
        assert serial_result.final_objective_ps == pooled_result.final_objective_ps

    def test_pooled_trace_has_worker_lanes(self, mini_problem, predictor):
        _result, pooled = self._run(mini_problem, predictor, 2)
        lanes = {e["worker"] for e in pooled}
        assert 0 in lanes and len(lanes) > 1

    def test_traced_stats_match_untraced_shape(self, mini_problem, predictor):
        from repro.core.local_opt import LocalOptConfig, LocalOptimizer

        def run():
            return LocalOptimizer(
                mini_problem,
                predictor,
                LocalOptConfig(max_iterations=1),
            ).run()

        untraced = run().stats
        with tracing():
            traced = run().stats

        def keys(node):
            if not isinstance(node, dict):
                return None
            return {k: keys(v) for k, v in node.items()}

        assert keys(traced) == keys(untraced)
        assert traced["parallel"] is None
        assert traced["workers"]["effective"] == 1

    def test_trace_events_json_serializable(self, mini_problem, predictor):
        _result, events = self._run(mini_problem, predictor, 1)
        for event in events:
            json.dumps(event, sort_keys=True)

    def test_stats_leaves_are_the_flow_metrics(
        self, mini_problem, mini_design, predictor
    ):
        """Each numeric ``.stats`` leaf is one metric event, and no more."""
        from repro.core.framework import (
            FrameworkConfig,
            GlobalLocalOptimizer,
            GlobalOptConfig,
            TechnologyCache,
        )
        from repro.core.local_opt import LocalOptConfig

        config = FrameworkConfig(
            global_config=GlobalOptConfig(sweep_factors=(1.0, 1.15)),
            local_config=LocalOptConfig(max_iterations=3),
        )
        with tracing() as tracer:
            result = GlobalLocalOptimizer(
                mini_problem,
                predictor,
                TechnologyCache(mini_design.library),
                config,
            ).run("global-local")

        def leaves(node, path):
            for key, value in node.items():
                name = f"{path}.{key}"
                if isinstance(value, dict):
                    yield from leaves(value, name)
                elif isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    yield name, value

        expected = dict(leaves(result.global_result.stats, "global_opt"))
        expected.update(leaves(result.local_result.stats, "local_opt"))
        assert "global_opt.eco.counters.selects" in expected
        assert "local_opt.stage.counts.trial" in expected
        flow_metrics = [
            e
            for e in tracer.events
            if e["type"] == "metric"
            and e["name"].split(".")[0] in ("global_opt", "local_opt")
            and e["name"] not in ("global_opt.objective_ps", "local_opt.objective_ps")
        ]
        names = [e["name"] for e in flow_metrics]
        assert len(names) == len(set(names))
        assert set(names) == set(expected)
        for event in flow_metrics:
            value = expected[event["name"]]
            kind = "counter" if isinstance(value, int) else "gauge"
            assert (event["kind"], event["value"]) == (kind, value), event
