"""Unit coverage for :func:`merge_stats` and :class:`StageTimers`.

The merge-collision regression: ``merge_stats`` used to silently
overwrite a non-numeric leaf when the incoming value had a different
kind (a worker's note string landing on an int counter, a dict landing
on a scalar).  Collisions are now explicit ``{"__collision__": [...]}``
nodes that keep every conflicting value.
"""

import pytest

from repro.obs.metrics import (
    COLLISION_KEY,
    StageTimers,
    merge_stats,
)


class TestMergeStats:
    def test_numbers_add(self):
        dst = {"a": 1, "b": 2.5}
        merge_stats(dst, {"a": 2, "b": 0.5})
        assert dst == {"a": 3, "b": 3.0}

    def test_dicts_merge_recursively(self):
        dst = {"outer": {"x": 1, "inner": {"y": 2}}}
        merge_stats(dst, {"outer": {"x": 4, "inner": {"y": 5, "z": 6}}})
        assert dst == {"outer": {"x": 5, "inner": {"y": 7, "z": 6}}}

    def test_missing_keys_deep_copied(self):
        src = {"nested": {"count": 1}}
        dst = {}
        merge_stats(dst, src)
        dst["nested"]["count"] += 10
        assert src["nested"]["count"] == 1  # src must not alias dst

    def test_same_kind_non_numeric_src_wins(self):
        dst = {"backend": "reference", "flag": True}
        merge_stats(dst, {"backend": "kernel", "flag": False})
        assert dst["backend"] == "kernel"
        assert dst["flag"] is False

    def test_kind_mismatch_becomes_explicit_collision(self):
        # Regression: a string landing on a number used to silently
        # replace it; both values must survive.
        dst = {"note": 3}
        merge_stats(dst, {"note": "pool degraded to serial"})
        assert dst["note"] == {COLLISION_KEY: [3, "pool degraded to serial"]}

    def test_dict_vs_scalar_collision(self):
        dst = {"workers": {"effective": 4}}
        merge_stats(dst, {"workers": 4})
        assert dst["workers"] == {COLLISION_KEY: [{"effective": 4}, 4]}

    def test_scalar_vs_dict_collision(self):
        dst = {"workers": 4}
        merge_stats(dst, {"workers": {"effective": 4}})
        assert dst["workers"] == {COLLISION_KEY: [4, {"effective": 4}]}

    def test_collision_node_appends_on_later_merges(self):
        dst = {"note": 3}
        merge_stats(dst, {"note": "first"})
        merge_stats(dst, {"note": "second"})
        merge_stats(dst, {"note": {"nested": 1}})
        assert dst["note"] == {
            COLLISION_KEY: [3, "first", "second", {"nested": 1}]
        }

    def test_bool_is_not_a_number(self):
        # booleans are int subclasses; they must not be summed.
        dst = {"flag": True}
        merge_stats(dst, {"flag": True})
        assert dst["flag"] is True

    def test_returns_dst_for_chaining(self):
        dst = {}
        assert merge_stats(dst, {"a": 1}) is dst


class TestStageTimers:
    def test_accumulates_seconds_and_counts(self):
        timers = StageTimers()
        for _ in range(3):
            with timers.stage("work"):
                pass
        assert timers.counts["work"] == 3
        assert timers.seconds["work"] >= 0.0

    def test_as_dict_shape(self):
        timers = StageTimers(phase="local")
        with timers.stage("s"):
            pass
        payload = timers.as_dict()
        assert set(payload) == {"seconds", "counts"}
        assert payload["counts"] == {"s": 1}

    def test_stage_mirrors_span_to_active_tracer(self):
        from repro.obs.trace import Tracer, tracing

        with tracing(Tracer()) as tracer:
            timers = StageTimers(phase="demo")
            with timers.stage("featurize"):
                pass
        starts = [e for e in tracer.events if e["type"] == "span_start"]
        assert [e["name"] for e in starts] == ["featurize"]
        assert starts[0]["phase"] == "demo"

    def test_exception_still_recorded(self):
        timers = StageTimers()
        with pytest.raises(RuntimeError):
            with timers.stage("boom"):
                raise RuntimeError("boom")
        assert timers.counts["boom"] == 1
