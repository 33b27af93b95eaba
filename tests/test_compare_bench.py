"""The perf-regression gate, ``benchmarks/compare_bench.py``, on doctored records.

The CI jobs run the gate as a script, so these tests import it the way
the script runs: with ``benchmarks/`` on ``sys.path``.  Each test writes
a baseline and a fresh results directory, runs ``main`` and checks the
exit status (0 pass, 1 fail) and the line that names the failure.

``FLAG_CHECKS`` and ``RELATIVE_CHECKS`` list by hand, not from the
gate's own tables, every (bench, key) check the gate must make on both
the smoke and the full record, so a check dropped from the gate fails a
test here.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"

#: Every bench the gate requires a smoke record of.
SMOKE = (
    "characterize", "eco", "features", "kernel", "localopt",
    "parallel", "pool", "timer", "trace", "training",
)

#: bench -> flags that must be true.
FLAG_CHECKS = {
    "localopt": ("trajectory_identical",),
    "parallel": ("trajectory_identical",),
    "pool": ("verdicts_identical",),
    "kernel": ("kernel_identical",),
    "eco": ("kernel_identical",),
    "features": ("kernel_identical", "pooled_identical"),
    "characterize": ("kernel_identical",),
    "training": ("labels_identical", "weights_identical"),
    "trace": ("schema_valid", "span_tree_stable", "result_identical"),
}

#: (bench, key) gated against the baseline: every ``*speedup*``,
#: ``*_cost_ms`` and ``*_cost_ratio`` key the committed records carry.
RELATIVE_CHECKS = (
    ("characterize", "speedup"),
    ("characterize", "stage_luts_speedup"),
    ("characterize", "ratio_bounds_speedup"),
    ("eco", "speedup"),
    ("eco", "warm_hops_speedup"),
    ("features", "speedup"),
    ("features", "end_to_end_speedup"),
    ("kernel", "speedup"),
    ("kernel", "retime_speedup"),
    ("localopt", "iteration_cost_ratio"),
    ("parallel", "speedup"),
    ("parallel", "trial_speedup"),
    ("timer", "speedup"),
    ("trace", "tracer_cost_ms"),
    ("trace", "sampler_cost_ms"),
    ("training", "speedup"),
    ("training", "dataset_speedup"),
    ("training", "fit_speedup"),
)


@pytest.fixture
def gate(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    yield importlib.import_module("compare_bench")
    sys.modules.pop("compare_bench", None)


def passing_records():
    """One smoke record per bench that clears every check of the gate."""
    records = {}
    for bench in SMOKE:
        record = {"speedup": 4.0, "wall_s": 1.0}
        record.update({flag: True for flag in FLAG_CHECKS.get(bench, ())})
        if bench == "trace":
            record.update(
                overhead_pct=1.0,
                sampler_overhead_pct=1.0,
                tracer_cost_ms=2.0,
                sampler_cost_ms=8.0,
            )
        records[f"BENCH_{bench}_smoke.json"] = record
    return records


def run_gate(gate, tmp_path, base, fresh, tolerance=None):
    """Write both directories and return the gate's exit status."""
    dirs = []
    for side, records in (("base", base), ("fresh", fresh)):
        directory = tmp_path / side
        directory.mkdir(parents=True)
        for name, record in records.items():
            (directory / name).write_text(json.dumps(record))
        dirs.append(str(directory))
    argv = ["--baseline", dirs[0], "--fresh", dirs[1]]
    if tolerance is not None:
        argv += ["--tolerance", str(tolerance)]
    return gate.main(argv)


def doctored(name, key, base_value, fresh_value):
    """(baseline, fresh) record sets differing in one key of one record."""
    base, fresh = passing_records(), passing_records()
    smoke = name.replace("_smoke", "").replace(".json", "_smoke.json")
    for records, value in ((base, base_value), (fresh, fresh_value)):
        # A full record starts as a copy of its bench's smoke record.
        records.setdefault(name, dict(records[smoke]))
        records[name][key] = value
    return base, fresh


def test_passing_records_exit_0(gate, tmp_path, capsys):
    assert run_gate(gate, tmp_path, passing_records(), passing_records()) == 0
    out = capsys.readouterr().out
    assert "perf gate: no regressions" in out
    assert "BENCH_timer_smoke.json: speedup baseline=4.00 fresh=4.00" in out


def test_bench_list_matches(gate):
    assert sorted(gate.BENCHES) == sorted(SMOKE)


def test_direction_classification(gate):
    assert gate.direction("verify_speedup") == "higher"
    assert gate.direction("tracer_cost_ms") == "lower"
    assert gate.direction("sampler_cost_ms") == "lower"
    assert gate.direction("iteration_cost_ratio") == "lower"
    # Absolute milliseconds per iteration follow the host: not gated.
    assert gate.direction("ms_per_iteration") is None
    # Overhead percentages have absolute ceilings only.
    assert gate.direction("overhead_pct") is None
    assert gate.direction("sampler_overhead_pct") is None
    assert gate.direction("wall_s") is None


def test_speedup_drop_fails(gate, tmp_path, capsys):
    base, fresh = doctored("BENCH_timer_smoke.json", "speedup", 8.0, 5.9)
    assert run_gate(gate, tmp_path, base, fresh) == 1
    captured = capsys.readouterr()
    line = "BENCH_timer_smoke.json: speedup baseline=8.00 fresh=5.90 floor=6.00 [REGRESSION]"
    assert line in captured.out
    assert f"FAIL: {line}" in captured.err


def test_exit_codes(gate, tmp_path, capsys):
    base, fresh = doctored("BENCH_timer_smoke.json", "speedup", 8.0, 3.9)
    assert run_gate(gate, tmp_path / "drop", base, fresh) == 1
    # A wide enough tolerance lets the same drop through.
    assert run_gate(gate, tmp_path / "wide", base, fresh, 0.9) == 0
    with pytest.raises(SystemExit) as excinfo:
        gate.main(["--fresh", str(tmp_path)])
    assert excinfo.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("suffix", ["_smoke", ""])
@pytest.mark.parametrize("bench,key", RELATIVE_CHECKS)
def test_relative_move_beyond_tolerance_fails(gate, tmp_path, capsys, bench, key, suffix):
    name = f"BENCH_{bench}{suffix}.json"
    if gate.direction(key) == "higher":
        values = (16.0, 7.8)  # a drop of 51%
    else:
        values = (1.0, 1.51)  # a rise of 51%
    base, fresh = doctored(name, key, *values)
    for tolerance in (None, 0.5):
        assert run_gate(gate, tmp_path / str(tolerance), base, fresh, tolerance) == 1
        err = capsys.readouterr().err
        assert f"FAIL: {name}: {key} baseline=" in err
        assert "[REGRESSION]" in err
    # A wide enough tolerance lets the same move through.
    assert run_gate(gate, tmp_path / "wide", base, fresh, 0.9) == 0


def test_speedup_rise_passes(gate, tmp_path):
    # So does a drop inside the tolerance, on any speedup key.
    for key in ("speedup", "trial_speedup"):
        for value in (9.0, 6.1):
            base, fresh = doctored("BENCH_parallel_smoke.json", key, 8.0, value)
            assert run_gate(gate, tmp_path / f"{key}{value}", base, fresh) == 0


def test_overhead_rise_fails(gate, tmp_path):
    # The tracer's and the sampler's own costs are gated relatively.
    for key in ("tracer_cost_ms", "sampler_cost_ms"):
        base, fresh = doctored("BENCH_trace_smoke.json", key, 1.0, 1.3)
        assert run_gate(gate, tmp_path / f"{key}-rise", base, fresh) == 1
        base, fresh = doctored("BENCH_trace_smoke.json", key, 1.0, 0.2)
        assert run_gate(gate, tmp_path / f"{key}-drop", base, fresh) == 0


@pytest.mark.parametrize("suffix", ["_smoke", ""])
def test_faster_flow_at_same_tracer_cost_passes(gate, tmp_path, capsys, suffix):
    """A flow that got faster raises the overhead percentages while the
    tracer costs the same: inside their 2% ceilings, that passes."""
    name = f"BENCH_trace{suffix}.json"
    base, fresh = doctored(name, "overhead_pct", 0.18, 0.23)
    for records, value in ((base, 0.37), (fresh, 0.50)):
        records[name].update(sampler_overhead_pct=value)
    for records in (base, fresh):
        records[name].update(tracer_cost_ms=1.46, sampler_cost_ms=1.68)
    assert run_gate(gate, tmp_path, base, fresh) == 0
    out = capsys.readouterr().out
    assert f"{name}: overhead_pct fresh=0.23 ceiling=2.00 [OK]" in out
    assert f"{name}: tracer_cost_ms baseline=1.46 fresh=1.46 ceiling=1.82 [OK]" in out


def test_zero_baseline_never_gates(gate, tmp_path, capsys):
    base, fresh = doctored("BENCH_trace_smoke.json", "tracer_cost_ms", 0.0, 1.9)
    assert run_gate(gate, tmp_path, base, fresh) == 0
    out = capsys.readouterr().out
    assert "tracer_cost_ms baseline=0.00 fresh=1.90 [not gated: zero baseline]" in out


@pytest.mark.parametrize("suffix", ["_smoke", ""])
@pytest.mark.parametrize(
    "bench,flag",
    [(bench, flag) for bench, flags in FLAG_CHECKS.items() for flag in flags],
)
def test_false_flag_fails(gate, tmp_path, capsys, bench, flag, suffix):
    name = f"BENCH_{bench}{suffix}.json"
    base, fresh = doctored(name, flag, True, False)
    assert run_gate(gate, tmp_path, base, fresh) == 1
    assert f"FAIL: {name}: {flag} is false" in capsys.readouterr().err


def test_missing_flag_counts_as_false(gate, tmp_path, capsys):
    fresh = passing_records()
    del fresh["BENCH_eco_smoke.json"]["kernel_identical"]
    assert run_gate(gate, tmp_path, passing_records(), fresh) == 1
    assert "kernel_identical is false" in capsys.readouterr().err


@pytest.mark.parametrize("suffix", ["_smoke", ""])
@pytest.mark.parametrize(
    "bench,key,value",
    [
        ("trace", "overhead_pct", 2.01),
        ("trace", "sampler_overhead_pct", 2.01),
    ],
)
def test_absolute_bound_breach_fails(gate, tmp_path, capsys, bench, key, value, suffix):
    name = f"BENCH_{bench}{suffix}.json"
    # The baseline sits next to the bound, so only the bound can fail.
    base, fresh = doctored(name, key, 2.0, value)
    assert run_gate(gate, tmp_path, base, fresh) == 1
    line = f"FAIL: {name}: {key} fresh={value:.2f} ceiling="
    assert line in capsys.readouterr().err


def test_committed_trace_overheads_of_the_old_method_fail(gate, tmp_path, capsys):
    # The full trace record as the best-of-3 wall method wrote it.
    base, fresh = doctored("BENCH_trace.json", "overhead_pct", 5.009, 5.009)
    fresh["BENCH_trace.json"]["sampler_overhead_pct"] = 2.262
    base["BENCH_trace.json"]["sampler_overhead_pct"] = 2.262
    assert run_gate(gate, tmp_path, base, fresh) == 1
    err = capsys.readouterr().err
    assert "BENCH_trace.json: overhead_pct fresh=5.01 ceiling=2.00" in err
    assert "BENCH_trace.json: sampler_overhead_pct fresh=2.26 ceiling=2.00" in err


def test_metric_absent_from_fresh_fails(gate, tmp_path, capsys):
    fresh = passing_records()
    del fresh["BENCH_kernel_smoke.json"]["speedup"]
    del fresh["BENCH_trace_smoke.json"]["overhead_pct"]
    assert run_gate(gate, tmp_path, passing_records(), fresh) == 1
    err = capsys.readouterr().err
    assert "BENCH_kernel_smoke.json: fresh result lacks 'speedup'" in err
    assert "BENCH_trace_smoke.json: fresh result lacks 'overhead_pct'" in err


@pytest.mark.parametrize("bench", SMOKE)
def test_missing_fresh_smoke_record_fails(gate, tmp_path, capsys, bench):
    fresh = passing_records()
    del fresh[f"BENCH_{bench}_smoke.json"]
    assert run_gate(gate, tmp_path, passing_records(), fresh) == 1
    assert f"BENCH_{bench}_smoke.json: fresh result missing" in capsys.readouterr().err


@pytest.mark.parametrize("side", ["base", "fresh"])
def test_unreadable_record_fails(gate, tmp_path, capsys, side):
    records = {"base": passing_records(), "fresh": passing_records()}
    records[side]["BENCH_eco_smoke.json"] = ["not", "an", "object"]
    assert run_gate(gate, tmp_path, records["base"], records["fresh"]) == 1
    assert "BENCH_eco_smoke.json: cannot read record" in capsys.readouterr().err


def test_missing_full_record_is_not_required(gate, tmp_path, capsys):
    base, fresh = doctored("BENCH_timer.json", "speedup", 40.0, 40.0)
    del fresh["BENCH_timer.json"]
    assert run_gate(gate, tmp_path, base, fresh) == 0
    assert "BENCH_timer.json" not in capsys.readouterr().out


def test_missing_baseline_only_warns(gate, tmp_path, capsys):
    fresh = passing_records()
    fresh["BENCH_timer.json"] = {"speedup": 40.0}
    assert run_gate(gate, tmp_path, {}, fresh) == 0
    out = capsys.readouterr().out
    assert "WARNING: BENCH_timer_smoke.json: no committed baseline yet" in out
    assert "WARNING: BENCH_timer.json: no committed baseline yet" in out


def test_missing_baseline_still_checks_bounds(gate, tmp_path, capsys):
    fresh = passing_records()
    fresh["BENCH_trace.json"] = dict(fresh["BENCH_trace_smoke.json"], overhead_pct=3.0)
    assert run_gate(gate, tmp_path, {}, fresh) == 1
    assert "BENCH_trace.json: overhead_pct fresh=3.00 ceiling=2.00" in capsys.readouterr().err


def test_new_metric_without_baseline_warns(gate, tmp_path, capsys):
    fresh = passing_records()
    fresh["BENCH_eco_smoke.json"]["cold_speedup"] = 1.0
    assert run_gate(gate, tmp_path, passing_records(), fresh) == 0
    assert "BENCH_eco_smoke.json: baseline lacks 'cold_speedup'" in capsys.readouterr().out


def test_smoke_and_full_records_pair_under_one_bench(gate, tmp_path, capsys):
    # Each record is compared with its own baseline: the full record's
    # 30x holds against its 40x baseline, not against the smoke's 4x.
    base, fresh = doctored("BENCH_timer.json", "speedup", 40.0, 31.0)
    assert run_gate(gate, tmp_path / "ok", base, fresh) == 0
    out = capsys.readouterr().out
    assert "BENCH_timer_smoke.json: speedup baseline=4.00 fresh=4.00" in out
    assert "BENCH_timer.json: speedup baseline=40.00 fresh=31.00" in out
    base, fresh = doctored("BENCH_timer.json", "speedup", 40.0, 29.0)
    assert run_gate(gate, tmp_path / "bad", base, fresh) == 1
    err = capsys.readouterr().err
    assert "BENCH_timer.json: speedup" in err
    assert "BENCH_timer_smoke.json" not in err

