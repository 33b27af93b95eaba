"""Bench: batched technology characterization vs the scalar loops.

The paper characterizes its technology once (Section 4.1): stage-delay
LUTs (Figure 3) for the Algorithm-1 ECO and cross-corner ratio envelopes
(Figure 2) for LP Constraint (11).  Production builds both from the
array stage-delay evaluator (``repro.tech.stage_lut.stage_delays``): one
grid per (corner, size) for LUTdetail, a masked fixed-point iteration
for LUTuniform, and one delay grid per corner shared by every ordered
corner pair for the ratio clouds.  The oracles in ``tests/oracles.py``
run the scalar loops instead, one ``stage_delay`` call per table entry
and three per cloud sample.  Both produce the same values bit for bit,
so this bench measures pure speedup.

Writes ``results/BENCH_characterize.json`` for the CLS1v1 library and
asserts a >= 5x floor on stage LUTs plus ratio bounds.  Every leg runs
from a cold hop-delay memo.  A round runs each oracle leg next to its
batched leg, so drift in host speed hits both sides of a ratio alike; a
sub-second leg is timed as the best of a few back-to-back runs
(``_util.best_of``).  Times are medians of the rounds (three full,
seven smoke) and each speedup is the median of the rounds' ratios.  A
MINI smoke variant (``-k smoke``) writes ``BENCH_characterize_smoke.json``
for CI.
"""

from __future__ import annotations

import time

from _util import best_of, emit, median_ms, median_speedup, write_record

from repro.tech.ratio_bounds import fit_all_ratio_bounds
from repro.tech.stage_lut import characterize_stage_luts, clear_hop_cache
from repro.testcases.cls1 import build_cls1
from repro.testcases.mini import build_mini
from tests.oracles import (
    reference_ratio_bounds,
    reference_stage_luts,
    stage_luts_equal,
)

#: Required speedup of the batched characterization over the oracles.
SPEEDUP_FLOOR = 5.0

#: Rounds of every leg, full and smoke; times and ratios are medians
#: over the rounds.
ROUNDS = 3
SMOKE_ROUNDS = 7

#: The legs in the order one round runs them.
LEGS = (
    ("ref_luts", reference_stage_luts),
    ("luts", characterize_stage_luts),
    ("ref_bounds", reference_ratio_bounds),
    ("bounds", fit_all_ratio_bounds),
)


def _cold(build, library):
    """One cold-memo run of a leg: its output and seconds."""
    clear_hop_cache()
    t0 = time.perf_counter()
    out = build(library)
    return out, time.perf_counter() - t0


def _run_comparison(design, rounds):
    library = design.library
    timed = []
    out = {}
    for _ in range(rounds):
        seconds = {}
        for name, build in LEGS:
            out[name], seconds[name] = best_of(lambda: _cold(build, library))
        seconds["ref"] = seconds["ref_luts"] + seconds["ref_bounds"]
        seconds["kernel"] = seconds["luts"] + seconds["bounds"]
        timed.append(seconds)

    return {
        "design": design.name,
        "corners": [c.name for c in library.corners],
        "lut_entries": sum(lut.uniform.size for lut in out["luts"].values()),
        "corner_pairs": len(out["bounds"]),
        # RatioBounds compare every field with ==.
        "kernel_identical": stage_luts_equal(out["luts"], out["ref_luts"])
        and out["bounds"] == out["ref_bounds"],
        "rounds": rounds,
        "reference_stage_luts_ms": median_ms(timed, "ref_luts"),
        "kernel_stage_luts_ms": median_ms(timed, "luts"),
        "reference_ratio_bounds_ms": median_ms(timed, "ref_bounds"),
        "kernel_ratio_bounds_ms": median_ms(timed, "bounds"),
        "reference_ms": median_ms(timed, "ref"),
        "kernel_ms": median_ms(timed, "kernel"),
        "stage_luts_speedup": median_speedup(timed, "ref_luts", "luts"),
        "ratio_bounds_speedup": median_speedup(timed, "ref_bounds", "bounds"),
        "speedup": median_speedup(timed, "ref", "kernel"),
    }


def _report(tag, record):
    lines = [
        f"BENCH characterize ({record['design']}): stage LUTs + ratio bounds, "
        f"{len(record['corners'])} corners, {record['lut_entries']} LUTuniform "
        f"entries, {record['corner_pairs']} ordered corner pairs",
        f"  stage LUTs   : {record['reference_stage_luts_ms']:9.3f} -> "
        f"{record['kernel_stage_luts_ms']:9.3f} ms "
        f"({record['stage_luts_speedup']:.2f}x)",
        f"  ratio bounds : {record['reference_ratio_bounds_ms']:9.3f} -> "
        f"{record['kernel_ratio_bounds_ms']:9.3f} ms "
        f"({record['ratio_bounds_speedup']:.2f}x)",
        f"  total        : {record['reference_ms']:9.3f} -> "
        f"{record['kernel_ms']:9.3f} ms ({record['speedup']:.2f}x)",
        f"  identical    : {record['kernel_identical']}",
    ]
    emit(tag, "\n".join(lines))


def test_bench_characterize_cls1():
    """Acceptance: bit-identical tables and >= 5x on the CLS1v1 library."""
    record = _run_comparison(build_cls1(1), ROUNDS)
    _report("BENCH_characterize", record)
    write_record("BENCH_characterize", record)
    assert record["kernel_identical"], record
    assert record["speedup"] >= SPEEDUP_FLOOR, record


def test_bench_characterize_smoke():
    """MINI-scale smoke (CI): the same identity and floor."""
    record = _run_comparison(build_mini(), SMOKE_ROUNDS)
    _report("BENCH_characterize_smoke", record)
    write_record("BENCH_characterize_smoke", record)
    assert record["kernel_identical"], record
    assert record["speedup"] >= SPEEDUP_FLOOR, record
