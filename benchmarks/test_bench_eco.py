"""Bench: vectorized ECO candidate kernel vs the scalar reference scan.

The kernel gathers from each corner's stage LUT arrays and the
library's NLDM stack, enumerates the full (size, wirelength, count)
candidate grid as arrays, and resolves each arc with one masked argmin;
the reference path (the test oracle ``LPGuidedECO._scan_candidates``,
swapped in for the kernel search) scans candidates one scalar estimate
at a time.  Both are
the *same* search — the kernel's contract is identical chosen candidates
and estimate agreement to <= 1e-9 ps (bit-identical trees in practice) —
so this bench measures pure candidate-evaluation speedup.

Writes ``results/BENCH_eco.json`` with one-shot LP-plan realization
times for both paths, each from a cold hop-delay memo, plus a second
kernel realization on a warm hop memo (the state every sweep point after
the first sees: the memo is process-wide, candidate tables are rebuilt
per plan), and asserts the tentpole target: **>= 5x** on CLS1v1.  The
warm-hop pass times the chunked table builds and selects alone; its gap
to the cold kernel pass is the plan's hop fills, one straight-wire
moment pass per memo row.  A MINI smoke variant (``-k smoke``) runs in
under a minute for CI.

A round runs the reference leg, the cold kernel leg and the warm-hop
leg back to back, so drift in host speed hits every leg of a round
alike; the sub-second kernel legs are each timed as the best of a few
back-to-back runs (``_util.best_of``), every cold run from a cold hop
memo.  Times are medians of the rounds and each speedup is the median
of the rounds' ratios, as the timer, characterization and training
benches take theirs.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest
from _util import best_of, emit, median_ms, median_speedup, write_record

from repro.core.eco_flow import LPGuidedECO
from repro.core.lp import GlobalSkewLP, build_model_data
from repro.core.objective import SkewVariationProblem
from repro.netlist.serialize import tree_to_dict
from repro.tech.ratio_bounds import fit_all_ratio_bounds
from repro.tech.stage_lut import characterize_stage_luts, clear_hop_cache
from repro.testcases.cls1 import build_cls1
from repro.testcases.mini import build_mini
from tests.oracles import use_scalar_scan

#: Estimate agreement bound between the two paths (ps).
TOL_PS = 1e-9


def _plan(design):
    """One LP plan (Eq. 4 at a relaxed bound) shared by both paths."""
    problem = SkewVariationProblem.create(design)
    luts = characterize_stage_luts(design.library)
    data = build_model_data(
        design.tree, problem.timer, design.pairs, problem.alphas, luts
    )
    lp = GlobalSkewLP(data, fit_all_ratio_bounds(design.library))
    solution = lp.minimize_changes(
        lp.minimize_variation().achieved_variation_bound * 1.1
    )
    timings = {
        c.name: problem.timer.analyze_corner(design.tree, c)
        for c in design.library.corners
    }
    return luts, data, solution, timings


def _realize_once(design, luts, data, solution, timings, scalar):
    clear_hop_cache()
    eco = LPGuidedECO(design.library, luts, design.legalizer)
    trial = design.tree.clone()
    with pytest.MonkeyPatch.context() as patch:
        if scalar:
            use_scalar_scan(patch)
        t0 = time.perf_counter()
        report = eco.realize(trial, data, solution, timings)
        elapsed = time.perf_counter() - t0
    return elapsed, eco, trial, report


def _parity(ref_report, ker_report, ref_tree, ker_tree):
    same_choices = [
        (r.arc_index, r.size, r.pair_count, r.spacing_um) for r in ref_report
    ] == [(r.arc_index, r.size, r.pair_count, r.spacing_um) for r in ker_report]
    max_err = 0.0
    for a, b in zip(ref_report, ker_report):
        diff = np.abs(np.subtract(a.estimates_ps, b.estimates_ps))
        max_err = max(max_err, float(diff.max()))
    same_tree = json.dumps(tree_to_dict(ref_tree), sort_keys=True) == json.dumps(
        tree_to_dict(ker_tree), sort_keys=True
    )
    return same_choices, max_err, same_tree


def _run_comparison(design, rounds):
    luts, data, solution, timings = _plan(design)
    timed = []
    identical = True
    max_err = 0.0

    def cold(scalar):
        elapsed, eco, trial, report = _realize_once(
            design, luts, data, solution, timings, scalar=scalar
        )
        return (eco, trial, report), elapsed

    def warm(eco):
        # Warm-hop-memo pass: the hop memo keeps what the cold kernel
        # pass filled; every candidate table is built again.
        trial = design.tree.clone()
        t0 = time.perf_counter()
        eco.realize(trial, data, solution, timings)
        return None, time.perf_counter() - t0

    for _ in range(rounds):
        (_, ref_tree, ref_report), ref_s = best_of(lambda: cold(True))
        (ker_eco, ker_tree, ker_report), ker_s = best_of(lambda: cold(False))
        # One plan's counters, before the warm pass adds to them.
        counters = dict(ker_eco.stats["counters"])
        compile_s = ker_eco.stats["timers"]["seconds"].get("compile", 0.0)
        _, warm_s = best_of(lambda: warm(ker_eco))
        timed.append(
            {"ref": ref_s, "kernel": ker_s, "warm": warm_s, "compile": compile_s}
        )

        same_choices, err, same_tree = _parity(
            ref_report, ker_report, ref_tree, ker_tree
        )
        max_err = max(max_err, err)
        identical &= same_choices and same_tree and err <= TOL_PS
    return {
        "design": design.name,
        "corners": [c.name for c in design.library.corners],
        "arcs_realized": len(ker_report),
        "candidates_evaluated": counters["candidates_evaluated"],
        "tables_built": counters["tables_built"],
        "max_est_err_ps": max_err,
        "kernel_identical": identical,
        "rounds": rounds,
        "reference_ms": median_ms(timed, "ref"),
        "kernel_ms": median_ms(timed, "kernel"),
        "kernel_warm_hops_ms": median_ms(timed, "warm"),
        "kernel_compile_ms": median_ms(timed, "compile"),
        "speedup": median_speedup(timed, "ref", "kernel"),
        "warm_hops_speedup": median_speedup(timed, "ref", "warm"),
    }


def _report(tag, record):
    lines = [
        f"BENCH eco ({record['design']}): one-shot LP-plan realization, "
        f"{record['arcs_realized']} arcs, "
        f"{record['candidates_evaluated']} candidates",
        f"  reference   : {record['reference_ms']:9.3f} ms",
        f"  kernel      : {record['kernel_ms']:9.3f} ms "
        f"(compile {record['kernel_compile_ms']:.3f} ms)",
        f"  warm hops   : {record['kernel_warm_hops_ms']:9.3f} ms "
        "(kernel again, hop memo kept)",
        f"  speedup     : {record['speedup']:.2f}x cold, "
        f"{record['warm_hops_speedup']:.2f}x warm hops "
        f"(median of {record['rounds']} paired rounds)",
        f"  max |d| = {record['max_est_err_ps']:.3e} ps",
    ]
    emit(tag, "\n".join(lines))


def test_bench_eco_cls1():
    """Tentpole acceptance: >= 5x one-shot realization on CLS1v1."""
    # The CLS1v1 reference leg takes minutes, so the nightly full run
    # takes fewer rounds than the smoke.
    record = _run_comparison(build_cls1(1), rounds=3)
    _report("BENCH_eco", record)
    write_record("BENCH_eco", record)
    assert record["kernel_identical"], record
    assert record["speedup"] >= 5.0, record


def test_bench_eco_smoke():
    """MINI-scale smoke (CI): identity plus a modest speedup floor."""
    record = _run_comparison(build_mini(), rounds=7)
    _report("BENCH_eco_smoke", record)
    write_record("BENCH_eco_smoke", record)
    assert record["kernel_identical"], record
    assert record["speedup"] >= 2.0, record
