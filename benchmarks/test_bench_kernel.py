"""Bench: batched array kernel vs the scalar reference timing path.

The kernel compiles the clock tree to SoA/CSR arrays and propagates all
corners at once with vectorized NLDM lookups; the reference path (the
test oracles ``GoldenTimer._analyze_corner_reference`` and
``ReferenceIncrementalTimer``) walks the tree corner-by-corner with dict
state.  Both are the *same* model — the kernel's contract is agreement
to <= 1e-9 ps (bit-identical in practice), so this bench measures pure
execution-engine speedup.

Writes ``results/BENCH_kernel.json`` with full-tree all-corner analysis
times for both paths, the incremental preview (retime) times, and a
``kernel_identical`` flag, and asserts the tentpole target: **>= 5x**
single-thread full-tree analysis on CLS1v1.  A MINI smoke variant
(``-k smoke``) runs in seconds for CI.

Both comparisons take paired rounds: a round times the reference leg
and then the kernel leg, so drift in host speed hits both sides of a
ratio alike.  Times are medians of the rounds and each speedup is the
median of the rounds' ratios.
"""

from __future__ import annotations

import time

from _util import emit, median_ms, median_speedup, write_record
from repro.core.moves import apply_move_undoable, enumerate_moves, undo_move
from repro.sta.incremental import IncrementalTimer, ReferenceIncrementalTimer
from repro.sta.timer import GoldenTimer
from repro.testcases.cls1 import build_cls1
from repro.testcases.mini import build_mini

#: Agreement bound between the two paths (ps).
TOL_PS = 1e-9

_FIELDS = (
    "arrival",
    "input_slew",
    "driver_delay",
    "driver_load",
    "driver_out_slew",
    "edge_delay",
    "edge_elmore",
)


def _max_err(got, want):
    worst = 0.0
    for name in want:
        for field in _FIELDS:
            got_map = getattr(got[name], field)
            want_map = getattr(want[name], field)
            for key, value in want_map.items():
                worst = max(worst, abs(got_map[key] - value))
    return worst


def _time_full(analyze, tree):
    t0 = time.perf_counter()
    analyze(tree)
    return time.perf_counter() - t0


def _time_retime(design, engine_cls, moves, pairs):
    engine = engine_cls(design.library)
    tree = design.tree.clone()
    engine.ensure(tree)
    t0 = time.perf_counter()
    for move in moves:
        undo = apply_move_undoable(tree, design.legalizer, design.library, move)
        engine.preview(tree, undo.dirty, pairs)
        undo_move(tree, undo)
        engine.rebase(tree)
    return time.perf_counter() - t0


def _candidate_moves(design, limit):
    moves = enumerate_moves(design.tree, design.library)
    if len(moves) <= limit:
        return moves
    stride = len(moves) // limit
    return [moves[i * stride] for i in range(limit)]


def _run_comparison(design, rounds, move_limit):
    tree = design.tree
    timer = GoldenTimer(design.library)

    def reference_all_corners(tree):
        return {
            c.name: timer._analyze_corner_reference(tree, c)
            for c in design.library.corners
        }

    # The parity pass also warms the edge/gate caches and the compile.
    max_err = _max_err(timer.analyze_all_corners(tree), reference_all_corners(tree))
    moves = _candidate_moves(design, move_limit)
    pairs = design.pairs
    timed = []
    for _ in range(rounds):
        timed.append(
            {
                "ref": _time_full(reference_all_corners, tree),
                "kernel": _time_full(timer.analyze_all_corners, tree),
                "retime_ref": _time_retime(
                    design, ReferenceIncrementalTimer, moves, pairs
                ),
                "retime_kernel": _time_retime(design, IncrementalTimer, moves, pairs),
            }
        )

    return {
        "design": design.name,
        "nodes": len(tree),
        "corners": [c.name for c in design.library.corners],
        "max_err_ps": max_err,
        "kernel_identical": max_err <= TOL_PS,
        "rounds": rounds,
        "full_reference_ms": median_ms(timed, "ref"),
        "full_kernel_ms": median_ms(timed, "kernel"),
        "speedup": median_speedup(timed, "ref", "kernel"),
        "retime_moves": len(moves),
        "retime_reference_ms": median_ms(timed, "retime_ref"),
        "retime_kernel_ms": median_ms(timed, "retime_kernel"),
        "retime_speedup": median_speedup(timed, "retime_ref", "retime_kernel"),
    }


def _report(tag, record):
    lines = [
        f"BENCH kernel ({record['design']}): "
        f"all-corner full-tree analysis, {len(record['corners'])} corners",
        f"  reference : {record['full_reference_ms']:9.3f} ms",
        f"  kernel    : {record['full_kernel_ms']:9.3f} ms",
        f"  speedup   : {record['speedup']:.2f}x "
        f"(retime {record['retime_speedup']:.2f}x over "
        f"{record['retime_moves']} previews; medians of "
        f"{record['rounds']} paired rounds)",
        f"  max |d| = {record['max_err_ps']:.3e} ps",
    ]
    emit(tag, "\n".join(lines))


def test_bench_kernel_cls1():
    """Tentpole acceptance: >= 5x full-tree analysis on CLS1v1."""
    design = build_cls1(1)
    record = _run_comparison(design, rounds=5, move_limit=60)
    _report("BENCH_kernel", record)
    write_record("BENCH_kernel", record)
    assert record["kernel_identical"], record
    assert record["speedup"] >= 5.0, record


def test_bench_kernel_smoke():
    """MINI-scale smoke (CI): identity plus a modest speedup floor."""
    design = build_mini()
    record = _run_comparison(design, rounds=20, move_limit=30)
    _report("BENCH_kernel_smoke", record)
    write_record("BENCH_kernel_smoke", record)
    assert record["kernel_identical"], record
    # MINI's tree is tiny, so per-level batches are short; the floor
    # only guards against regressions.
    assert record["speedup"] >= 2.0, record
