"""Bench: full golden re-timing vs the incremental engine on local moves.

Reproduces the motivating measurement for the incremental timer: during
local optimization every candidate move needs golden-accurate timing, and
the clone + full re-propagation pattern pays the whole tree's cost per
candidate.  The incremental engine re-times only the move's dirty cone.

Writes ``results/BENCH_timer.json`` with both wall times, the speedup,
and the engine's cache statistics, and asserts the tentpole target:
**>= 5x** on CLS1v1 local-opt move evaluation.  A MINI smoke variant
(`-k smoke`) runs in seconds for CI.

The moves are dealt into rounds, and a round times the full leg and then
the incremental leg over the same moves, so drift in host speed hits
both sides of a ratio alike.  The speedup is the median of the rounds'
ratios, as the characterization and training benches take theirs.  The
engine's one-time attach (its first full pass) runs before the rounds:
it counts in ``incremental_s`` but in no round.
"""

from __future__ import annotations

import statistics
import time


from _util import emit, write_record
from repro.core.moves import apply_move, enumerate_moves
from repro.core.objective import SkewVariationProblem
from repro.sta.timer import GoldenTimer
from repro.testcases.cls1 import build_cls1
from repro.testcases.mini import build_mini

#: Agreement bound between the two engines (ps).
TOL_PS = 1e-9

#: Rounds the candidate moves are dealt into.
ROUNDS = 5


def _candidate_moves(design, limit):
    """A deterministic, type-diverse slice of the Table-2 move universe."""
    moves = enumerate_moves(design.tree, design.library)
    if len(moves) <= limit:
        return moves
    stride = len(moves) // limit
    return [moves[i * stride] for i in range(limit)]


def _run_comparison(design, limit):
    problem = SkewVariationProblem.create(design)
    tree = design.tree.clone()
    moves = _candidate_moves(design, limit)
    # The full path runs the golden timer's scalar reference loop: this
    # bench measures the pre-incremental clone + full-retime pattern,
    # not the array kernel (BENCH_kernel covers that axis).
    golden = GoldenTimer(design.library)
    corners = design.library.corners
    pairs = design.pairs

    def full(move):
        # The pre-tentpole pattern: clone, apply, re-time all.
        trial = tree.clone()
        apply_move(trial, design.legalizer, design.library, move)
        timings = {c.name: golden._analyze_corner_reference(trial, c) for c in corners}
        result = golden.time_tree(trial, pairs, alphas=problem.alphas, timings=timings)
        return result.total_variation

    def incremental(move):
        # Apply in place, re-time the dirty cone, undo.
        return problem.evaluate_move(tree, move).total_variation

    engine = problem.engine()
    t0 = time.perf_counter()
    engine.ensure(tree)
    attach_s = time.perf_counter() - t0
    full_objectives = [0.0] * len(moves)
    inc_objectives = [0.0] * len(moves)
    rounds = []
    for first in range(ROUNDS):
        # Every ROUNDS-th move, so each round holds a like mix of moves.
        picks = range(first, len(moves), ROUNDS)
        seconds = []
        for leg, objectives in ((full, full_objectives), (incremental, inc_objectives)):
            t0 = time.perf_counter()
            for i in picks:
                objectives[i] = leg(moves[i])
            seconds.append(time.perf_counter() - t0)
        rounds.append(seconds)
    full_s = sum(r[0] for r in rounds)
    inc_s = attach_s + sum(r[1] for r in rounds)

    max_err = max(
        abs(a - b) for a, b in zip(full_objectives, inc_objectives)
    )
    return {
        "design": design.name,
        "moves": len(moves),
        "nodes": len(tree),
        "corners": [c.name for c in design.library.corners],
        "full_s": round(full_s, 4),
        "incremental_s": round(inc_s, 4),
        "full_ms_per_move": round(1000.0 * full_s / len(moves), 3),
        "incremental_ms_per_move": round(1000.0 * inc_s / len(moves), 3),
        "rounds": ROUNDS,
        "speedup": round(statistics.median(f / i for f, i in rounds), 2),
        "max_objective_err_ps": max_err,
        "engine_backend": "kernel",
        "engine_stats": dict(engine.stats),
    }


def _report(tag, record):
    lines = [
        f"BENCH timer ({record['design']}): "
        f"{record['moves']} candidate move evaluations",
        f"  full golden : {record['full_s']:8.3f} s "
        f"({record['full_ms_per_move']:.2f} ms/move)",
        f"  incremental : {record['incremental_s']:8.3f} s "
        f"({record['incremental_ms_per_move']:.2f} ms/move)",
        f"  speedup     : {record['speedup']:.2f}x "
        f"(median of {record['rounds']} paired rounds)",
        f"  max |d objective| = {record['max_objective_err_ps']:.3e} ps",
    ]
    emit(tag, "\n".join(lines))


def test_bench_timer_perf_cls1():
    """Tentpole acceptance: >= 5x on CLS1v1 move evaluation."""
    design = build_cls1(1)
    record = _run_comparison(design, limit=120)
    _report("BENCH_timer", record)
    write_record("BENCH_timer", record)
    assert record["max_objective_err_ps"] <= TOL_PS
    assert record["speedup"] >= 5.0, record
    # The kernel batches gate evaluations without the scalar memo;
    # every candidate still retimes through the array path.
    assert record["engine_stats"]["retimes"] == record["moves"], record


def test_bench_timer_perf_smoke():
    """MINI-scale smoke (CI): correctness plus a modest speedup floor."""
    design = build_mini()
    record = _run_comparison(design, limit=40)
    _report("BENCH_timer_smoke", record)
    write_record("BENCH_timer_smoke", record)
    assert record["max_objective_err_ps"] <= TOL_PS
    # MINI's tree is tiny, so the full pass is cheap and the relative
    # win is smaller; the floor only guards against regressions.
    assert record["speedup"] >= 1.5, record
