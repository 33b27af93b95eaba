"""Differential contract of the vectorized ECO candidate kernel.

The kernel must be a pure accelerator: same chosen (size, spacing,
count) tuples, estimate agreement within 1e-9 ps (in practice
bit-identical), and byte-identical realized trees and sweep trajectories
against the scalar scan (``LPGuidedECO._scan_candidates``, swapped in
for the kernel's ``_search``) — serial or pooled.
"""

import contextlib
import dataclasses
import json
import math

import numpy as np
import pytest

from repro.core.eco_flow import ECOConfig, LPGuidedECO
from repro.core.framework import (
    GlobalOptConfig,
    GlobalOptimizer,
    RealizationContext,
    realize_verified_plan,
)
from repro.core.lp import GlobalSkewLP, build_model_data, sweep_upper_bound
from repro.eco import candidate_kernel
from repro.eco.candidate_kernel import ECOCandidateKernel, ECOKernelUnsupported
from repro.netlist.serialize import tree_to_dict
from repro.tech.cells import NLDMTable
from repro.tech.ratio_bounds import fit_all_ratio_bounds


def _tree_bytes(tree) -> str:
    return json.dumps(tree_to_dict(tree), sort_keys=True)


@contextlib.contextmanager
def _scanning(scalar):
    """Run ``LPGuidedECO`` on the scalar scan instead of the kernel."""
    with pytest.MonkeyPatch.context() as patch:
        if scalar:
            patch.setattr(LPGuidedECO, "_search", LPGuidedECO._scan_candidates)
        yield


@pytest.fixture(scope="module")
def mini_plan(mini_design, mini_problem, stage_luts):
    """One LP plan on MINI, shared by every differential test."""
    ratio_bounds = fit_all_ratio_bounds(mini_design.library)
    data = build_model_data(
        mini_design.tree,
        mini_problem.timer,
        mini_design.pairs,
        mini_problem.alphas,
        stage_luts,
    )
    lp = GlobalSkewLP(data, ratio_bounds)
    solution = lp.minimize_changes(
        lp.minimize_variation().achieved_variation_bound * 1.1
    )
    timings = {
        c.name: mini_problem.timer.analyze_corner(mini_design.tree, c)
        for c in mini_design.library.corners
    }
    return lp, data, solution, timings


def _realize(mini_design, stage_luts, plan, scalar=False):
    _, data, solution, timings = plan
    eco = LPGuidedECO(mini_design.library, stage_luts, mini_design.legalizer)
    trial = mini_design.tree.clone()
    with _scanning(scalar):
        report = eco.realize(trial, data, solution, timings)
    return eco, trial, report


class TestEstimateParity:
    @pytest.fixture(scope="class")
    def both(self, mini_design, stage_luts, mini_plan):
        ref = _realize(mini_design, stage_luts, mini_plan, scalar=True)
        ker = _realize(mini_design, stage_luts, mini_plan)
        return ref, ker

    def test_same_arcs_chosen(self, both):
        (_, _, ref_rep), (_, _, ker_rep) = both
        assert len(ref_rep) > 0
        assert [r.arc_index for r in ref_rep] == [r.arc_index for r in ker_rep]

    def test_identical_candidate_tuples(self, both):
        (_, _, ref_rep), (_, _, ker_rep) = both
        for a, b in zip(ref_rep, ker_rep):
            assert (a.size, a.pair_count, a.spacing_um) == (
                b.size,
                b.pair_count,
                b.spacing_um,
            )

    def test_estimates_within_1e9_ps(self, both):
        (_, _, ref_rep), (_, _, ker_rep) = both
        worst = 0.0
        for a, b in zip(ref_rep, ker_rep):
            diff = np.abs(np.subtract(a.estimates_ps, b.estimates_ps))
            worst = max(worst, float(diff.max()))
            assert a.estimate_error_ps == b.estimate_error_ps
        assert worst <= 1e-9

    def test_trees_byte_identical(self, both):
        (_, ref_tree, _), (_, ker_tree, _) = both
        assert _tree_bytes(ref_tree) == _tree_bytes(ker_tree)


class TestSweepTrajectory:
    @pytest.mark.slow
    def test_sweep_points_byte_identical(
        self, mini_problem, stage_luts, mini_plan
    ):
        """Every sweep point's realized tree matches the scalar scan's."""
        lp, data, _, _ = mini_plan
        solutions = sweep_upper_bound(lp, (1.0, 1.15))
        ctx = RealizationContext.from_problem(
            mini_problem, stage_luts, GlobalOptConfig()
        )
        base = mini_problem.design.tree
        trajectories = {}
        for scalar in (True, False):
            points = []
            with _scanning(scalar):
                for _bound, solution in solutions:
                    tree_u, _result, counts, _eco_stats = realize_verified_plan(
                        ctx, base, data, solution, allow_batches=False
                    )
                    points.append((counts, _tree_bytes(tree_u)))
            trajectories[scalar] = points
        assert trajectories[True] == trajectories[False]

    @pytest.mark.slow
    def test_workers_1_vs_4_byte_identical(self, mini_problem, mini_design):
        """The pooled sweep (fresh kernels per worker) folds identically."""
        from repro.core.framework import TechnologyCache

        trees = {}
        for workers in (1, 4):
            tech = TechnologyCache(mini_design.library)
            result = GlobalOptimizer(
                mini_problem,
                tech,
                GlobalOptConfig(
                    sweep_factors=(1.0, 1.15),
                    max_iterations=1,
                    workers=workers,
                ),
            ).run()
            trees[workers] = (result.arcs_realized, _tree_bytes(result.tree))
        assert trees[1] == trees[4]


class TestSweepCacheAndStats:
    def test_repeat_realizations_identical(
        self, mini_design, stage_luts, mini_plan
    ):
        """Re-realizing the same plan on one ECO reproduces it exactly."""
        _, data, solution, timings = mini_plan
        eco = LPGuidedECO(mini_design.library, stage_luts, mini_design.legalizer)
        runs = []
        for _ in range(2):
            trial = mini_design.tree.clone()
            report = eco.realize(trial, data, solution, timings)
            runs.append(
                (
                    [r.arc_index for r in report],
                    [(r.size, r.pair_count, r.spacing_um) for r in report],
                    _tree_bytes(trial),
                )
            )
        assert runs[0][0]
        assert runs[0] == runs[1]

    def test_kernel_reports_phase_timers(self, mini_design, stage_luts, mini_plan):
        eco, _, _ = _realize(mini_design, stage_luts, mini_plan)
        timers = eco.stats["timers"]["seconds"]
        assert "compile" in timers
        assert "table_build" in timers
        assert "select" in timers
        assert eco.stats["counters"]["candidates_evaluated"] > 0

    @pytest.mark.slow
    def test_framework_aggregates_eco_stats(self, mini_problem, mini_design):
        from repro.core.framework import TechnologyCache

        result = GlobalOptimizer(
            mini_problem,
            TechnologyCache(mini_design.library),
            GlobalOptConfig(sweep_factors=(1.1,), max_iterations=1),
        ).run()
        eco_stats = result.stats["eco"]
        assert eco_stats["counters"]["candidates_evaluated"] > 0
        assert eco_stats["timers"]["seconds"]["select"] >= 0.0


class TestCLS1Parity:
    @pytest.fixture(scope="class")
    def cls1_plan(self):
        """One LP plan on CLS1v1 and the timings it was built from."""
        from repro.core.objective import SkewVariationProblem
        from repro.tech.stage_lut import characterize_stage_luts
        from repro.testcases.cls1 import build_cls1

        design = build_cls1(1)
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
        return design, luts, data, solution, timings

    @pytest.mark.slow
    def test_arc_subset_parity(self, cls1_plan):
        """Same contract on CLS1v1 (subset of arcs keeps the scan cheap)."""
        design, luts, data, solution, timings = cls1_plan
        subset = solution.nonzero_arcs()[:8]
        outputs = {}
        for scalar in (True, False):
            eco = LPGuidedECO(design.library, luts, design.legalizer)
            trial = design.tree.clone()
            with _scanning(scalar):
                report = eco.realize(
                    trial, data, solution, timings, arc_indices=subset
                )
            outputs[scalar] = (
                [
                    (r.arc_index, r.size, r.pair_count, r.spacing_um)
                    for r in report
                ],
                [r.estimates_ps for r in report],
                _tree_bytes(trial),
            )
        ref, ker = outputs[True], outputs[False]
        assert len(ref[0]) > 0
        assert ref[0] == ker[0]
        for a, b in zip(ref[1], ker[1]):
            assert float(np.abs(np.subtract(a, b)).max()) <= 1e-9
        assert ref[2] == ker[2]

    @pytest.mark.slow
    def test_every_arc_table_equals_scalar_estimate(self, cls1_plan):
        """Every nonzero arc's table rows equal ``_estimate`` exactly.

        A strided row sample, offset per arc, so that across the plan it
        reaches wire-only rows, every drive size and pair counts 1, 2
        and beyond (the three branches of the scalar estimate).
        """
        design, luts, data, solution, timings = cls1_plan
        config = ECOConfig()
        eco = LPGuidedECO(
            design.library, luts, design.legalizer, config=config
        )
        kernel = ECOCandidateKernel(design.library, luts, config)
        tree = design.tree
        stride = 211
        arcs = solution.nonzero_arcs(config.delta_threshold_ps)
        wire_rows = 0
        sizes = set()
        counts = set()
        for position, j in enumerate(arcs):
            arc = data.arcs[j]
            start = tree.node(arc.start).location
            direct = max(start.manhattan(tree.node(arc.end).location), 1.0)
            end_cap = eco._pin_cap(tree, arc.end)
            ctx = eco._arc_context(tree, arc, timings)
            table = kernel.table(direct, end_cap, ctx)
            prep = eco._prepare_estimate(ctx)
            for row in range(position % stride, table.est.shape[0], stride):
                if not table.valid_static[row]:
                    continue
                size = int(table.size_values[row])
                count = int(table.counts[row])
                expected = eco._estimate(
                    size, float(table.spacing[row]), count, end_cap, prep
                )
                assert table.est[row].tolist() == expected, (j, row)
                if count == 0:
                    wire_rows += 1
                else:
                    sizes.add(size)
                    counts.add(min(count, 3))
        assert len(arcs) > 100
        assert wire_rows > 0
        assert sizes == set(design.library.sizes)
        assert counts == {1, 2, 3}


class TestTanhMemo:
    def test_full_memo_clears_and_keeps_every_key(
        self, monkeypatch, mini_design, stage_luts
    ):
        """A clear triggered by new keys must not drop this call's hits."""
        monkeypatch.setattr(candidate_kernel, "_TANH_MEMO_LIMIT", 4)
        kernel = ECOCandidateKernel(mini_design.library, stage_luts, ECOConfig())
        first = np.array([0.3, 0.1, 0.2, 0.1])
        second = np.array([0.2, 0.5, 0.3, 0.4, 0.2])
        for values in (first, second, first):
            out = kernel._tanh(values)
            assert out.tolist() == [math.tanh(v) for v in values.tolist()]
        # The second call overflowed the limit and refilled all its keys;
        # the third refilled its own after clearing again.
        assert sorted(kernel._tanh_memo) == [0.1, 0.2, 0.3]


class TestFallback:
    """LUTs the kernel cannot compile are refused; nothing falls back."""

    def _doctored_luts(self, stage_luts):
        """Break one corner's detail grid so plane compilation fails."""
        name = sorted(stage_luts)[-1]
        lut = stage_luts[name]
        key = next(iter(lut.detail))
        table = lut.detail[key]
        shifted = NLDMTable(
            tuple(s + 1.0 for s in table.slew_axis),
            table.load_axis,
            table.values,
        )
        detail = dict(lut.detail)
        detail[key] = shifted
        doctored = dict(stage_luts)
        doctored[name] = dataclasses.replace(lut, detail=detail)
        return doctored

    def test_kernel_rejects_inconsistent_grids(
        self, mini_design, stage_luts
    ):
        with pytest.raises(ECOKernelUnsupported):
            ECOCandidateKernel(
                mini_design.library,
                self._doctored_luts(stage_luts),
                ECOConfig(),
            )

    def test_eco_rejects_uncompilable_luts(self, mini_design, stage_luts):
        """No scalar fallback: the ECO refuses LUTs it cannot compile."""
        with pytest.raises(ECOKernelUnsupported, match="do not share one grid"):
            LPGuidedECO(
                mini_design.library,
                self._doctored_luts(stage_luts),
                mini_design.legalizer,
            )
