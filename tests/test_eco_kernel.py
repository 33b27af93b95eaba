"""Differential contract of the vectorized ECO candidate kernel.

The kernel must be a pure accelerator: same chosen (size, spacing,
count) tuples, estimate agreement within 1e-9 ps (in practice
bit-identical), and byte-identical realized trees and sweep trajectories
against the scalar scan (``LPGuidedECO._scan_candidates``, mapped over
each chunk in place of the kernel's ``_search`` by
``tests.oracles.use_scalar_scan``) — serial or pooled, at any chunk size.
"""

import contextlib
import dataclasses
import json

import numpy as np
import pytest

from repro.core import eco_flow
from repro.core.eco_flow import ECOConfig, LPGuidedECO
from repro.core.framework import (
    GlobalOptConfig,
    GlobalOptimizer,
    RealizationContext,
    realize_verified_plan,
)
from repro.core.lp import GlobalSkewLP, build_model_data, sweep_upper_bound
from repro.eco.candidate_kernel import ECOCandidateKernel, ECOKernelUnsupported
from repro.netlist.serialize import tree_to_dict
from repro.obs.trace import tracing
from repro.tech.cells import NLDMTable
from repro.tech.ratio_bounds import fit_all_ratio_bounds
from tests.oracles import use_scalar_scan


def _tree_bytes(tree) -> str:
    return json.dumps(tree_to_dict(tree), sort_keys=True)


@contextlib.contextmanager
def _scanning(scalar):
    """Run ``LPGuidedECO`` on the scalar scan instead of the kernel."""
    with pytest.MonkeyPatch.context() as patch:
        if scalar:
            use_scalar_scan(patch)
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


def _picks(report):
    """Every field a pick sets, per realized arc."""
    return [
        (
            r.arc_index,
            r.size,
            r.pair_count,
            r.spacing_um,
            r.estimate_error_ps,
            r.estimates_ps,
        )
        for r in report
    ]


@pytest.fixture(scope="module")
def mini_scan(mini_design, stage_luts, mini_plan):
    """The MINI plan realized on the scalar scan (chunk-size independent)."""
    return _realize(mini_design, stage_luts, mini_plan, scalar=True)


class TestEstimateParity:
    @pytest.fixture(scope="class")
    def both(self, mini_design, stage_luts, mini_plan, mini_scan):
        return mini_scan, _realize(mini_design, stage_luts, mini_plan)

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

    def test_oracle_swap_builds_no_table(self, both):
        """The swap reaches every search, so the comparison is not vacuous."""
        (ref_eco, _, ref_rep), (ker_eco, _, _) = both
        assert ref_eco.stats["counters"]["tables_built"] == 0
        assert ker_eco.stats["counters"]["tables_built"] > 0
        assert ref_eco.stats["counters"]["arcs_chosen"] == len(ref_rep) > 0

    def test_arcs_chosen_counts_rebuilt_arcs(self, both):
        _, (ker_eco, _, ker_rep) = both
        counters = ker_eco.stats["counters"]
        assert counters["arcs_chosen"] == len(ker_rep)
        assert counters["selects"] == counters["tables_built"]


class TestChunkedSearch:
    def test_one_chunk_rekeys_and_matches_scan(
        self, monkeypatch, mini_design, stage_luts, mini_plan, mini_scan
    ):
        """All of MINI's arcs in one chunk: rebuilds move later arcs' keys.

        Those arcs are searched again under their new key, so the tree
        still equals the scalar scan's, which searches every arc on the
        tree as it stands.
        """
        solution = mini_plan[2]
        arcs = solution.nonzero_arcs()
        assert len(arcs) <= 64
        monkeypatch.setattr(eco_flow, "_ARC_CHUNK", 64)
        _, ref_tree, ref_rep = mini_scan
        with tracing() as tracer:
            ker_eco, ker_tree, ker_rep = _realize(mini_design, stage_luts, mini_plan)
        rekeyed = ker_eco.stats["counters"]["rekeyed"]
        assert rekeyed >= 1
        assert _picks(ker_rep) == _picks(ref_rep)
        assert _tree_bytes(ker_tree) == _tree_bytes(ref_tree)
        (span_attrs,) = [
            e["attrs"]
            for e in tracer.events
            if e["type"] == "span_end" and e["name"] == "eco_realize"
        ]
        assert span_attrs == {
            "arcs": len(arcs),
            "realized": len(ker_rep),
            "rekeyed": rekeyed,
        }


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
    def test_chunk_of_one_picks_equal_default_chunk(self, monkeypatch, cls1_plan):
        """Searching arc by arc and in chunks realizes the same picks."""
        design, luts, data, solution, timings = cls1_plan
        outputs = {}
        for chunk in (1, eco_flow._ARC_CHUNK):
            monkeypatch.setattr(eco_flow, "_ARC_CHUNK", chunk)
            eco = LPGuidedECO(design.library, luts, design.legalizer)
            trial = design.tree.clone()
            report = eco.realize(trial, data, solution, timings)
            outputs[chunk] = (_picks(report), _tree_bytes(trial))
        assert outputs[1][0]
        assert outputs[1] == outputs[eco_flow._ARC_CHUNK]

    @pytest.mark.slow
    def test_every_arc_table_equals_scalar_estimate(self, cls1_plan):
        """Every nonzero arc's chunk-built table rows equal ``_estimate``.

        The arcs are queried in realize-sized chunks.  A strided row
        sample, offset per arc, so that across the plan it reaches
        wire-only rows, every drive size and pair counts 1, 2 and beyond
        (the three branches of the scalar estimate).
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
        queries = [eco._query(tree, data, solution, j, timings) for j in arcs]
        chunk = eco_flow._ARC_CHUNK
        tables = []
        for first in range(0, len(queries), chunk):
            batch = kernel.table(queries[first : first + chunk])
            tables.extend(batch.arc(a) for a in range(len(batch)))
        wire_rows = 0
        sizes = set()
        counts = set()
        for position, (j, query, table) in enumerate(zip(arcs, queries, tables)):
            end_cap = query.end_cap
            prep = eco._prepare_estimate(query.ctx)
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


class TestFallback:
    """LUTs the kernel cannot compile are refused; nothing falls back."""

    def _doctored_luts(self, stage_luts):
        """Give one corner a different LUTdetail slew axis."""
        name = sorted(stage_luts)[-1]
        lut = stage_luts[name]
        doctored = dict(stage_luts)
        doctored[name] = dataclasses.replace(lut, slew_axis=lut.slew_axis + 1.0)
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

    def test_kernel_rejects_cells_off_one_nldm_grid(self, mini_design, stage_luts):
        """Start pairs time on stacked NLDM planes: one grid for every cell."""
        library = mini_design.library
        key = sorted(library.cells)[-1]
        cell = library.cells[key]
        table = cell.delay_table
        shifted = NLDMTable(
            tuple(s + 1.0 for s in table.slew_axis), table.load_axis, table.values
        )
        cells = dict(library.cells)
        cells[key] = dataclasses.replace(cell, delay_table=shifted)
        with pytest.raises(ValueError, match="one NLDM grid"):
            ECOCandidateKernel(
                dataclasses.replace(library, cells=cells), stage_luts, ECOConfig()
            )

    def test_eco_rejects_uncompilable_luts(self, mini_design, stage_luts):
        """No scalar fallback: the ECO refuses LUTs it cannot compile."""
        with pytest.raises(ECOKernelUnsupported, match="corner LUTs disagree on axes"):
            LPGuidedECO(
                mini_design.library,
                self._doctored_luts(stage_luts),
                mini_design.legalizer,
            )
