"""NLDM tables, the library's NLDM stack and inverter characterization."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.eco_flow import ECOConfig
from repro.core.ml.pipeline import CandidatePipeline
from repro.eco.candidate_kernel import ECOCandidateKernel
from repro.sta.timer import GoldenTimer
from repro.tech.cells import (
    DEFAULT_LOAD_AXIS,
    DEFAULT_SLEW_AXIS,
    NLDMTable,
    characterize_inverter,
)


def simple_table():
    return NLDMTable(
        slew_axis=(10.0, 20.0),
        load_axis=(1.0, 3.0),
        values=((1.0, 3.0), (2.0, 4.0)),
    )


class TestNLDMTable:
    def test_exact_grid_lookup(self):
        table = simple_table()
        assert table.lookup(10.0, 1.0) == 1.0
        assert table.lookup(20.0, 3.0) == 4.0

    def test_bilinear_center(self):
        table = simple_table()
        assert table.lookup(15.0, 2.0) == pytest.approx(2.5)

    def test_clamping_outside_grid(self):
        table = simple_table()
        assert table.lookup(0.0, 0.0) == 1.0
        assert table.lookup(100.0, 100.0) == 4.0

    def test_misshapen_values_rejected(self):
        with pytest.raises(ValueError):
            NLDMTable((1.0, 2.0), (1.0,), ((1.0, 2.0),))

    def test_non_monotone_axis_rejected(self):
        with pytest.raises(ValueError):
            NLDMTable((2.0, 1.0), (1.0, 2.0), ((1.0, 2.0), (3.0, 4.0)))

    @given(
        st.floats(5.0, 200.0, allow_nan=False),
        st.floats(0.5, 200.0, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_lookup_within_table_range(self, slew, load):
        table = simple_table()
        value = table.lookup(slew, load)
        assert 1.0 - 1e-9 <= value <= 4.0 + 1e-9


class TestLookupArray:
    """The array lookup equals the scalar one bit for bit."""

    def test_inverter_table_off_grid_and_clamped(self):
        table = characterize_inverter(8, 1.07).delay_table
        rng = np.random.default_rng(5)
        slews = np.concatenate([[0.0, 5.0, 160.0, 400.0], rng.uniform(0.0, 250.0, 60)])
        loads = np.concatenate([[0.0, 1.0, 128.0, 300.0], rng.uniform(0.0, 180.0, 60)])
        got = table.lookup_array(slews, loads)
        assert got.tolist() == [
            table.lookup(s, c) for s, c in zip(slews.tolist(), loads.tolist())
        ]
        # A scalar load broadcasts against a slew vector.
        assert table.lookup_array(slews, 4.16).tolist() == [
            table.lookup(s, 4.16) for s in slews.tolist()
        ]

    def test_single_point_axes_take_the_scalar_branches(self):
        tables = [
            NLDMTable((10.0,), (1.0, 3.0), ((1.0, 3.0),)),
            NLDMTable((10.0, 20.0), (1.0,), ((1.0,), (2.0,))),
            NLDMTable((10.0,), (1.0,), ((7.0,),)),
        ]
        slews = np.array([0.0, 12.5, 17.0, 40.0])
        loads = np.array([0.0, 1.5, 2.2, 9.0])
        for table in tables:
            assert table.lookup_array(slews, loads).tolist() == [
                table.lookup(s, c) for s, c in zip(slews.tolist(), loads.tolist())
            ]


class TestCharacterizeInverter:
    @pytest.fixture(scope="class")
    def inv8(self):
        return characterize_inverter(8, gate_factor=1.0)

    def test_name_and_size(self, inv8):
        assert inv8.name == "INVX8"
        assert inv8.size == 8

    def test_delay_monotone_in_load(self, inv8):
        d_small = inv8.delay(20.0, 2.0)
        d_large = inv8.delay(20.0, 64.0)
        assert d_large > d_small

    def test_delay_monotone_in_slew(self, inv8):
        assert inv8.delay(80.0, 8.0) > inv8.delay(10.0, 8.0)

    def test_larger_cell_is_faster_at_fixed_load(self):
        small = characterize_inverter(2, 1.0)
        large = characterize_inverter(32, 1.0)
        assert large.delay(20.0, 32.0) < small.delay(20.0, 32.0)

    def test_larger_cell_costs_cap_and_area(self):
        small = characterize_inverter(2, 1.0)
        large = characterize_inverter(32, 1.0)
        assert large.input_cap_ff > small.input_cap_ff
        assert large.area_um2 > small.area_um2

    def test_gate_factor_scales_delay(self):
        nominal = characterize_inverter(8, 1.0)
        slow = characterize_inverter(8, 1.7)
        ratio = slow.delay(20.0, 8.0) / nominal.delay(20.0, 8.0)
        assert ratio == pytest.approx(1.7, rel=1e-6)

    def test_drive_resistance_positive_and_ordered(self):
        r2 = characterize_inverter(2, 1.0).drive_resistance_kohm()
        r32 = characterize_inverter(32, 1.0).drive_resistance_kohm()
        assert 0.0 < r32 < r2

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            characterize_inverter(0, 1.0)

    def test_output_slew_positive(self, inv8):
        for slew in DEFAULT_SLEW_AXIS:
            for load in DEFAULT_LOAD_AXIS:
                assert inv8.output_slew(slew, load) > 0.0


def _cells_off_one_grid(library):
    key = sorted(library.cells)[-1]
    cell = library.cells[key]
    table = cell.delay_table
    shifted = NLDMTable(
        tuple(s + 1.0 for s in table.slew_axis), table.load_axis, table.values
    )
    cells = dict(library.cells)
    cells[key] = dataclasses.replace(cell, delay_table=shifted)
    return dataclasses.replace(library, cells=cells)


def _single_point_slew_axis(library):
    def first_slew(table):
        return NLDMTable(table.slew_axis[:1], table.load_axis, table.values[:1])

    cells = {
        key: dataclasses.replace(
            cell,
            delay_table=first_slew(cell.delay_table),
            slew_table=first_slew(cell.slew_table),
        )
        for key, cell in library.cells.items()
    }
    return dataclasses.replace(library, cells=cells)


class TestNLDMStack:
    """One stack per library, shared by the timing, feature and ECO kernels."""

    @pytest.mark.parametrize(
        "doctor, reason",
        [
            (_cells_off_one_grid, "cells do not share one NLDM grid"),
            (
                lambda lib: dataclasses.replace(lib, source_drive_size=64),
                "source drive size outside the size list",
            ),
            (_single_point_slew_axis, "NLDM axes too small to stack"),
        ],
        ids=["off-grid", "source-size", "single-point-axis"],
    )
    def test_unstackable_library_raises_in_every_kernel(
        self, mini_design, stage_luts, doctor, reason
    ):
        """No scalar fallback: every kernel refuses the library, with the
        stack's reason."""
        library = doctor(mini_design.library)
        with pytest.raises(ValueError, match=reason):
            GoldenTimer(library).analyze_all_corners(mini_design.tree)
        with pytest.raises(ValueError, match=reason):
            CandidatePipeline(library)
        with pytest.raises(ValueError, match=reason):
            ECOCandidateKernel(library, stage_luts, ECOConfig())

    def test_kernels_share_the_library_stack(self, mini_design, stage_luts):
        # A fresh copy, so the timer's kernel is the one that builds it.
        library = dataclasses.replace(mini_design.library)
        assert "nldm" not in library.__dict__
        timer = GoldenTimer(library)
        timer.analyze_all_corners(mini_design.tree)
        stack = library.nldm
        assert timer._timing_kernel()._nldm is stack
        assert CandidatePipeline(library).kernel._nldm is stack
        assert ECOCandidateKernel(library, stage_luts, ECOConfig())._nldm is stack

    def test_pair_equals_scalar_lookups(self, mini_design):
        """``pair`` reads the four lookups of the scalar tables bit for bit."""
        library = mini_design.library
        stack = library.nldm
        rng = np.random.default_rng(5)
        n = 40
        corner = rng.integers(len(library.corners), size=n)
        size = rng.integers(len(library.sizes), size=n)
        slew = np.concatenate([[0.0, 400.0], rng.uniform(0.0, 250.0, n - 2)])
        load = np.concatenate([[300.0, 0.0], rng.uniform(0.0, 180.0, n - 2)])
        delay, out_slew = stack.pair(corner, size, slew, load)
        for i in range(n):
            cell = library.cell(library.sizes[size[i]], library.corners[corner[i]])
            s1 = cell.output_slew(slew[i], cell.input_cap_ff)
            d = cell.delay(slew[i], cell.input_cap_ff) + cell.delay(s1, load[i])
            assert (delay[i], out_slew[i]) == (d, cell.output_slew(s1, load[i]))
