"""NLDM tables and inverter cell characterization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
