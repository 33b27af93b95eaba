"""Stage-delay LUT characterization (paper Figure 3)."""

import numpy as np
import pytest

from repro.tech import stage_lut
from repro.tech.stage_lut import (
    DEFAULT_WL_AXIS,
    HopDelayCache,
    characterize_stage_luts,
    clear_hop_cache,
    hop_wire_delay,
    hop_wire_delays,
    stage_delay,
    steady_state_stage,
)


class TestStageDelay:
    def test_positive_and_finite(self, library_cls1):
        corner = library_cls1.corners.nominal
        delay, slew = stage_delay(library_cls1, corner, 8, 50.0, 20.0, 4.0)
        assert 0.0 < delay < 1000.0
        assert 0.0 < slew < 1000.0

    def test_monotone_in_wirelength(self, library_cls1):
        corner = library_cls1.corners.nominal
        short, _ = stage_delay(library_cls1, corner, 8, 20.0, 20.0, 4.0)
        long, _ = stage_delay(library_cls1, corner, 8, 180.0, 20.0, 4.0)
        assert long > short

    def test_corner_ordering(self, library_cls1):
        by_name = {c.name: c for c in library_cls1.corners}
        delays = {
            name: stage_delay(library_cls1, by_name[name], 8, 80.0, 20.0, 4.0)[0]
            for name in ("c0", "c1", "c3")
        }
        assert delays["c1"] > delays["c0"] > delays["c3"]

    def test_bigger_cell_faster_on_long_wire(self, library_cls1):
        corner = library_cls1.corners.nominal
        small, _ = stage_delay(library_cls1, corner, 2, 150.0, 20.0, 4.0)
        big, _ = stage_delay(library_cls1, corner, 32, 150.0, 20.0, 4.0)
        assert big < small


class TestSteadyState:
    def test_fixed_point_is_self_consistent(self, library_cls1):
        corner = library_cls1.corners.nominal
        delay, slew = steady_state_stage(library_cls1, corner, 8, 60.0)
        fanout = library_cls1.cell(8, corner).input_cap_ff
        again, slew2 = stage_delay(library_cls1, corner, 8, 60.0, slew, fanout)
        assert slew2 == pytest.approx(slew, abs=0.1)
        assert again == pytest.approx(delay, rel=0.01)


class TestHopWireDelay:
    def test_zero_length(self, library_cls1):
        d, e = hop_wire_delay(library_cls1, library_cls1.corners.nominal, 0.0, 5.0)
        assert d == 0.0 and e == 0.0

    def test_d2m_below_elmore(self, library_cls1):
        d, e = hop_wire_delay(
            library_cls1, library_cls1.corners.nominal, 150.0, 2.0
        )
        assert 0.0 < d <= e


class TestHopDelayCache:
    def test_hit_returns_cached_value(self, library_cls1):
        corner = library_cls1.corners.nominal
        cache = HopDelayCache(max_entries=4)
        first = cache.metrics(library_cls1, corner, 80.0, 4.0)
        again = cache.metrics(library_cls1, corner, 80.0, 4.0)
        assert again == first
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.evictions == 0

    def test_quantized_keys_share_entries(self, library_cls1):
        corner = library_cls1.corners.nominal
        cache = HopDelayCache(max_entries=4)
        cache.metrics(library_cls1, corner, 80.0, 4.0)
        # 80.1 um rounds to the same 0.25-um bucket as 80.0.
        cache.metrics(library_cls1, corner, 80.1, 4.0)
        assert cache.hits == 1

    def test_eviction_is_bounded_and_counted(self, library_cls1):
        """Overfilling drops the oldest half instead of growing forever."""
        corner = library_cls1.corners.nominal
        cache = HopDelayCache(max_entries=4)
        for wl in (10.0, 20.0, 30.0, 40.0, 50.0):
            cache.metrics(library_cls1, corner, wl, 4.0)
        assert len(cache) <= 4
        assert cache.evictions == 2
        # The oldest entries (10, 20) were dropped; recent ones survive.
        cache.metrics(library_cls1, corner, 50.0, 4.0)
        assert cache.hits == 1
        cache.metrics(library_cls1, corner, 10.0, 4.0)
        assert cache.misses == 6

    def test_hit_refreshes_lru_position(self, library_cls1):
        corner = library_cls1.corners.nominal
        cache = HopDelayCache(max_entries=4)
        for wl in (10.0, 20.0, 30.0, 40.0):
            cache.metrics(library_cls1, corner, wl, 4.0)
        # Touch the oldest entry, then overflow: it must survive the purge.
        cache.metrics(library_cls1, corner, 10.0, 4.0)
        cache.metrics(library_cls1, corner, 50.0, 4.0)
        cache.metrics(library_cls1, corner, 10.0, 4.0)
        assert cache.hits == 2

    def test_values_match_uncached_compute(self, library_cls1):
        corner = library_cls1.corners.nominal
        cache = HopDelayCache(max_entries=4)
        assert cache.metrics(library_cls1, corner, 120.0, 6.0) == hop_wire_delay(
            library_cls1, corner, 120.0, 6.0
        )

    def test_rejects_degenerate_capacity(self):
        with pytest.raises(ValueError):
            HopDelayCache(max_entries=1)


class TestHopWireDelays:
    """The dense hop memo must gather exactly what the scalar memo holds."""

    @staticmethod
    def _expected(library, corner, lengths, loads):
        fresh = HopDelayCache()
        pairs = [
            [fresh.metrics(library, corner, length, load) for length in lengths]
            for load in loads
        ]
        return (
            [[d for d, _ in row] for row in pairs],
            [[e for _, e in row] for row in pairs],
        )

    def test_half_quantum_lengths_round_half_even(self, library_cls1):
        corner = library_cls1.corners.nominal
        # x.125 and x.375 sit exactly on a bucket boundary (x4 = n + 0.5);
        # each comes after both neighbouring bucket centres, so a boundary
        # length put in the wrong bucket reads its neighbour's value.
        lengths = [80.0, 80.25, 80.5, 80.125, 80.375, 81.0, 81.125, 40.1]
        loads = (4.0, 6.3)
        clear_hop_cache()
        delay, elmore = hop_wire_delays(
            library_cls1, corner, np.asarray(lengths), loads
        )
        assert (delay.tolist(), elmore.tolist()) == self._expected(
            library_cls1, corner, lengths, loads
        )

    def test_lengths_under_a_quarter_bucket(self, library_cls1):
        """Bucket 0 holds the zero-length RC net, not the 0.0 short cut."""
        corner = library_cls1.corners.nominal
        lengths = [0.05, 0.1, 0.125]
        clear_hop_cache()
        delay, elmore = hop_wire_delays(
            library_cls1, corner, np.asarray(lengths), (4.0,)
        )
        assert (delay.tolist(), elmore.tolist()) == self._expected(
            library_cls1, corner, lengths, (4.0,)
        )
        # A zero length still short-circuits like the scalar call.
        delay, elmore = hop_wire_delays(
            library_cls1, corner, np.asarray([0.0, 0.1]), (4.0,)
        )
        expected_d, expected_e = self._expected(library_cls1, corner, [0.1], (4.0,))
        assert delay.tolist() == [[0.0, expected_d[0][0]]]
        assert elmore.tolist() == [[0.0, expected_e[0][0]]]

    def test_correct_after_growing(self, library_cls1):
        corner = library_cls1.corners.nominal
        clear_hop_cache()
        short = [10.0, 12.5]
        hop_wire_delays(library_cls1, corner, np.asarray(short), (4.0,))
        (row,) = stage_lut._HOP_ROWS.values()
        capacity = row.delay.size
        far = float(capacity)  # bucket 4 * capacity: past the current end
        lengths = short + [far, far + 0.3]
        delay, elmore = hop_wire_delays(
            library_cls1, corner, np.asarray(lengths), (4.0,)
        )
        (row,) = stage_lut._HOP_ROWS.values()
        assert row.delay.size > 4 * capacity
        assert (delay.tolist(), elmore.tolist()) == self._expected(
            library_cls1, corner, lengths, (4.0,)
        )

    def test_clear_hop_cache_empties_both_memos(self, library_cls1):
        corner = library_cls1.corners.nominal
        hop_wire_delays(library_cls1, corner, np.asarray([50.0]), (4.0,))
        assert stage_lut._HOP_ROWS and len(stage_lut._HOP_CACHE) > 0
        clear_hop_cache()
        assert not stage_lut._HOP_ROWS
        assert len(stage_lut._HOP_CACHE) == 0


class TestCharacterization:
    @pytest.fixture(scope="class")
    def luts(self, library_cls1):
        # Small sweep to keep the test fast; full axis is bench territory.
        return characterize_stage_luts(
            library_cls1, sizes=(4, 16), wl_axis=(10.0, 60.0, 120.0)
        )

    def test_one_lut_per_corner(self, luts, library_cls1):
        assert set(luts) == {c.name for c in library_cls1.corners}

    def test_uniform_entries_complete(self, luts):
        lut = luts["c0"]
        assert set(lut.uniform) == {
            (s, w) for s in (4, 16) for w in (10.0, 60.0, 120.0)
        }

    def test_snap_wl(self, luts):
        lut = luts["c0"]
        assert lut.snap_wl(58.0) == 60.0
        assert lut.snap_wl(500.0) == 120.0
        assert lut.snap_wl(0.0) == 10.0

    def test_uniform_delay_accessor(self, luts):
        lut = luts["c0"]
        assert lut.uniform_delay(4, 61.0) == lut.uniform[(4, 60.0)]

    def test_detail_interpolates_between_grid(self, luts):
        lut = luts["c0"]
        lo = lut.detail_delay(4, 60.0, 5.0, 1.0)
        hi = lut.detail_delay(4, 60.0, 150.0, 80.0)
        mid = lut.detail_delay(4, 60.0, 40.0, 10.0)
        assert lo < mid < hi

    def test_default_wl_axis_matches_paper(self):
        assert DEFAULT_WL_AXIS[0] == 10.0
        assert DEFAULT_WL_AXIS[-1] == 200.0
        assert DEFAULT_WL_AXIS[1] - DEFAULT_WL_AXIS[0] == 5.0
        assert len(DEFAULT_WL_AXIS) == 39
