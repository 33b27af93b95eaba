"""Stage-delay LUT characterization (paper Figure 3)."""

import numpy as np
import pytest

from repro.geometry import Point
from repro.route.congestion import chain_length_factor
from repro.route.rc_net import edge_rc_tree
from repro.sta.d2m import d2m_delays
from repro.sta.elmore import elmore_delays
from repro.tech import stage_lut
from repro.tech.cells import NLDMTable
from repro.tech.stage_lut import (
    DEFAULT_WL_AXIS,
    characterize_stage_luts,
    clear_hop_cache,
    hop_wire_delay,
    hop_wire_delays,
    stage_delay,
    stage_delays,
    steady_state_stage,
)
from tests.oracles import (
    LUT_ARRAYS,
    PARITY_LIBRARIES,
    reference_hop_fill,
    reference_stage_luts,
)


def _hop_at_key(library, corner, wirelength_um, load_ff):
    """One hop timed from scratch at its quantized (length, load) key."""
    if wirelength_um <= 0.0:
        return 0.0, 0.0
    length = round(wirelength_um * 4.0) / 4.0 * chain_length_factor()
    load = round(load_ff * 20.0) / 20.0
    rc = edge_rc_tree(
        [Point(0.0, 0.0), Point(length, 0.0)], library.wire(corner), load
    )
    return d2m_delays(rc)["sink"], elmore_delays(rc)["sink"]


def assert_luts_equal(got, expected):
    """Every axis and every LUTuniform and LUTdetail value equal, bit for bit."""
    assert got.keys() == expected.keys()
    for name, lut in got.items():
        ref = expected[name]
        assert (lut.sizes, lut.wl_axis) == (ref.sizes, ref.wl_axis)
        for field in LUT_ARRAYS:
            assert np.array_equal(getattr(lut, field), getattr(ref, field)), (
                name,
                field,
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


class TestHopMemo:
    """The scalar hop lookup reads the same dense rows the kernel gathers."""

    def test_hit_returns_cached_value(self, library_cls1):
        corner = library_cls1.corners.nominal
        clear_hop_cache()
        first = hop_wire_delay(library_cls1, corner, 80.0, 4.0)
        (row,) = stage_lut._HOP_ROWS.values()
        assert row.filled.sum() == 1
        assert hop_wire_delay(library_cls1, corner, 80.0, 4.0) == first
        assert row.filled.sum() == 1
        assert all(type(v) is float for v in first)

    def test_quantized_keys_share_entries(self, library_cls1):
        corner = library_cls1.corners.nominal
        clear_hop_cache()
        first = hop_wire_delay(library_cls1, corner, 80.0, 4.0)
        # 80.1 um rounds to the same 0.25-um bucket as 80.0, and 4.01 fF
        # to the same 0.05-fF load.
        assert hop_wire_delay(library_cls1, corner, 80.1, 4.01) == first
        (row,) = stage_lut._HOP_ROWS.values()
        assert row.filled.sum() == 1

    def test_values_match_uncached_compute(self, library_cls1):
        corner = library_cls1.corners.nominal
        clear_hop_cache()
        assert hop_wire_delay(library_cls1, corner, 120.0, 6.0) == _hop_at_key(
            library_cls1, corner, 120.0, 6.0
        )

    @pytest.mark.parametrize("scalar_first", [True, False])
    def test_scalar_equals_gathered_across_bucket_edge(
        self, library_cls1, scalar_first
    ):
        """x.125 sits on a bucket edge (x4 = n + 0.5, rounds half to even)."""
        corner = library_cls1.corners.nominal
        lengths = [80.12499, 80.125, 80.12501, 80.375, 80.37501]
        loads = (4.0, 6.3)
        clear_hop_cache()
        if scalar_first:
            scalar = [
                [hop_wire_delay(library_cls1, corner, wl, load) for wl in lengths]
                for load in loads
            ]
        delay, elmore = hop_wire_delays(
            library_cls1, corner, np.asarray(lengths), loads
        )
        if not scalar_first:
            scalar = [
                [hop_wire_delay(library_cls1, corner, wl, load) for wl in lengths]
                for load in loads
            ]
        gathered = [list(zip(d, e)) for d, e in zip(delay.tolist(), elmore.tolist())]
        assert gathered == scalar
        # Three buckets per load: 320 (both sides of 80.125), 321, 322.
        assert sum(int(row.filled.sum()) for row in stage_lut._HOP_ROWS.values()) == 6

    def test_scalar_equals_gathered_under_a_quarter_bucket(self, library_cls1):
        """Bucket 0 is the zero-length RC net, not the zero-length short cut."""
        corner = library_cls1.corners.nominal
        clear_hop_cache()
        scalar = [hop_wire_delay(library_cls1, corner, wl, 4.0) for wl in (0.05, 0.125)]
        assert scalar[0] == scalar[1] == _hop_at_key(library_cls1, corner, 0.05, 4.0)
        (row,) = stage_lut._HOP_ROWS.values()
        assert row.filled.tolist().index(True) == 0 and row.filled.sum() == 1
        clear_hop_cache()
        delay, elmore = hop_wire_delays(
            library_cls1, corner, np.asarray([0.05, 0.125]), (4.0,)
        )
        assert list(zip(delay[0].tolist(), elmore[0].tolist())) == scalar

    def test_zero_length_short_cut(self, library_cls1):
        corner = library_cls1.corners.nominal
        clear_hop_cache()
        assert hop_wire_delay(library_cls1, corner, 0.0, 4.0) == (0.0, 0.0)
        assert hop_wire_delay(library_cls1, corner, -3.0, 4.0) == (0.0, 0.0)
        assert not stage_lut._HOP_ROWS
        delay, elmore = hop_wire_delays(
            library_cls1, corner, np.asarray([0.0]), (4.0,)
        )
        assert delay.tolist() == [[0.0]] and elmore.tolist() == [[0.0]]


class TestStraightWireFill:
    """A row's one-pass fill equals the RC tree per bucket, bit for bit."""

    #: Buckets 0-4000 at stride 7, plus 1-3: bucket 0 (the zero-length
    #: net), one-piece lanes, exact 20-um multiples and up to 45 pieces.
    BUCKETS = sorted(set(range(0, 4001, 7)) | {1, 2, 3})

    @staticmethod
    def _rows(library, corner, load_ff, buckets):
        """One row filled in one call and its oracle twin, both grown."""
        batched = stage_lut._HopRow(library, corner, load_ff)
        oracle = stage_lut._HopRow(library, corner, load_ff)
        for row in (batched, oracle):
            row.grow(max(buckets) + 1)
        batched.fill(buckets)
        reference_hop_fill(oracle, buckets)
        return batched, oracle

    @pytest.mark.parametrize("name", ["MINI", "CLS1v1"])
    def test_fill_equals_rc_tree_oracle(self, name):
        library = PARITY_LIBRARIES[name]()
        loads = sorted(
            {0.0, 0.9, 80.0} | {library.input_cap_ff(s) for s in library.sizes}
        )
        lengths = np.asarray(self.BUCKETS) / 4.0 * chain_length_factor()
        assert int(np.ceil(lengths.max() / 20.0)) >= 45
        timed = set()
        for corner in library.corners:
            wire = library.wire(corner)
            # Corners with equal wire RC fill equal rows; time each once.
            if (wire.res_per_um, wire.cap_per_um) in timed:
                continue
            timed.add((wire.res_per_um, wire.cap_per_um))
            for load in loads:
                batched, oracle = self._rows(library, corner, load, self.BUCKETS)
                assert batched.delay.tolist() == oracle.delay.tolist(), (corner, load)
                assert batched.elmore.tolist() == oracle.elmore.tolist(), (corner, load)
                assert batched.filled.tolist() == oracle.filled.tolist()
        assert timed

    def test_one_call_equals_bucket_by_bucket(self, library_cls1):
        corner = library_cls1.corners.nominal
        buckets = [0, 1, 2, 3, 79, 80, 81, 160, 1601, 4000]
        at_once, _ = self._rows(library_cls1, corner, 4.16, buckets)
        one_by_one = stage_lut._HopRow(library_cls1, corner, 4.16)
        one_by_one.grow(max(buckets) + 1)
        for bucket in buckets:
            one_by_one.fill([bucket])
        assert at_once.delay.tolist() == one_by_one.delay.tolist()
        assert at_once.elmore.tolist() == one_by_one.elmore.tolist()
        assert at_once.filled.tolist() == one_by_one.filled.tolist()

    def test_negative_load_raises(self, library_cls1):
        corner = library_cls1.corners.nominal
        clear_hop_cache()
        with pytest.raises(ValueError):
            hop_wire_delays(library_cls1, corner, np.asarray([50.0]), (-1.0,))
        with pytest.raises(ValueError):
            hop_wire_delay(library_cls1, corner, 50.0, -1.0)


class TestHopWireDelays:
    """The dense hop memo must gather exactly what the scalar memo holds."""

    @staticmethod
    def _expected(library, corner, lengths, loads):
        pairs = [
            [_hop_at_key(library, corner, length, load) for length in lengths]
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
        """Scalar and gathered hops land in the one memo; clearing empties it."""
        corner = library_cls1.corners.nominal
        clear_hop_cache()
        hop_wire_delay(library_cls1, corner, 50.0, 4.0)
        hop_wire_delays(library_cls1, corner, np.asarray([60.0]), (4.0, 5.0))
        assert len(stage_lut._HOP_ROWS) == 2
        clear_hop_cache()
        assert not stage_lut._HOP_ROWS


class TestCharacterization:
    @pytest.fixture(scope="class")
    def luts(self, stage_luts):
        return stage_luts

    def test_one_lut_per_corner(self, luts, library_cls1):
        assert set(luts) == {c.name for c in library_cls1.corners}

    def test_uniform_entries_complete(self, luts, library_cls1):
        lut = luts["c0"]
        assert (lut.sizes, lut.wl_axis) == (library_cls1.sizes, DEFAULT_WL_AXIS)
        grid = (len(library_cls1.sizes), len(DEFAULT_WL_AXIS))
        assert lut.uniform.shape == lut.uniform_slew.shape == grid
        detail = grid + (lut.slew_axis.size, lut.load_axis.size)
        assert lut.detail.shape == lut.detail_slew.shape == detail

    def test_snap_wl(self, luts):
        lut = luts["c0"]
        assert lut.snap_wl(58.0) == 60.0
        assert lut.snap_wl(500.0) == 200.0
        assert lut.snap_wl(0.0) == 10.0

    def test_uniform_delay_accessor(self, luts):
        lut = luts["c0"]
        row, col = lut.sizes.index(4), lut.wl_axis.index(60.0)
        assert lut.uniform_delay(4, 61.0) == lut.uniform[row, col]
        assert lut.steady_slew(4, 61.0) == lut.uniform_slew[row, col]

    def test_detail_interpolates_between_grid(self, luts):
        lut = luts["c0"]
        lo = lut.detail_delay(4, 60.0, 5.0, 1.0)
        hi = lut.detail_delay(4, 60.0, 150.0, 80.0)
        mid = lut.detail_delay(4, 60.0, 40.0, 10.0)
        assert lo < mid < hi
        # The accessor reads the array grid as an NLDMTable would.
        grid = lut.detail[lut.sizes.index(4), lut.wl_axis.index(60.0)]
        table = NLDMTable(
            tuple(lut.slew_axis), tuple(lut.load_axis), tuple(map(tuple, grid.tolist()))
        )
        assert mid == table.lookup(40.0, 10.0)

    def test_default_wl_axis_matches_paper(self):
        assert DEFAULT_WL_AXIS[0] == 10.0
        assert DEFAULT_WL_AXIS[-1] == 200.0
        assert DEFAULT_WL_AXIS[1] - DEFAULT_WL_AXIS[0] == 5.0
        assert len(DEFAULT_WL_AXIS) == 39


class TestBatchedCharacterization:
    """The array evaluator against the scalar loops, with exact ``==``."""

    @pytest.mark.parametrize("name", sorted(PARITY_LIBRARIES))
    def test_full_axes_equal_oracle(self, name):
        library = PARITY_LIBRARIES[name]()
        clear_hop_cache()
        expected = reference_stage_luts(library)
        clear_hop_cache()
        assert_luts_equal(characterize_stage_luts(library), expected)

    def test_iteration_cap_keeps_last_values(self, monkeypatch, library_cls1):
        """Lanes cut off by the cap still equal ``steady_state_stage``."""
        sizes = (2, 8, 32)
        axis = DEFAULT_WL_AXIS[::4]
        settled = characterize_stage_luts(library_cls1, sizes=sizes, wl_axis=axis)
        monkeypatch.setattr(stage_lut, "_MAX_FIXED_POINT_ITERS", 2)
        capped = characterize_stage_luts(library_cls1, sizes=sizes, wl_axis=axis)
        assert_luts_equal(
            capped, reference_stage_luts(library_cls1, sizes=sizes, wl_axis=axis)
        )
        # The cap bites on some lanes and not on others.
        same = np.array(
            [capped[c].uniform_slew == settled[c].uniform_slew for c in capped]
        )
        assert same.any() and not same.all()

    def test_irregular_lanes_equal_scalar(self, library_cls1):
        """Off-grid, clamped, zero and sub-bucket lanes, broadcast together."""
        rng = np.random.default_rng(3)
        wl = np.concatenate([[0.0, 0.05, 0.125, 12.5, 80.125], rng.uniform(0, 260, 15)])
        slew = rng.uniform(0.0, 220.0, wl.size)
        load = np.concatenate([[0.0, 0.3], rng.uniform(0.0, 120.0, wl.size - 2)])
        for corner in library_cls1.corners:
            for size in library_cls1.sizes:
                delay, out_slew = stage_delays(library_cls1, corner, size, wl, slew, load)
                expected = [
                    stage_delay(library_cls1, corner, size, w, s, c)
                    for w, s, c in zip(wl.tolist(), slew.tolist(), load.tolist())
                ]
                assert list(zip(delay.tolist(), out_slew.tolist())) == expected
        grid_d, grid_s = stage_delays(
            library_cls1, corner, 8, wl[:, None], 20.0, load[None, :3]
        )
        assert grid_d.shape == grid_s.shape == (wl.size, 3)
        assert grid_d[4, 2] == stage_delay(library_cls1, corner, 8, wl[4], 20.0, load[2])[0]

    @pytest.mark.parametrize(
        "slew, load", [(-1.0, 4.0), (20.0, -100.0), (20.0, -1.0)]
    )
    def test_negative_slew_or_load_raises(self, library_cls1, slew, load):
        corner = library_cls1.corners.nominal
        with pytest.raises(ValueError):
            stage_delay(library_cls1, corner, 8, 50.0, slew, load)
        with pytest.raises(ValueError):
            stage_delays(library_cls1, corner, 8, [50.0, 60.0], [20.0, slew], load)
