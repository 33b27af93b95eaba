"""Library container: per-corner cells, wires, and sizing helpers."""

import pytest

from repro.tech.library import DEFAULT_SIZES


class TestDefaultLibrary:
    def test_five_sizes(self, library):
        assert library.sizes == DEFAULT_SIZES
        assert len(library.sizes) == 5

    def test_cells_exist_for_every_size_corner(self, library):
        for corner in library.corners:
            for size in library.sizes:
                cell = library.cell(size, corner)
                assert cell.size == size

    def test_missing_size_raises(self, library):
        with pytest.raises(KeyError):
            library.cell(7, library.corners.nominal)

    def test_corner_ordering_of_cell_delay(self, library):
        """The same cell is slower at c1 and faster at c3 than at c0."""
        by_name = {c.name: c for c in library.corners}
        d = {
            name: library.cell(8, by_name[name]).delay(20.0, 8.0)
            for name in ("c0", "c1", "c3")
        }
        assert d["c1"] > d["c0"] > d["c3"]

    def test_input_cap_corner_invariant(self, library):
        caps = {
            corner.name: library.cell(16, corner).input_cap_ff
            for corner in library.corners
        }
        assert len(set(caps.values())) == 1

    def test_step_size_up_down(self, library):
        assert library.step_size(8, +1) == 16
        assert library.step_size(8, -1) == 4

    def test_step_size_clamps_at_ends(self, library):
        assert library.step_size(2, -1) == 2
        assert library.step_size(32, +1) == 32

    def test_size_index(self, library):
        assert library.size_index(2) == 0
        assert library.size_index(32) == 4

    def test_size_index_of_unknown_size_raises(self, library):
        with pytest.raises(ValueError):
            library.size_index(3)
        with pytest.raises(ValueError):
            library.step_size(64, -1)

    def test_wire_per_corner(self, library):
        for corner in library.corners:
            wire = library.wire(corner)
            assert wire.corner == corner

    def test_gate_factor_nominal_is_one(self, library):
        assert library.gate_factor(library.corners.nominal) == pytest.approx(1.0)

    def test_sink_cap_positive(self, library):
        assert library.sink_cap_ff > 0

    def test_subset_library_corners(self, library_cls1):
        assert [c.name for c in library_cls1.corners] == ["c0", "c1", "c3"]
