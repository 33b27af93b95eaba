"""The clock cell library: inverter sizes x corners, flop sink model.

A :class:`Library` is the single technology object threaded through CTS,
STA, ECO and the optimizers.  It provides:

* the corner set in use,
* one :class:`~repro.tech.cells.InverterCell` per (size, corner),
* a :class:`~repro.tech.wire.WireModel` per corner,
* sink (flip-flop clock pin) capacitance and the source driver model,
* :attr:`Library.nldm`, its NLDM tables stacked once for the array
  kernels (:class:`~repro.tech.cells.NLDMStack`).

The paper's lookup tables use five inverter sizes; we use X2..X32.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Sequence, Tuple

from repro.tech.cells import InverterCell, NLDMStack, characterize_inverter
from repro.tech.corners import Corner, CornerSet, default_corners
from repro.tech.derating import DerateModel
from repro.tech.wire import WireModel

#: Drive strengths available for clock inverters (five sizes, as in the paper).
DEFAULT_SIZES: Tuple[int, ...] = (2, 4, 8, 16, 32)


@dataclass(frozen=True)
class Library:
    """Technology container for one corner set."""

    corners: CornerSet
    sizes: Tuple[int, ...]
    cells: Dict[Tuple[int, str], InverterCell]
    wires: Dict[str, WireModel]
    derate: DerateModel
    sink_cap_ff: float
    source_drive_size: int
    source_slew_ps: float

    def cell(self, size: int, corner: Corner) -> InverterCell:
        """The inverter cell of drive ``size`` characterized at ``corner``."""
        try:
            return self.cells[(size, corner.name)]
        except KeyError:
            raise KeyError(
                f"no INVX{size} at corner {corner.name}; sizes={self.sizes}"
            ) from None

    @cached_property
    def nldm(self) -> NLDMStack:
        """The library's NLDM tables stacked once (built on first use).

        Raises :class:`ValueError` naming the reason when the tables
        cannot be stacked.
        """
        return NLDMStack(self)

    def wire(self, corner: Corner) -> WireModel:
        """The wire model at ``corner``."""
        return self.wires[corner.name]

    def input_cap_ff(self, size: int) -> float:
        """Corner-invariant input capacitance of an INVX``size``."""
        return self.cell(size, self.corners.nominal).input_cap_ff

    def cell_area_um2(self, size: int) -> float:
        """Corner-invariant area of an INVX``size``."""
        return self.cell(size, self.corners.nominal).area_um2

    @cached_property
    def _size_pos(self) -> Dict[int, int]:
        """The step table: each size's index in the ordered size list."""
        return {size: i for i, size in enumerate(self.sizes)}

    def size_index(self, size: int) -> int:
        """Index of ``size`` in the ordered size list.

        Raises :class:`ValueError` for a size outside the library.
        """
        try:
            return self._size_pos[size]
        except KeyError:
            raise ValueError(f"INVX{size} is not in the library; sizes={self.sizes}") from None

    def step_size(self, size: int, steps: int) -> int:
        """Size reached from ``size`` after ``steps`` one-step up/down moves.

        Clamps at the smallest / largest available drive, mirroring how ECO
        sizing in a commercial flow saturates at the library boundary.
        """
        idx = self.size_index(size) + steps
        idx = min(max(idx, 0), len(self.sizes) - 1)
        return self.sizes[idx]

    def gate_factor(self, corner: Corner) -> float:
        """Gate-delay derate of ``corner`` relative to the nominal corner."""
        return self.derate.gate_factor(corner)


def default_library(
    corner_names: Sequence[str] = ("c0", "c1", "c2", "c3"),
    sizes: Sequence[int] = DEFAULT_SIZES,
    sink_cap_ff: float = 0.9,
    source_drive_size: int = 32,
    source_slew_ps: float = 25.0,
) -> Library:
    """Build the default synthetic 28nm-like library.

    Cells are characterized once per (size, corner); the derate model's
    reference is the nominal corner so nominal-cell tables carry factor 1.0.
    """
    corners = default_corners(corner_names)
    derate = DerateModel(reference=corners.nominal)
    cells: Dict[Tuple[int, str], InverterCell] = {}
    for corner in corners:
        factor = derate.gate_factor(corner)
        for size in sizes:
            cells[(size, corner.name)] = characterize_inverter(size, factor)
    wires = {c.name: WireModel.for_corner(c, derate) for c in corners}
    return Library(
        corners=corners,
        sizes=tuple(sizes),
        cells=cells,
        wires=wires,
        derate=derate,
        sink_cap_ff=sink_cap_ff,
        source_drive_size=source_drive_size,
        source_slew_ps=source_slew_ps,
    )
