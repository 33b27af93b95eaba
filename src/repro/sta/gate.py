"""Gate (inverter-pair) delay evaluation against Liberty-style tables.

A clock-tree "buffer" in this library is an inverter pair: two identical
inverters in series, the first loaded only by the second's input pin (they
are co-located), the second loaded by the net.  The pair is non-inverting,
so the whole tree runs on a single clock phase.

This scalar evaluator is the *reference semantics* for the batched array
kernel (:mod:`repro.sta.kernel`): the kernel replicates the quantize →
lookup → correction sequence operation-for-operation (``np.rint`` on the
same quanta, the same four-corner bilinear blend, ``math``-backed
transcendentals) so both paths produce bit-identical delays.  Any
change here must be mirrored there or the kernel differential suite
(`tests/test_kernel.py`) will fail.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Tuple

import numpy as np

from repro.tech.cells import InverterCell

#: Input quantization of gate evaluations.  NLDM interpolation is smooth,
#: so snapping slew/load to a fine grid changes delays by far less than
#: table accuracy (≤ ~0.01 ps here, vs 0.5+ ps test tolerances) while
#: making gate evaluations *repeatable*: slew cascades terminate once the
#: propagated change falls under half a quantum, and memo keys built from
#: quantized inputs actually recur.  Both timing engines quantize with
#: the same helper, so golden and incremental stay bit-identical.
GATE_SLEW_QUANTUM_PS = 0.01
GATE_LOAD_QUANTUM_FF = 0.01


def quantize_gate_inputs(
    input_slew_ps: float, net_load_ff: float
) -> Tuple[float, float]:
    """Snap a gate evaluation's (slew, load) inputs to the shared grid."""
    return (
        round(input_slew_ps / GATE_SLEW_QUANTUM_PS) * GATE_SLEW_QUANTUM_PS,
        round(net_load_ff / GATE_LOAD_QUANTUM_FF) * GATE_LOAD_QUANTUM_FF,
    )


def quantize_gate_arrays(slew_ps, load_ff) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`quantize_gate_inputs` elementwise (``np.rint`` rounds half
    to even, like ``round``), for the array kernels."""
    return (
        np.rint(slew_ps / GATE_SLEW_QUANTUM_PS) * GATE_SLEW_QUANTUM_PS,
        np.rint(load_ff / GATE_LOAD_QUANTUM_FF) * GATE_LOAD_QUANTUM_FF,
    )


@dataclass(frozen=True)
class PairTiming:
    """Delay decomposition of one inverter pair evaluation."""

    first_delay_ps: float
    second_delay_ps: float
    output_slew_ps: float

    @property
    def delay_ps(self) -> float:
        """Total pair propagation delay."""
        return self.first_delay_ps + self.second_delay_ps


def inverter_pair_timing(
    cell: InverterCell, input_slew_ps: float, net_load_ff: float
) -> PairTiming:
    """Evaluate an inverter pair of ``cell``'s size driving ``net_load_ff``.

    Both inverters use the same NLDM tables; the internal node sees only
    the second inverter's pin capacitance.
    """
    if input_slew_ps < 0 or net_load_ff < 0:
        raise ValueError("negative slew or load")
    d1 = cell.delay(input_slew_ps, cell.input_cap_ff)
    s1 = cell.output_slew(input_slew_ps, cell.input_cap_ff)
    d2 = cell.delay(s1, net_load_ff)
    s2 = cell.output_slew(s1, net_load_ff)
    return PairTiming(first_delay_ps=d1, second_delay_ps=d2, output_slew_ps=s2)
