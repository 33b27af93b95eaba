"""Slew (transition time) propagation.

Two standard techniques are implemented:

* **PERI** (Kashyap, Alpert, Liu, Devgan — TAU 2002) extends a step-input
  delay/slew metric to ramp inputs: the ramp output slew is the root sum of
  squares of the input slew and the step-response output slew.
* **Wire slew degradation**: across an RC path, the step-response slew is
  approximated as ``ln(9)`` times the path's Elmore delay (the 10-90%
  transition of a single-pole response), combined with the input slew by
  PERI.
"""

from __future__ import annotations

import math

LN9 = math.log(9.0)


def peri_slew(input_slew_ps: float, step_output_slew_ps: float) -> float:
    """Ramp-input output slew per PERI: sqrt(s_in^2 + s_step^2).

    Written as ``sqrt(x*x + y*y)`` rather than ``hypot``: slews never
    approach overflow, and this exact operation sequence is what the
    batched kernel (:mod:`repro.sta.kernel`) vectorizes, so the scalar
    reference and the kernel agree bit for bit.
    """
    if input_slew_ps < 0 or step_output_slew_ps < 0:
        raise ValueError("negative slew")
    return math.sqrt(
        input_slew_ps * input_slew_ps
        + step_output_slew_ps * step_output_slew_ps
    )


def wire_step_slew(elmore_ps: float) -> float:
    """10-90% step-response slew of an RC path with Elmore delay ``elmore_ps``."""
    if elmore_ps < 0:
        raise ValueError("negative delay")
    return LN9 * elmore_ps


def wire_degraded_slew(input_slew_ps: float, wire_elmore_ps: float) -> float:
    """Slew at the far end of a wire, given driver output slew.

    Combines the wire's own step-response slew with the incoming ramp via
    PERI.  Monotonically increasing in both arguments.
    """
    return peri_slew(input_slew_ps, wire_step_slew(wire_elmore_ps))
