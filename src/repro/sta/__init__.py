"""Static timing analysis substrate.

Implements the "golden timer" role that Synopsys PrimeTime plays in the
paper: per-corner clock-tree latency analysis with Liberty-table gate
delays, distributed-RC wire delays (Elmore and D2M metrics) and PERI slew
propagation — plus the skew / skew-variation arithmetic of the paper's
Equations (1)-(3).

:mod:`repro.sta.incremental` provides the :class:`IncrementalTimer`, a
golden-identical engine with compiled-array state and dirty-frontier
re-propagation that serves high-volume move-trial evaluation.
"""
