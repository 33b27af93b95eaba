"""Unified observability layer: span tracing, run stats, worker merging.

Modules (import them directly; the package re-exports nothing):

* :mod:`repro.obs.trace` — :class:`Tracer`/:class:`Span` context
  managers emitting JSONL events; process-wide :func:`active` tracer
  (a no-op :class:`NullTracer` unless a run is traced);
* :mod:`repro.obs.metrics` — the flows' run stats: :class:`StageTimers`,
  :func:`merge_stats`, and :func:`emit_stats`, which streams a finished
  ``.stats`` dict into a trace as ``metric`` events;
* :mod:`repro.obs.merge` — worker-lane event merging, the one span-path
  function :func:`span_key_paths`, and the canonical :func:`span_tree`
  used by the CI determinism check;
* :mod:`repro.obs.schema` — trace event validation (v1);
* :mod:`repro.obs.report` — the ``repro report`` renderer, including
  ``--perf-diff`` (per-path self-time deltas between two traces);
* :mod:`repro.obs.sampler` — :class:`ResourceSampler`, a background
  thread emitting RSS/CPU/pool gauge time series into its own trace
  lane;
* :mod:`repro.obs.profile` — :class:`SpanProfiler`, opt-in cProfile
  wrapping of glob-matched spans with flamegraph/top-N sidecars;
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto) export
  and its structural check.

``repro report`` is the one command that reads a trace file.
"""
