"""Shared helpers for the benchmark harness.

Benches print the same rows/series the paper's tables and figures report.
Because pytest captures stdout, :func:`emit` writes through to the real
terminal *and* archives the text under ``benchmarks/results/`` so that
EXPERIMENTS.md can reference exact runs.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import numpy
import scipy

from repro.parallel.pool import effective_cpu_count

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print ``text`` to the real terminal and save it to results/<name>.txt."""
    RESULTS_DIR.mkdir(exist_ok=True)
    banner = f"\n{text}\n"
    sys.__stdout__.write(banner)
    sys.__stdout__.flush()
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", *args], cwd=RESULTS_DIR.parent, capture_output=True, text=True
    )


def machine() -> dict:
    """The checkout and machine a bench ran on, for its BENCH record.

    ``git_sha`` is the checked-out commit, suffixed ``-dirty`` when the
    library sources under ``src/`` differ from it; ``None`` outside git.
    """
    try:
        head = _git("rev-parse", "HEAD")
        sha = head.stdout.strip() if head.returncode == 0 else None
        if sha and _git("diff", "--quiet", "HEAD", "--", "../src").returncode:
            sha += "-dirty"
    except OSError:
        sha = None
    return {
        "git_sha": sha,
        "effective_cpu_count": effective_cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def write_record(name: str, record: dict) -> None:
    """Write ``record`` to results/<name>.json, stamped with :func:`machine`."""
    RESULTS_DIR.mkdir(exist_ok=True)
    stamped = {**record, "machine": machine()}
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(stamped, indent=2, default=str) + "\n"
    )


#: A leg faster than this many seconds is timed as the best of
#: :data:`FAST_LEG_REPEATS` back-to-back runs inside its round.
FAST_LEG_S = 1.0
FAST_LEG_REPEATS = 5


def best_of(leg) -> tuple:
    """``(output, seconds)`` of one leg of a paired round.

    ``leg()`` runs the leg once, set-up included, and returns
    ``(output, seconds)`` with only the measured part timed.  A leg of
    :data:`FAST_LEG_S` or more runs once.  A faster leg runs
    :data:`FAST_LEG_REPEATS` times back to back and keeps its fastest
    time: a tens-of-milliseconds leg is as long as one scheduling or
    clock-speed hiccup, which a single run would count in full.  The
    output is the first run's.
    """
    out, best = leg()
    if best < FAST_LEG_S:
        for _ in range(FAST_LEG_REPEATS - 1):
            best = min(best, leg()[1])
    return out, best


#: Iterations of :func:`reference_loop` (tens of milliseconds).
REFERENCE_LOOP = 400_000


def reference_loop() -> tuple:
    """``(None, seconds)`` of a fixed pure-Python loop: the reference leg
    of a paired round whose other leg has no reference implementation.

    The flows spend most of their time in the interpreter, so a host
    that slows them slows this loop too, and a ratio of the two legs
    follows the code rather than the host.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    return None, time.perf_counter() - t0


def median_ms(rounds: list, leg: str) -> float:
    """Median of one leg's seconds over paired ``rounds``, in ms.

    Each round is a dict of leg name -> seconds, timed back to back so
    that drift in host speed hits every leg of the round alike.
    """
    return round(1000.0 * statistics.median(r[leg] for r in rounds), 3)


def median_speedup(rounds: list, ref: str, fast: str) -> float:
    """Median over paired ``rounds`` of each round's ``ref / fast`` ratio."""
    return round(statistics.median(r[ref] / r[fast] for r in rounds), 2)
