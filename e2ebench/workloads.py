"""The benchmark's workloads: which Table-5 flow runs on which testcase.

Plain data, so ``run.py`` reads it without importing the program.

No workload depends on the benchmark's ``--seed``.  The testcases are
fixed designs (their placement seeds live in ``repro.testcases``), and
the predictor trains on ``generate_dataset``'s fixed default seed, as
``repro optimize`` does.  Feeding the seed to the training set was
tried: over seeds 1-4 the local flow's committed trajectory changed
with the predictor, flow time ranged 8.7-20.8 s and ``variation_norm``
0.46-0.73, so the end-to-end metrics measured the seed, not the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Workload:
    testcase: str
    flow: str
    #: Trains the HSM predictor during set-up.
    trains: bool
    #: Pool size of both phases; above 1 the shm pool backend is used.
    workers: int = 1
    local_iterations: int = 40
    #: ``GlobalOptConfig.max_iterations`` (``None``: its default).
    global_iterations: Optional[int] = None
    buffers_per_iteration: Optional[int] = None


WORKLOADS = {
    # Global phase alone, serial: LP, ECO and golden verification do all
    # the work while the local and ML layers stay idle.
    "global-cls1v1": Workload("CLS1v1", "global", trains=False),
    # Local phase alone from the original tree, serial, with the paper's
    # default Algorithm-2 settings (40 iterations over all buffers): the
    # ML, move and trial layers work while LP and ECO stay idle.
    "local-cls1v2": Workload("CLS1v2", "local", trains=True),
    # The full chain with two shm pool workers and the ``repro optimize``
    # local settings: the same ECO and timing code runs across processes,
    # so payload size, worker-side caches and memory per worker show.
    # One global iteration (two pooled sweep points) keeps a repetition
    # near 25 s; the default three took 42 s, more than the benchmark's
    # time budget holds beside the two serial workloads.
    "chain-cls1v2-w2": Workload(
        "CLS1v2",
        "global-local",
        trains=True,
        workers=2,
        global_iterations=1,
        local_iterations=10,
        buffers_per_iteration=24,
    ),
}
