"""Shared fixtures.

Heavy objects (libraries, designs, characterized LUTs, golden timers) are
session-scoped: they are deterministic and read-only in tests, so sharing
them keeps the suite fast without coupling tests.
"""

from __future__ import annotations

import pytest

from repro.core.ml.dataset import generate_dataset
from repro.core.ml.training import train_predictor
from repro.core.objective import SkewVariationProblem
from repro.sta.timer import GoldenTimer
from repro.tech.library import default_library
from repro.tech.stage_lut import characterize_stage_luts
from repro.testcases.mini import build_mini


@pytest.fixture(scope="session")
def library():
    """Full four-corner library."""
    return default_library()


@pytest.fixture(scope="session")
def library_cls1():
    """CLS1 corner subset (c0, c1, c3)."""
    return default_library(("c0", "c1", "c3"))


@pytest.fixture(scope="session")
def timer(library_cls1):
    return GoldenTimer(library_cls1)


@pytest.fixture(scope="session")
def mini_design():
    """A small end-to-end design (balanced CTS tree + datapaths)."""
    return build_mini()


@pytest.fixture(scope="session")
def mini_problem(mini_design):
    return SkewVariationProblem.create(mini_design)


@pytest.fixture(scope="session")
def stage_luts(library_cls1):
    """Characterized stage-delay LUTs for the CLS1 corner set."""
    return characterize_stage_luts(library_cls1)


@pytest.fixture(scope="session")
def hsm_predictor(library_cls1):
    """HSM predictor trained on a small artificial-case set (CLS1 corners)."""
    samples = generate_dataset(library_cls1, n_cases=6, moves_per_case=8, seed=21)
    return train_predictor(library_cls1, samples, "hsm")
