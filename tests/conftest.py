import os
from pathlib import Path

import numpy as np
import pytest

import cpfsim
from cpfsim.gate_d4 import pipeline
from cpfsim.modes import ModeSpace


@pytest.fixture(scope="session")
def pipe():
    """The assembled four-photon pipeline (slow to build, cached)."""
    return pipeline()


@pytest.fixture(scope="session")
def splitter_space():
    return ModeSpace(("A", "B", "P1", "P2", "C", "D", "X"), 4)


@pytest.fixture(scope="session")
def child_env():
    """Environment in which a child Python process imports the cpfsim under
    test, installed or not."""
    src = str(Path(cpfsim.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_qudit_vector(rng, d=4):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)
