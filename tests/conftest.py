"""Fixtures shared between test modules."""

import os
import time
from pathlib import Path

import pytest

import heisharm
from heisharm.grids import QuadratureGrid

from oracles import forward_radial, gaussian_factor


@pytest.fixture(scope="session")
def gaussian_plancherel_transform():
    """forward_radial of gaussian_factor(1, 2.0, 0.2) on the plancherel-check
    grid (K = 256, 576 lambda nodes on [1e-4, 100]), computed once per
    session.  Returns (coefficients, seconds the transform took), so a test
    with a wall-clock budget can still charge the transform to it."""
    grid = QuadratureGrid(k_max=256, lambda_min=1e-4, lambda_max=100.0,
                          lambda_nodes=576)
    t0 = time.perf_counter()
    coeffs = forward_radial(gaussian_factor(1, 2.0, 0.2), grid)
    return coeffs, time.perf_counter() - t0


@pytest.fixture
def fresh_env():
    """Environment of a fresh interpreter that imports the package tree this
    test process imported: its root goes first on PYTHONPATH, so a child
    started in another directory, where a relative PYTHONPATH does not
    resolve, runs the same code."""
    root = str(Path(heisharm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env
