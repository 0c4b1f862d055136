"""Shared fixtures: small meshes, kernel sets, runtime configurations.

The backend matrix and runtime factory live in :mod:`repro.testing` (a
proper package module, immune to the ``conftest``-name collision with
``benchmarks/conftest.py``); they are re-exported here for convenience.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest

from repro import store
from repro.mesh import make_airfoil_mesh, make_tri_mesh
from repro.testing import BACKEND_MATRIX, LAYOUT_MATRIX, runtime_for

__all__ = ["BACKEND_MATRIX", "LAYOUT_MATRIX", "runtime_for"]

# Isolate the persistent artifact store (repro.store): a test run must
# never read another process's ~/.cache/repro_artifacts — warm disk
# hits would make tests order- and history-dependent.  Set only when
# the caller did not: CI's corrupt-cache smoke step deliberately points
# the suite at a pre-corrupted store via REPRO_CACHE_DIR.
if "REPRO_CACHE_DIR" not in os.environ:
    os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="repro-store-")


@pytest.fixture(scope="session")
def airfoil_mesh_small():
    return make_airfoil_mesh(16, 8)


@pytest.fixture(scope="session")
def tri_mesh_small():
    return make_tri_mesh(10, 8)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def fresh_store(tmp_path, monkeypatch):
    """An isolated, enabled artifact store with zeroed counters."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    monkeypatch.delenv("REPRO_STORE_DISABLE", raising=False)
    store.reset_store_stats()
    yield tmp_path / "store"
    store.reset_store_stats()
