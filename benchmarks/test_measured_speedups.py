"""Measured wall-clock benchmarks of this library's backends.

pytest-benchmark times real solver steps per backend on scaled meshes.
The batched-NumPy (vectorized) backend standing ~an order of magnitude
above the element-at-a-time scalar backend is the live counterpart of
the paper's intrinsics-vs-scalar result (DESIGN.md S3 substitution).
"""

import numpy as np
import pytest

from repro.apps.airfoil import AirfoilSim
from repro.apps.volna import VolnaSim
from repro.core import Runtime, make_backend
from repro.mesh import make_airfoil_mesh, make_tri_mesh

#: (label, backend, scheme, options) — the measured strategy matrix.
STRATEGIES = [
    ("scalar", "sequential", "two_level", {}),
    ("codegen_stub", "codegen", "two_level", {}),
    ("openmp_colored", "openmp", "two_level", {}),
    ("simt", "simt", "two_level", {"device": "cpu"}),
    ("vectorized", "vectorized", "two_level", {}),
    ("vectorized_full_permute", "vectorized", "full_permute", {}),
    ("vectorized_block_permute", "vectorized", "block_permute", {}),
]

_timings = {}


@pytest.fixture(scope="module")
def airfoil_mesh():
    return make_airfoil_mesh(48, 24)


@pytest.fixture(scope="module")
def volna_mesh():
    return make_tri_mesh(28, 21, 100_000.0, 75_000.0)


@pytest.mark.parametrize("label,backend,scheme,options", STRATEGIES)
def test_airfoil_step(benchmark, airfoil_mesh, label, backend, scheme,
                      options):
    rt = Runtime(backend=make_backend(backend, **options),
                 scheme=scheme, block_size=256)
    sim = AirfoilSim(airfoil_mesh, runtime=rt)
    sim.step()  # warm up plan caches
    benchmark.group = "airfoil-step"
    benchmark(sim.step)
    _timings[("airfoil", label)] = benchmark.stats.stats.mean


@pytest.mark.parametrize("label,backend,scheme,options", STRATEGIES)
def test_volna_step(benchmark, volna_mesh, label, backend, scheme, options):
    rt = Runtime(backend=make_backend(backend, **options),
                 scheme=scheme, block_size=256)
    sim = VolnaSim(volna_mesh, dtype=np.float64, runtime=rt)
    sim.step()
    benchmark.group = "volna-step"
    benchmark(sim.step)
    _timings[("volna", label)] = benchmark.stats.stats.mean


@pytest.mark.parametrize("vec", [4, 8, 16, None])
def test_airfoil_vector_width(benchmark, airfoil_mesh, vec):
    """Fixed vector widths model the register faithfully; wider is faster
    in Python just as on hardware (amortized per-instruction cost)."""
    rt = Runtime(backend=make_backend("vectorized", vec=vec),
                 block_size=256)
    sim = AirfoilSim(airfoil_mesh, runtime=rt)
    sim.step()
    benchmark.group = "airfoil-vector-width"
    benchmark(sim.step)
    _timings[("airfoil-vec", vec)] = benchmark.stats.stats.mean


def test_zz_vectorization_speedup_summary(benchmark, results_dir):
    """Aggregate: the vectorized backend must decisively beat scalar."""
    if ("airfoil", "scalar") not in _timings:
        pytest.skip("run together with the per-backend benchmarks")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # keep the
    # summary inside --benchmark-only runs (fixture presence gates them)
    from repro.bench.harness import ReportTable

    t = ReportTable("Measured backend step times (this machine)")
    for (app, label), mean in sorted(_timings.items(), key=str):
        base = _timings.get((app, "scalar"))
        t.add(App=app, Backend=str(label),
              **{"ms/step": round(mean * 1e3, 3),
                 "speedup vs scalar": round(base / mean, 1) if base else ""})
    t.save("measured_speedups", results_dir)
    print("\n" + t.render())

    for app in ("airfoil", "volna"):
        scalar = _timings[(app, "scalar")]
        vec = _timings[(app, "vectorized")]
        # Python's scalar/batched gap is far larger than C's 2x.
        assert vec < scalar / 3.0, (app, scalar, vec)
    # Wider fixed vectors are faster, and unbounded is fastest.
    assert _timings[("airfoil-vec", 16)] < _timings[("airfoil-vec", 4)]
    assert _timings[("airfoil-vec", None)] <= _timings[("airfoil-vec", 16)]
