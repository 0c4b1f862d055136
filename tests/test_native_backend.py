"""The native backend's degradation ladder and on-disk compile cache.

The chain-level native JIT must never be load-bearing for correctness:

* no C compiler (``REPRO_NATIVE_DISABLE_CC=1``, the CI fallback job)
  -> the backend runs the pure vectorized path, bitwise identical;
* a compiler but an un-nativizable loop -> per-chain scalar ascending
  fallback, still bitwise identical, counted in ``fallbacks``;
* a warm on-disk cache -> a *second process* replays the compiled .so
  without ever invoking the compiler (``disk_hits`` > 0, 0 compiles).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    INC,
    READ,
    Dat,
    Runtime,
    Set,
    arg_dat,
    kernel,
    make_backend,
    par_loop,
)
from repro.core.access import IDX_ID
from repro.kernelc import compiler_available, reset_native_cache

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


@kernel("nb_scale")
def nb_scale(a, b):
    b[0] += 2.0 * a[0] - 0.5 * a[1]
    b[1] += a[0] * a[1]


@kernel("nb_mixed")
def nb_mixed(a32, b):
    b[0] += a32[0] + 1.0


def _run_chained(backend_name, layout=None):
    rt = Runtime(make_backend(backend_name), layout=layout)
    s1 = Set(24, "nbset")
    rng = np.random.default_rng(7)
    a = Dat(s1, 2, rng.standard_normal((24, 2)), name="nba")
    b = Dat(s1, 2, np.zeros((24, 2)), name="nbb")
    with rt.chain():
        par_loop(nb_scale, s1,
                 arg_dat(a, IDX_ID, None, READ),
                 arg_dat(b, IDX_ID, None, INC), runtime=rt)
    return b.data.copy(), rt


class TestCompilerUnavailable:
    def test_backend_constructs_and_matches_sequential(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE_CC", "1")
        reset_native_cache()
        ref, _ = _run_chained("sequential")
        for layout in ("aos", "soa"):
            got, rt = _run_chained("native", layout=layout)
            assert np.array_equal(ref, got), layout
            s = rt.stats()["native_cache"]
            assert s["compiles"] == 0 and s["failures"] == 0

    def test_disable_env_forces_unavailable(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE_CC", "1")
        assert not compiler_available()


class TestUnsupportedLoopFallback:
    @pytest.mark.skipif(not compiler_available(),
                        reason="no C compiler in this environment")
    def test_mixed_dtype_chain_falls_back_bitwise(self):
        """float32+float64 args in one kernel are outside the native
        subset; the chain must still run (scalar ascending) and match
        sequential bitwise, with the miss counted."""
        reset_native_cache()

        def run(backend_name):
            rt = Runtime(make_backend(backend_name))
            s1 = Set(16, "mixset")
            rng = np.random.default_rng(3)
            a32 = Dat(s1, 1, rng.standard_normal((16, 1)), np.float32,
                      name="ma")
            b = Dat(s1, 1, np.zeros((16, 1)), name="mb")
            with rt.chain():
                par_loop(nb_mixed, s1,
                         arg_dat(a32, IDX_ID, None, READ),
                         arg_dat(b, IDX_ID, None, INC), runtime=rt)
            return b.data.copy(), rt

        ref, _ = run("sequential")
        got, rt = run("native")
        assert np.array_equal(ref, got)
        s = rt.stats()["native_cache"]
        assert s["fallbacks"] >= 1
        assert s["compiles"] == 0


_CACHE_SCRIPT = """
import json
import numpy as np
from repro.core import Runtime, Set, Dat, arg_dat, kernel, par_loop
from repro.core.access import IDX_ID, READ, INC
from repro.kernelc import native_cache_stats

@kernel("warm_kern")
def warm_kern(a, b):
    b[0] += 3.0 * a[0] + a[1] * a[1]
    b[1] += a[0] - a[1]

rt = Runtime("native")
s1 = Set(32, "warmset")
rng = np.random.default_rng(11)
a = Dat(s1, 2, rng.standard_normal((32, 2)), name="wa")
b = Dat(s1, 2, np.zeros((32, 2)), name="wb")
with rt.chain():
    par_loop(warm_kern, s1,
             arg_dat(a, IDX_ID, None, READ),
             arg_dat(b, IDX_ID, None, INC), runtime=rt)
print(json.dumps({"stats": native_cache_stats(),
                  "checksum": float(b.data.sum())}))
"""


class TestDiskCacheAcrossProcesses:
    @pytest.mark.skipif(not compiler_available(),
                        reason="no C compiler in this environment")
    def test_second_process_skips_the_compiler(self, tmp_path):
        script = tmp_path / "warm.py"
        script.write_text(_CACHE_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        env["REPRO_NATIVE_CACHE"] = str(tmp_path / "cache")
        env.pop("REPRO_NATIVE_DISABLE_CC", None)

        def invoke():
            proc = subprocess.run(
                [sys.executable, str(script)], env=env,
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout.strip().splitlines()[-1])

        cold = invoke()
        assert cold["stats"]["compiles"] == 1
        assert cold["stats"]["disk_hits"] == 0
        # Cold process left the artifacts behind...
        assert list((tmp_path / "cache").glob("*.so"))
        # ...so an entirely fresh process loads the .so, zero compiles.
        warm = invoke()
        assert warm["stats"]["compiles"] == 0
        assert warm["stats"]["disk_hits"] == 1
        assert warm["checksum"] == cold["checksum"]
