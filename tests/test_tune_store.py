"""The on-disk tuning DB: round-trips, tolerance, cross-process reuse.

The tuning store is the 6th runtime cache kind and follows the native
compile cache's contract: atomic publishes, corrupt/stale files are
counted and dropped (never raised), a bounded LRU per machine
fingerprint, and decisions persisted by one process replayed by the
next with zero probes.
"""

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tune import SCHEMA_VERSION, TuneStore, reset_tune_cache, tune_cache_stats

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

#: Filename-safe signature keys (chain signatures are sha256 hex).
keys = st.text(alphabet="0123456789abcdef", min_size=8, max_size=24)
decisions = st.fixed_dictionaries({
    "backend": st.sampled_from(["vectorized", "native", "sequential"]),
    "layout": st.sampled_from(["aos", "soa"]),
    "chained": st.booleans(),
    "probed": st.integers(min_value=0, max_value=7),
    "probe_s": st.one_of(st.none(), st.floats(min_value=1e-6, max_value=1.0,
                                              allow_nan=False)),
})


class TestRoundTrip:
    @given(key=keys, decision=decisions)
    @settings(max_examples=25, deadline=None)
    def test_store_then_load_returns_the_decision(self, key, decision):
        with tempfile.TemporaryDirectory() as root:
            store = TuneStore(root=Path(root), fingerprint="fp")
            assert store.load(key) is None
            store.store(key, decision)
            assert store.load(key) == decision
            assert store.entries() == [key]

    @given(
        items=st.lists(st.tuples(keys, decisions), min_size=1, max_size=12,
                       unique_by=lambda t: t[0]),
        max_entries=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_lru_bound_holds_and_survivors_load_back(self, items,
                                                     max_entries):
        with tempfile.TemporaryDirectory() as root:
            store = TuneStore(root=Path(root), fingerprint="fp",
                              max_entries=max_entries)
            for i, (key, decision) in enumerate(items):
                store.store(key, decision)
                # Deterministic mtime order regardless of clock
                # resolution: eviction is LRU by mtime.
                os.utime(store._path(key), (i, i))
            survivors = store.entries()
            assert len(survivors) <= max_entries
            by_key = dict(items)
            for key in survivors:
                assert store.load(key) == by_key[key]
            # The oldest-touched keys are the evicted ones.
            expected = [k for k, _ in items[-max_entries:]]
            assert sorted(survivors) == sorted(expected)

    def test_temp_files_never_show_up_as_entries(self, tmp_path):
        store = TuneStore(root=tmp_path, fingerprint="fp")
        store.store("aaaa", {"backend": "vectorized"})
        # A stranded temp file from a crashed writer must not be
        # counted, evicted as an entry, or loaded.
        (store.dir / ".bbbb-stranded.part").write_text("{")
        assert store.entries() == ["aaaa"]


class TestCorruptTolerance:
    def test_garbage_file_counts_and_unlinks(self, tmp_path):
        reset_tune_cache()
        store = TuneStore(root=tmp_path, fingerprint="fp")
        store.store("cafe", {"backend": "vectorized"})
        store._path("cafe").write_text("{ not json")
        assert store.load("cafe") is None
        stats = tune_cache_stats()
        assert stats["corrupt"] == 1
        assert not store._path("cafe").exists()
        # The slot is reusable immediately.
        store.store("cafe", {"backend": "native"})
        assert store.load("cafe") == {"backend": "native"}

    def test_stale_schema_version_is_dropped(self, tmp_path):
        reset_tune_cache()
        store = TuneStore(root=tmp_path, fingerprint="fp")
        store._path("dead").parent.mkdir(parents=True, exist_ok=True)
        store._path("dead").write_text(json.dumps({
            "version": SCHEMA_VERSION + 1, "key": "dead",
            "decision": {"backend": "vectorized"},
        }))
        assert store.load("dead") is None
        assert tune_cache_stats()["corrupt"] == 1
        assert not store._path("dead").exists()

    def test_version_one_tiled_decision_is_reprobed(self, tmp_path,
                                                    monkeypatch):
        """A decision persisted under schema 1, which still carried the
        removed ``tiling`` axis, is stale: counted as corrupt, dropped
        and re-probed — never applied to the sim."""
        from repro.apps.airfoil import AirfoilSim
        from repro.core import Runtime
        from repro.mesh import make_airfoil_mesh
        from repro.tune.apps import sim_signature

        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "tune"))
        monkeypatch.delenv("REPRO_TUNE_DISABLE", raising=False)
        reset_tune_cache()
        assert SCHEMA_VERSION > 1
        mesh = make_airfoil_mesh(12, 6)
        plain = Runtime("vectorized")
        key = sim_signature(AirfoilSim(mesh, runtime=plain), plain)
        store = TuneStore()
        store._path(key).parent.mkdir(parents=True, exist_ok=True)
        # "sequential" is never a tuning candidate, so it can only show
        # up in the outcome if the stale decision were applied.
        store._path(key).write_text(json.dumps({
            "version": 1, "key": key,
            "decision": {"backend": "sequential", "layout": "soa",
                         "chained": True, "tiling": "auto",
                         "probed": 3, "probe_s": 1e-3},
        }))
        rt = Runtime("auto")
        sim = AirfoilSim(mesh, runtime=rt)
        stats = tune_cache_stats()
        assert stats["corrupt"] == 1
        assert stats["probes"] > 0
        d = rt.tuned_decision
        assert d.source == "probe"
        assert d.backend != "sequential"
        assert rt.backend.name != "sequential"
        assert "tiling" not in d.to_dict()
        assert not hasattr(sim, "tiling")
        # The re-probed decision replaced the stale file.
        doc = json.loads(store._path(key).read_text())
        assert doc["version"] == SCHEMA_VERSION
        assert "tiling" not in doc["decision"]

    def test_mismatched_key_is_dropped(self, tmp_path):
        store = TuneStore(root=tmp_path, fingerprint="fp")
        store.store("feed", {"backend": "vectorized"})
        # A file renamed to the wrong signature must not answer for it.
        os.replace(store._path("feed"), store._path("beef"))
        assert store.load("beef") is None
        assert not store._path("beef").exists()


class TestConcurrentWriters:
    def test_reads_never_see_a_partial_decision(self, tmp_path):
        """N writer threads hammer one key while a reader polls it:
        every successful load is a complete, valid decision (the
        ``os.replace`` publish is atomic), and no call raises."""
        store = TuneStore(root=tmp_path, fingerprint="fp")
        key = "c0ffee"
        store.store(key, {"backend": "vectorized", "writer": -1})
        stop = time.monotonic() + 0.5
        errors = []

        def writer(wid):
            i = 0
            while time.monotonic() < stop:
                try:
                    store.store(key, {"backend": "vectorized",
                                      "writer": wid, "i": i})
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                i += 1

        def reader():
            while time.monotonic() < stop:
                try:
                    doc = store.load(key)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    continue
                if doc is not None and (
                    doc.get("backend") != "vectorized"
                    or "writer" not in doc
                ):
                    errors.append(AssertionError(f"partial read: {doc}"))

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(3)] + [threading.Thread(target=reader)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        final = store.load(key)
        assert final is not None and final["backend"] == "vectorized"
        assert store.entries() == [key]


_AUTO_SCRIPT = """
import json
from repro.core import Runtime
from repro.mesh import make_airfoil_mesh
from repro.apps.airfoil import AirfoilSim
from repro.tune import tune_cache_stats

rt = Runtime("auto")
sim = AirfoilSim(make_airfoil_mesh(12, 6), runtime=rt)
sim.run(1)
d = rt.tuned_decision
print(json.dumps({"stats": tune_cache_stats(), "source": d.source,
                  "decision": d.to_dict(), "q": float(sim.q.sum())}))
"""


class TestDecisionsPersistAcrossProcesses:
    def test_second_process_replays_with_zero_probes(self, tmp_path):
        script = tmp_path / "auto.py"
        script.write_text(_AUTO_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        env["REPRO_TUNE_CACHE"] = str(tmp_path / "tune")
        env["REPRO_NATIVE_CACHE"] = str(tmp_path / "native")
        env.pop("REPRO_TUNE_DISABLE", None)

        def invoke():
            proc = subprocess.run(
                [sys.executable, str(script)], env=env,
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout.strip().splitlines()[-1])

        cold = invoke()
        assert cold["source"] == "probe"
        assert cold["stats"]["probes"] > 0
        assert cold["stats"]["writes"] == 1
        assert cold["stats"]["corrupt"] == 0
        # The decision file landed on disk...
        fdirs = list((tmp_path / "tune").iterdir())
        assert len(fdirs) == 1 and list(fdirs[0].glob("*.json"))
        # ...so an entirely fresh process replays it: zero probes.
        warm = invoke()
        assert warm["source"] == "db"
        assert warm["stats"]["probes"] == 0
        assert warm["stats"]["hits"] == 1
        assert warm["stats"]["writes"] == 0
        for axis in ("backend", "layout", "chained"):
            assert warm["decision"][axis] == cold["decision"][axis]
        # Tuning never changes numerics: both processes agree bitwise.
        assert warm["q"] == cold["q"]
