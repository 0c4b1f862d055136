"""On-disk tuning DB: the 6th runtime cache kind.

Built on the unified artifact store's file machinery
(:mod:`repro.store.base`): decisions live under
``$REPRO_TUNE_CACHE`` when set (historical layout) and inside the
unified root (``$REPRO_CACHE_DIR/tune/``) otherwise, written atomically
(:func:`~repro.store.base.atomic_write_bytes`), tolerant of corrupt or
stale entries (they count, get unlinked, and the caller re-probes),
with a versioned schema so a format change invalidates old entries
instead of misreading them.  Decisions stay human-readable JSON — the
one kind a user may want to inspect or hand-edit — rather than the
document store's pickles.

Layout: one JSON file per decision, ``<root>/<machine fingerprint>/
<signature>.json`` — the fingerprint directory scopes decisions to the
hardware class that probed them.  Module-level counters surface as
``Runtime.stats()["tune_cache"]``, and every disk event is mirrored
into the shared per-kind counters (:func:`repro.store.store_stats`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional

from ..store import base as store_base
from .signature import machine_fingerprint

#: Bump (in :data:`repro.store.base.SCHEMA_VERSIONS`) when the persisted
#: decision format changes; older entries are treated as stale
#: (tolerated, dropped, re-probed).
SCHEMA_VERSION = store_base.SCHEMA_VERSIONS["tune"]

#: Default LRU bound on persisted decisions per machine fingerprint.
DEFAULT_MAX_ENTRIES = 256

_stats = {
    "hits": 0,
    "misses": 0,
    "evictions": 0,
    "writes": 0,
    "corrupt": 0,
    "probes": 0,
    "probe_fallbacks": 0,
}


def tune_cache_dir() -> Path:
    override = os.environ.get("REPRO_TUNE_CACHE")
    if override:
        return Path(override)
    return store_base.cache_root() / "tune"


def tuning_disabled() -> bool:
    """``REPRO_TUNE_DISABLE=1`` turns ``backend="auto"`` into a plain
    default configuration: no probes, no disk traffic."""
    return bool(os.environ.get("REPRO_TUNE_DISABLE"))


def tune_cache_stats() -> Dict[str, Optional[int]]:
    """Counters for the tuning DB (6th runtime cache kind).

    Same canonical surface as the LRU caches (``hits`` / ``misses`` /
    ``evictions`` / ``entries`` / ``max_entries``) plus the DB-specific
    counters: ``writes``, ``corrupt`` (entries dropped as unreadable or
    stale), ``probes`` (measured candidate runs) and
    ``probe_fallbacks`` (candidates that errored mid-probe).
    """
    out: Dict[str, Optional[int]] = dict(_stats)
    try:
        d = tune_cache_dir() / machine_fingerprint()
        out["entries"] = sum(1 for _ in d.glob("*.json")) if d.is_dir() else 0
    except OSError:
        out["entries"] = 0
    out["max_entries"] = DEFAULT_MAX_ENTRIES
    return out


def reset_tune_cache() -> None:
    """Zero the counters (tests).  The on-disk DB is left alone —
    remove ``tune_cache_dir()`` to clear it."""
    for k in _stats:
        _stats[k] = 0
    c = store_base.counters("tune")
    for k in c:
        c[k] = 0


def count_probe() -> None:
    _stats["probes"] += 1
    # A probe is this kind's "expensive construction": the warm-start
    # acceptance pins builds == 0 for a replaying process.
    store_base.count_build("tune")


def count_probe_fallback() -> None:
    _stats["probe_fallbacks"] += 1


class TuneStore:
    """Persisted tuning decisions for one machine fingerprint.

    ``load``/``store`` exchange plain decision dicts; callers wrap them
    in :class:`~repro.tune.tuner.TuneDecision`.  All disk failures are
    soft: a broken cache degrades to re-probing, never to an exception
    on the execution path.
    """

    def __init__(
        self,
        root: Optional[Path] = None,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        fingerprint: Optional[str] = None,
    ) -> None:
        self.root = Path(root) if root is not None else tune_cache_dir()
        self.fingerprint = fingerprint or machine_fingerprint()
        self.dir = self.root / self.fingerprint
        self.max_entries = int(max_entries)

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.dir / f"{key}.json"

    def load(self, key: str) -> Optional[dict]:
        """The persisted decision for ``key``, or ``None``.

        Corrupt, stale-schema or mismatched-key files count as
        ``corrupt`` and are unlinked so they stop costing a parse on
        every lookup.  A hit refreshes the file's mtime (the eviction
        order below is LRU by mtime).
        """
        path = self._path(key)
        try:
            doc = json.loads(path.read_text())
        except FileNotFoundError:
            _stats["misses"] += 1
            store_base.bump("tune", "disk_misses")
            return None
        except (OSError, ValueError):
            _stats["corrupt"] += 1
            _stats["misses"] += 1
            store_base.bump("tune", "corrupt")
            store_base.bump("tune", "disk_misses")
            store_base.unlink_quiet(path)
            return None
        if (
            not isinstance(doc, dict)
            or doc.get("version") != SCHEMA_VERSION
            or doc.get("key") != key
            or not isinstance(doc.get("decision"), dict)
        ):
            _stats["corrupt"] += 1
            _stats["misses"] += 1
            store_base.bump("tune", "corrupt")
            store_base.bump("tune", "disk_misses")
            store_base.unlink_quiet(path)
            return None
        _stats["hits"] += 1
        store_base.bump("tune", "disk_hits")
        try:
            os.utime(path)
        except OSError:
            pass
        return doc["decision"]

    def store(self, key: str, decision: dict) -> None:
        """Atomically persist one decision and enforce the LRU bound.

        The temp file uses a non-``.json`` suffix so a concurrent
        ``entries()`` scan (or the eviction sweep) never sees a
        half-written entry; ``os.replace`` makes the publish atomic
        even against a concurrent writer of the same key (last writer
        wins — both wrote a valid decision for the same signature).
        """
        doc = {
            "version": SCHEMA_VERSION,
            "key": key,
            "decision": dict(decision),
        }
        data = json.dumps(doc, indent=1).encode()
        if not store_base.atomic_write_bytes(self._path(key), data):
            return  # read-only cache dir: skip persistence, keep running
        _stats["writes"] += 1
        store_base.bump("tune", "writes")
        self._evict()

    def entries(self) -> List[str]:
        if not self.dir.is_dir():
            return []
        return sorted(p.stem for p in self.dir.glob("*.json"))

    def clear(self) -> None:
        for p in list(self.dir.glob("*.json")) if self.dir.is_dir() else []:
            store_base.unlink_quiet(p)

    # ------------------------------------------------------------------
    def _evict(self) -> None:
        """Drop oldest-touched entries beyond ``max_entries``."""
        before = store_base.counters("tune")["evictions"]
        store_base.lru_sweep(self.dir, self.max_entries, "tune", ["*.json"])
        _stats["evictions"] += (
            store_base.counters("tune")["evictions"] - before
        )
