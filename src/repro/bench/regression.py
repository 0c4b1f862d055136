"""Bench-regression smoke: guard the warm fast paths in CI.

Compares the medians produced by ``python -m repro.bench --quick``
against a committed baseline (``bench_results/baseline_quick.json``)
and fails when any **warm fast-path entry** regresses by more than the
tolerance (default 25%).

What is compared
----------------
Raw per-step milliseconds do not transfer between machines, so the
baseline stores each fast-path entry as its *in-run speedup ratio*
(fast path vs the same run's own baseline column — batched vs chunked,
chained vs eager, generated-vec vs stub, ...).  A >25% drop in such a
ratio means the fast path itself slowed relative to everything else —
a real regression — while a uniformly slower CI runner cancels out.

Usage::

    # CI / local check (after `python -m repro.bench --quick`):
    PYTHONPATH=src python -m repro.bench.regression

    # Regenerate the committed baseline (run on a quiet machine):
    PYTHONPATH=src python -m repro.bench --quick && \
        PYTHONPATH=src python -m repro.bench.regression --update

    # Tighten against noise: repeat --quick and merge with `--update
    # --min` (keeps the lowest ratio seen per entry).

Tolerance can be overridden with ``--tolerance`` or the
``BENCH_REGRESSION_TOLERANCE`` environment variable (fraction, e.g.
``0.25``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .harness import RESULTS_DIR

#: Default committed baseline location.
BASELINE_PATH = RESULTS_DIR / "baseline_quick.json"

#: Default allowed slowdown of a warm fast-path ratio.
DEFAULT_TOLERANCE = 0.25

#: Which --quick artifacts feed the guard: (artifact name, key columns,
#: ratio metric, row filter).  The filter keeps only genuine fast-path
#: rows (scalar baselines are the denominators, not guarded entries).
SPECS: List[Tuple[str, Tuple[str, ...], str, Optional[str]]] = [
    ("BENCH_quick_batch", ("scheme",), "speedup vs chunked", None),
    ("ablation_loop_chain", ("app", "Backend"), "chained speedup",
     "scalar"),
    ("ablation_kernelc", ("app", "mesh"), "vec speedup vs stub", None),
    ("ablation_aero", ("Backend",), "speedup vs vec eager", "scalar"),
    ("ablation_native", ("app", "Backend"), "native speedup vs vec",
     "scalar"),
    ("ablation_matfree", ("operator",), "speedup vs assembled",
     "assembled"),
    ("ablation_autotune", ("app",), "auto vs best", None),
    ("ablation_cold_warm", ("app", "process"), "warm speedup", "cold"),
]

#: Absolute floor for the auto-tuner ratio (best-hand-time / auto-time):
#: independent of the committed baseline, CI fails whenever the tuned
#: configuration runs more than 10% behind the best hand pick.
AUTOTUNE_FLOOR = 0.90

#: Absolute floor for the matrix-free operator: warm matfree Picard
#: steps must beat warm assembled by at least this ratio on the native
#: backend (the matrix-free acceptance bar), baseline or not.
MATFREE_FLOOR = 1.2

#: Absolute floor for the warm-start ratio (cold process wall time /
#: warm process wall time): a warm process replaying every artifact
#: from the store must not run slower than the cold one, baseline or
#: not (deserialization beating construction is the store's point).
COLD_WARM_FLOOR = 1.0


def _load_rows(results_dir: Path, artifact: str) -> Optional[List[Dict]]:
    path = results_dir / f"{artifact}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get("rows", [])


def collect_entries(results_dir: Path) -> List[Dict]:
    """Harvest every guarded fast-path ratio from the --quick artifacts."""
    entries: List[Dict] = []
    for artifact, key_cols, metric, exclude in SPECS:
        rows = _load_rows(results_dir, artifact)
        if rows is None:
            continue
        for row in rows:
            if metric not in row:
                continue
            if exclude is not None and any(
                exclude in str(row.get(c, "")).lower() for c in key_cols
            ):
                continue
            entries.append({
                "artifact": artifact,
                "key": {c: row.get(c) for c in key_cols},
                "metric": metric,
                "value": float(row[metric]),
            })
    return entries


def _find_row(rows: List[Dict], key: Dict) -> Optional[Dict]:
    for row in rows:
        if all(row.get(c) == v for c, v in key.items()):
            return row
    return None


def check(
    baseline_path: Path, results_dir: Path, tolerance: float
) -> List[str]:
    """Return a list of failure messages (empty = pass)."""
    if not baseline_path.exists():
        return [
            f"baseline {baseline_path} missing; generate it with "
            "`python -m repro.bench --quick && python -m "
            "repro.bench.regression --update`"
        ]
    baseline = json.loads(baseline_path.read_text())
    failures: List[str] = []
    entries = baseline.get("entries", [])
    if not entries:
        # An empty baseline would wave every regression through — the
        # exact silent-pass failure mode this guard exists to prevent.
        return [
            f"baseline {baseline_path} has no entries; regenerate it with "
            "`python -m repro.bench --quick && python -m "
            "repro.bench.regression --update`"
        ]
    for entry in entries:
        artifact = entry["artifact"]
        rows = _load_rows(results_dir, artifact)
        label = f"{artifact} {entry['key']} [{entry['metric']}]"
        if rows is None:
            failures.append(f"{label}: artifact {artifact}.json missing "
                            f"under {results_dir} (did --quick run?)")
            continue
        row = _find_row(rows, entry["key"])
        if row is None or entry["metric"] not in row:
            failures.append(f"{label}: entry vanished from the artifact")
            continue
        current = float(row[entry["metric"]])
        floor = float(entry["value"]) * (1.0 - tolerance)
        if current < floor:
            failures.append(
                f"{label}: ratio {current:.3g} fell below "
                f"{floor:.3g} (baseline {entry['value']:.3g} "
                f"- {tolerance:.0%} tolerance)"
            )
    # Coverage drift: a fresh fast-path entry with no baseline key
    # would run forever unguarded.  Fail loudly so the baseline gets
    # regenerated alongside the new bench row.
    known = {
        (e["artifact"], tuple(sorted(e["key"].items())), e["metric"])
        for e in entries
    }
    for fresh in collect_entries(results_dir):
        key = (fresh["artifact"], tuple(sorted(fresh["key"].items())),
               fresh["metric"])
        if key not in known:
            failures.append(
                f"{fresh['artifact']} {fresh['key']} "
                f"[{fresh['metric']}]: fresh entry missing from the "
                f"baseline — regenerate it with --update so the new "
                f"fast path is guarded"
            )
        # The auto-tuner additionally carries an absolute acceptance
        # bar (auto within 10% of the best hand pick), not just the
        # relative no-worse-than-baseline guard.
        if (fresh["artifact"] == "ablation_autotune"
                and fresh["value"] < AUTOTUNE_FLOOR):
            failures.append(
                f"ablation_autotune {fresh['key']}: auto-tuned run is "
                f"{fresh['value']:.2f}x the best hand-picked "
                f"configuration (floor {AUTOTUNE_FLOOR})"
            )
        # The matrix-free operator carries its own absolute acceptance
        # bar: warm matfree must clear warm assembled by MATFREE_FLOOR
        # on the native backend (the auto row only needs the relative
        # baseline guard — the tuner may legitimately pick assembled
        # on machines where matfree does not pay).
        if (fresh["artifact"] == "ablation_matfree"
                and fresh["key"].get("operator") == "matfree"
                and fresh["value"] < MATFREE_FLOOR):
            failures.append(
                f"ablation_matfree: warm matrix-free steps are only "
                f"{fresh['value']:.2f}x warm assembled "
                f"(floor {MATFREE_FLOOR})"
            )
        # The warm-start ablation's absolute bar: a process replaying
        # from the artifact store must not lose to the cold build.
        if (fresh["artifact"] == "ablation_cold_warm"
                and fresh["value"] < COLD_WARM_FLOOR):
            failures.append(
                f"ablation_cold_warm: warm process ran at "
                f"{fresh['value']:.2f}x the cold one "
                f"(floor {COLD_WARM_FLOOR}) — the store is not paying"
            )
    # The warm-start ablation also embeds its counter acceptance
    # (disk_hits > 0, builds == 0, native compiles == 0) in the
    # artifact's meta — surface any failure recorded there.
    cw_path = results_dir / "ablation_cold_warm.json"
    if cw_path.exists():
        meta = json.loads(cw_path.read_text()).get("meta", {})
        for msg in meta.get("warm_acceptance_failures", []) or []:
            failures.append(f"ablation_cold_warm acceptance: {msg}")
    return failures


def update(
    baseline_path: Path, results_dir: Path, tolerance: float,
    merge_min: bool = False,
) -> int:
    entries = collect_entries(results_dir)
    if not entries:
        print(f"no --quick artifacts found under {results_dir}; run "
              "`python -m repro.bench --quick` first", file=sys.stderr)
        return 1
    if merge_min and baseline_path.exists():
        # Conservative baseline: keep the *lowest* ratio seen across
        # several --quick runs, so one lucky run cannot set a floor a
        # noisier CI machine then trips over.
        previous = {
            (e["artifact"], tuple(sorted(e["key"].items())), e["metric"]):
                float(e["value"])
            for e in json.loads(baseline_path.read_text()).get("entries", [])
        }
        for e in entries:
            key = (e["artifact"], tuple(sorted(e["key"].items())),
                   e["metric"])
            if key in previous:
                e["value"] = min(e["value"], previous[key])
    baseline_path.parent.mkdir(parents=True, exist_ok=True)
    baseline_path.write_text(json.dumps({
        "description": (
            "Committed warm fast-path ratios from `python -m repro.bench "
            "--quick`; checked in CI by `python -m repro.bench.regression` "
            "(>tolerance drop fails)."
        ),
        "regen": (
            "PYTHONPATH=src python -m repro.bench --quick && "
            "PYTHONPATH=src python -m repro.bench.regression --update"
        ),
        "tolerance": tolerance,
        "entries": entries,
    }, indent=2) + "\n")
    print(f"baseline updated: {baseline_path} ({len(entries)} entries)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.regression",
        description="Compare --quick bench medians against the committed "
                    "baseline; fail on fast-path regressions.",
    )
    parser.add_argument("--baseline", default=str(BASELINE_PATH))
    parser.add_argument("--results", default=str(RESULTS_DIR))
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_REGRESSION_TOLERANCE",
                                     DEFAULT_TOLERANCE)),
        help="allowed fractional slowdown (default 0.25)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline from the current bench_results",
    )
    parser.add_argument(
        "--min", action="store_true", dest="merge_min",
        help="with --update: keep the lower of the old and new ratio "
             "per entry (conservative baseline across repeated runs)",
    )
    args = parser.parse_args(argv)
    baseline_path = Path(args.baseline)
    results_dir = Path(args.results)
    if args.update:
        return update(baseline_path, results_dir, args.tolerance,
                      merge_min=args.merge_min)
    failures = check(baseline_path, results_dir, args.tolerance)
    if failures:
        print("bench regression check FAILED:")
        for msg in failures:
            print(f"  - {msg}")
        return 1
    n = len(json.loads(baseline_path.read_text())["entries"])
    print(f"bench regression check passed ({n} warm fast-path entries "
          f"within {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
