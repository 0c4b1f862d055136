"""One measuring process of a benchmark run (started by ``run.py``).

``--role measure`` builds the workload's mesh, sets the simulation up
from an empty private store (``setup_reps`` times, each with fresh
in-process caches and a fresh store), then times steps of the last
simulation for ``--seconds`` seconds and at least ``MIN_STEPS`` steps
(but no longer than ``MAX_STEP_SECONDS``).

``--role restart`` starts after the measuring process has exited and
sets the simulation up once more over the store it left, asserting that
nothing is rebuilt; ``run.py`` starts ``restart_reps`` of them, one
after another.

With ``--trace 1`` the layer entry points are wrapped (see ``spans.py``)
during set-up and during every other cycle of steps; the cycles in
between run unwrapped and give the untraced step time the tracing
overhead is measured against.  A host-speed probe (``hostspeed.py``)
runs before and after every set-up and after every step, outside the
timed parts, so the caller can refer the wall times to one host speed.
The process writes its figures and its spans as JSON and prints nothing
the caller parses.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import time
from typing import Dict, List

import numpy as np

from hostspeed import HostSpeed, local_probe
from spans import LAYERS, Tracer
from workloads import WORKLOADS

#: Fewest timed steps per run: p90 then has ten samples beyond it.
MIN_STEPS = 100
#: The step loop stops here even short of ``MIN_STEPS``, so that a run
#: fits the benchmark's time budget on a loaded host (airfoil's 100
#: steps and their probes take 32-40 s on a 2-vCPU VM at 1.0-1.3x host
#: slowdown); the result prints the count.
MAX_STEP_SECONDS = 40.0
#: Host-speed probes before and after each set-up.
SETUP_PROBES = 10
#: Store kinds whose restart must show disk hits and no builds.
CHECKED_KINDS = ("plan", "chain", "kernelc")
STORE_KINDS = ("plan", "chain", "tiled", "kernelc", "native")


def store_counters() -> Dict[str, Dict[str, int]]:
    from repro import store

    return {k: dict(store.counters(k)) for k in STORE_KINDS}


def native_compiles() -> int:
    from repro.kernelc.native import native_cache_stats

    return int(native_cache_stats()["compiles"])


def delta(after: dict, before: dict) -> Dict[str, Dict[str, int]]:
    return {k: {n: after[k][n] - before[k].get(n, 0) for n in after[k]}
            for k in after}


def reset_process_caches() -> None:
    """Drop the process-wide kernel caches so the next set-up compiles
    (or loads) everything again, as a fresh process would."""
    from repro.kernelc import clear_cache
    from repro.kernelc.native import reset_native_cache

    clear_cache()
    reset_native_cache()
    gc.collect()


# ----------------------------------------------------------------------
# Span analysis
# ----------------------------------------------------------------------
def span_totals(tracer: Tracer, roots: List[int]) -> Dict[str, float]:
    """Sums over the subtrees of ``roots``: self seconds per layer and
    per entry point (``self.*``), inclusive seconds per layer counting
    only its outermost spans and per entry point (``incl.*``), span
    counts per entry point (``n.*``) and the roots' total seconds."""
    kids = tracer.children()
    self_ns = tracer.self_ns(kids)
    out: Dict[str, float] = {f"self.{layer}": 0.0 for layer in LAYERS}
    for root in roots:
        for i in tracer.subtree(root, kids):
            name, layer, t0, t1, parent, _ = tracer.spans[i]
            out[f"self.{layer}"] += self_ns[i] / 1e9
            out[f"self.{name}"] = out.get(f"self.{name}", 0.0) + self_ns[i] / 1e9
            out[f"n.{name}"] = out.get(f"n.{name}", 0) + 1
            # Inclusive time of a layer, counted once per outermost span.
            if parent < 0 or tracer.spans[parent][1] != layer:
                out[f"incl.{layer}"] = out.get(f"incl.{layer}", 0.0) + (
                    t1 - t0) / 1e9
            out[f"incl.{name}"] = out.get(f"incl.{name}", 0.0) + (t1 - t0) / 1e9
    out["total"] = sum((tracer.spans[r][3] - tracer.spans[r][2]) / 1e9
                       for r in roots)
    return out


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def timed_setup(wl, mesh, tracer, probe, op: str, first_check: bool):
    """Constructor plus first step, timed, between ``SETUP_PROBES``
    host-speed probes before and after; returns ``(sim, record)``.

    What the checks compare against is recorded between the two timed
    parts, outside the timing.  ``first_check`` adds the workload's
    first-step check, which may be heavy (airfoil's whole-array
    reference), so the measuring process, whose memory is measured,
    leaves it to the restart process.
    """
    probe.sample(SETUP_PROBES)
    counters0 = store_counters()
    compiles0 = native_compiles()
    roots = []
    if tracer is not None:
        tracer.op = op
        tracer.install()
        roots.append(tracer.begin("app.init", "app"))
    t0 = time.perf_counter()
    sim = wl.make_sim(mesh)
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.end(roots[-1])
    wl.prepare(sim)
    if tracer is not None:
        roots.append(tracer.begin("app.step", "app"))
    t2 = time.perf_counter()
    result = sim.step()
    t3 = time.perf_counter()
    if tracer is not None:
        tracer.end(roots[-1])
        tracer.uninstall()
    probe.sample(SETUP_PROBES)
    rec = {
        "setup_s": (t1 - t0) + (t3 - t2),
        "probe_s": probe.take(),
        "store": delta(store_counters(), counters0),
        "native_compiles": native_compiles() - compiles0,
        "failures": wl.check_step(sim, result)
        + (wl.check_first(sim) if first_check else []),
    }
    if tracer is not None:
        rec["spans"] = span_totals(tracer, roots)
    return sim, rec


# ----------------------------------------------------------------------
# Computed bytes and flops
# ----------------------------------------------------------------------
def capture_cycle(wl, sim) -> list:
    """Run one untimed cycle and return every chain it flushed."""
    from repro.core.runtime import Runtime

    chains = []
    original = Runtime.__dict__["compiled_chain_for"]

    def capture(self, specs, tiling=None):
        compiled = original(self, specs, tiling)
        chains.append(compiled)
        return compiled

    Runtime.compiled_chain_for = capture
    try:
        wl.start_cycle(sim)
        for _ in range(wl.cycle):
            sim.step()
    finally:
        Runtime.compiled_chain_for = original
    return chains


def loop_useful_bytes(bl) -> int:
    """Useful bytes of one loop execution, in the convention of
    ``repro.perfmodel.transfers`` (Section 6.1 of the paper): every
    distinct element a loop touches of every Dat it accesses counts once,
    times the Dat's ``dim`` and item size, once for reading and once for
    writing.  Indirect Dats count the distinct targets of the loop's rows
    of every map they are reached through.

    ``transfers.analyze_loop`` gives the same figure but counts distinct
    targets with ``np.unique``, which takes about 5 s per airfoil run at
    720K cells; marking targets in a boolean array takes milliseconds.
    """
    n = bl.n - bl.start
    by_dat: Dict[int, list] = {}
    for a in bl.args:
        if a.is_global:
            continue
        entry = by_dat.setdefault(id(a.dat), [a.dat, False, False, []])
        entry[1] = entry[1] or a.access.reads
        entry[2] = entry[2] or a.access.writes
        if a.is_indirect and all(m is not a.map for m in entry[3]):
            entry[3].append(a.map)
    total = 0
    for dat, reads, writes, maps in by_dat.values():
        touched = n
        if maps:
            seen = np.zeros(maps[0].to_set.total_size, dtype=bool)
            for m in maps:
                seen[m.values[bl.start:bl.n]] = True
            touched = int(np.count_nonzero(seen))
        total += touched * dat.dim * dat.dtype.itemsize * (reads + writes)
    return total


def cycle_cost(wl, chains) -> dict:
    """Computed useful bytes and flops of one cycle's loops, per step,
    plus the most colours any of their plans has."""
    from repro.kernelc.flops import estimate_flops

    memo: Dict[tuple, tuple] = {}
    total_bytes = total_flops = 0.0
    colors = 1
    for compiled in chains:
        for group in compiled.groups:
            colors = max(colors, int(group.plan.n_block_colors))
        for bl in compiled.loops:
            key = (bl.kernel._uid, bl.n, bl.start,
                   tuple((id(a.dat), id(a.map), a.index, a.access.name)
                         for a in bl.args))
            if key not in memo:
                memo[key] = (loop_useful_bytes(bl),
                             estimate_flops(bl.kernel) * (bl.n - bl.start))
            b, f = memo[key]
            total_bytes += b
            total_flops += f
    return {
        "bytes_per_step": total_bytes / wl.cycle,
        "flops_per_step": total_flops / wl.cycle,
        "flushes_per_step": len(chains) / wl.cycle,
        "plan_colors": colors,
    }


def working_set_bytes(sim) -> int:
    """Bytes of every Dat and Mat the simulation's state holds, plus the
    mesh's maps and coordinates."""
    from dataclasses import fields

    from repro.core import Dat, Mat

    total = 0
    for f in fields(sim.state):
        v = getattr(sim.state, f.name)
        if isinstance(v, Dat):
            total += v.nbytes
        elif isinstance(v, Mat):
            total += v.staging.nbytes + v.values.nbytes
    mesh = sim.mesh
    total += sum(m.values.nbytes for m in mesh.maps.values())
    return total + mesh.coords.nbytes


# ----------------------------------------------------------------------
# Roles
# ----------------------------------------------------------------------
def reset_peak_rss() -> bool:
    """Restart the peak-RSS count here (Linux ``clear_refs``), so mesh
    generation's temporaries do not count as the program's memory."""
    gc.collect()
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        return False
    return True


def measure(wl, args, tracer) -> dict:
    from repro.store import cache_root

    # Probes before the mesh: their arrays then take fresh pages and
    # count in every run's peak.  Made after it, they reused the mesh's
    # freed heap in some runs only, and airfoil's peak RSS read 302 or
    # 346 MB from run to run.
    probe = HostSpeed(wl.probe)
    setup_probe = (probe if wl.setup_probe == wl.probe
                   else HostSpeed(wl.setup_probe))
    mesh = wl.build_mesh(args.seed)
    rss_reset = reset_peak_rss()
    setups = []
    sim = None
    for rep in range(wl.setup_reps):
        if sim is not None:
            del sim
            shutil.rmtree(cache_root(), ignore_errors=True)
            reset_process_caches()
        sim, rec = timed_setup(wl, mesh, tracer, setup_probe,
                               f"setup{rep}", False)
        setups.append(rec)

    chains = capture_cycle(wl, sim)

    untraced: List[float] = []
    traced: List[float] = []
    # Whether each step, in order, was traced.
    order: List[bool] = []
    roots: List[int] = []
    failures: List[str] = []
    failed_ops = 0
    rt = sim.runtime
    hits0, misses0 = rt.chain_cache_hits, rt.chain_cache_misses
    cg_iters = 0
    cycle_no = 0
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        steps = len(untraced) + len(traced)
        if elapsed >= args.seconds and steps >= MIN_STEPS:
            break
        if elapsed >= MAX_STEP_SECONDS:
            break
        use_trace = tracer is not None and cycle_no % 2 == 1
        wl.start_cycle(sim)
        for k in range(wl.cycle):
            if use_trace:
                tracer.op = f"step{steps + k}"
                tracer.install()
                roots.append(tracer.begin("app.step", "app"))
            t0 = time.perf_counter()
            result = sim.step()
            dt = time.perf_counter() - t0
            if use_trace:
                tracer.end(roots[-1])
                tracer.uninstall()
            (traced if use_trace else untraced).append(dt)
            order.append(use_trace)
            bad = wl.check_step(sim, result) + wl.check_position(sim, k)
            if bad:
                failed_ops += 1
                failures.extend(bad)
            probe.sample()
        cycle_no += 1
        cg_iters += wl.cg_iterations(sim, wl.cycle)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    steps = len(untraced) + len(traced)
    probes = probe.take()
    near = local_probe(probes)
    lookups = (rt.chain_cache_hits - hits0) + (rt.chain_cache_misses - misses0)
    out = {
        "mesh": mesh.summary(),
        "setups": setups,
        "steps_untraced_s": untraced,
        "steps_traced_s": traced,
        "probe_steps_s": probes,
        "probe_untraced_s": [p for p, tr in zip(near, order) if not tr],
        "failed_ops": failed_ops,
        "failures": failures[:20],
        "peak_rss_mb": peak_rss_mb,
        "peak_rss_reset_after_mesh": rss_reset,
        "chain_hit_ratio": (rt.chain_cache_hits - hits0) / lookups
        if lookups else 0.0,
        "chain_lookups_per_step": lookups / steps,
        "cg_iters_per_step": cg_iters / steps,
        "working_set_bytes": working_set_bytes(sim),
        **cycle_cost(wl, chains),
    }
    if tracer is not None:
        out["step_spans"] = span_totals(tracer, roots)
        out["traced_steps"] = len(roots)
    return out


def restart(wl, args, tracer) -> dict:
    from repro import store

    mesh = wl.build_mesh(args.seed)
    # Kinds the measuring process left entries of must be read back.
    expect_hits = [k for k in CHECKED_KINDS
                   if store.store_for(k).entry_count() > 0]
    from repro.kernelc.native import native_cache_dir

    expect_native = any(native_cache_dir().glob("*.so"))
    probe = HostSpeed(wl.setup_probe)
    _, rec = timed_setup(wl, mesh, tracer, probe, "restart", True)
    s = rec["store"]
    for k in CHECKED_KINDS:
        if s[k]["builds"]:
            rec["failures"].append(f"restart rebuilt {s[k]['builds']} {k}")
        if k in expect_hits and s[k]["disk_hits"] <= 0:
            rec["failures"].append(f"restart read no {k} from the store")
    if rec["native_compiles"]:
        rec["failures"].append(
            f"restart compiled {rec['native_compiles']} native chains")
    if expect_native and s["native"]["disk_hits"] <= 0:
        rec["failures"].append("restart loaded no native library")
    corrupt = sum(s[k]["corrupt"] for k in STORE_KINDS)
    if corrupt:
        rec["failures"].append(f"{corrupt} corrupt store entries")
    return rec


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--role", choices=("measure", "restart"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans-out")
    ap.add_argument("--pid", type=int, default=1,
                    help="process id shown in the Chrome trace")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    result = (measure if args.role == "measure" else restart)(wl, args, tracer)
    with open(args.out, "w") as f:
        json.dump(result, f)
    if tracer is not None and args.spans_out:
        with open(args.spans_out, "w") as f:
            json.dump(tracer.chrome_events(args.pid, args.role), f)


if __name__ == "__main__":
    main()
