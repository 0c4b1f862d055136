"""Repository benchmark: paper-scale airfoil, scrambled volna, aero CG.

Usage (from the repository root)::

    python3 perfbench/run.py --workload airfoil-720k-native --seed 1 \\
        --seconds 15 --trace 0

One run is a closed loop in one process at a time on an otherwise idle
host:

1. with ``--trace 1`` only, a STREAM-style triad probe in its own
   process (``stream.py``);
2. the measuring process (``worker.py --role measure``): mesh from the
   seed, cold set-up from an empty private store, then timed steps for
   ``--seconds`` seconds and at least 100 steps (at most 30 s);
3. the restart processes (``worker.py --role restart``), one after
   another once the measuring process has exited, each setting the
   simulation up over the store it left.

Every run gets a fresh private ``REPRO_CACHE_DIR`` (the native cache
lives inside it) under ``perfbench/out/``; the store is deleted when the
run ends, and results and traces stay in ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Every metric is also printed by name with its unit on the lines before.

End-to-end times are referred to one host speed (``hostspeed.py``): each
set-up's and each step's wall time is scaled by a fixed probe's
reference time over the median time of the probes taken around it, so
that drift of the shared host's speed cancels (airfoil's set-ups, which
outlast the host's speed states, stay wall time).  The raw wall times and
the host's slowdowns are printed before the metrics.

With ``--trace 1`` the per-layer figures come from spans recorded around
each layer's entry points (``spans.py``); per-step layer figures are
means over the traced steps, so the layers' self times add up to the
mean traced step time.  Bytes are the loops' useful bytes computed from
their argument shapes (``repro.perfmodel.transfers`` convention), not
measured.  ``Runtime.stats()["kernels"]`` is never used: on the native
backend it splits one fused call's time equally across the chain's
loops, so its per-loop times are not measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_S, scale
from spans import LAYERS, write_chrome_trace
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Each run must end within this many seconds.
RUN_LIMIT_S = 175.0

END_TO_END = {
    "step_ms_p50": "ms", "step_ms_p90": "ms", "step_gbs": "GB/s",
    "setup_s": "s", "restart_s": "s", "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

STORE_KINDS = ("plan", "chain", "kernelc", "native")


def fail(msg: str, code: int = 1) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(work: Path) -> dict:
    """Environment of the measuring processes: the checkout's sources,
    no ``REPRO_*`` overrides, a private store, temp files inside the
    run's directory, and thread pools capped at ``nproc``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(work / "store")
    env["TMPDIR"] = str(work / "tmp")
    cap = nproc()
    for var in THREAD_VARS:
        try:
            cur = int(env.get(var, ""))
        except ValueError:
            cur = cap
        env[var] = str(min(max(cur, 1), cap))
    return env


def run_child(args, env, deadline: float, log) -> None:
    what = " ".join([Path(args[0]).name, *args[1:3]])
    left = deadline - time.monotonic()
    if left <= 1:
        fail(f"out of time before starting {what}")
    proc = subprocess.Popen([sys.executable, *args], env=env, cwd=ROOT,
                            stdout=log, stderr=log)
    try:
        code = proc.wait(timeout=left)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{what} exceeded the run limit")
    if code != 0:
        fail(f"{what} exited with code {code}; see {log.name}")


def gcc_version() -> str:
    cc = shutil.which(os.environ.get("CC", "")) or shutil.which("cc") \
        or shutil.which("gcc")
    if cc is None:
        return "none"
    try:
        out = subprocess.run([cc, "--version"], capture_output=True,
                             text=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.splitlines()[0] if out else "unavailable"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, env, measured) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "mesh": measured["mesh"],
        "peak_rss_reset_after_mesh": measured["peak_rss_reset_after_mesh"],
        "threads": {v: env[v] for v in THREAD_VARS},
        "nproc": nproc(), "cpu": cpu_model(), "cc": gcc_version(),
        "numpy": numpy.__version__, "python": platform.python_version(),
    }


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def med(recs, key):
    return statistics.median(key(r) for r in recs)


def setup_scaled(kind, recs) -> float:
    """Median over set-ups of each one's wall time, referred to the
    reference host speed by the probes taken around it."""
    return med(recs, lambda r: r["setup_s"] * scale(kind, r["probe_s"]))


def end_to_end(wl, measured, restarts, steps, attempted, failed) -> dict:
    # Each step against the median of the probes around it.
    ref = REFERENCE_S[wl.probe]
    scaled = [s * ref / p
              for s, p in zip(steps, measured["probe_untraced_s"])]
    p50 = statistics.median(scaled)
    return {
        "step_ms_p50": p50 * 1e3,
        "step_ms_p90": p90(scaled) * 1e3,
        "step_gbs": measured["bytes_per_step"] / p50 / 1e9,
        "setup_s": setup_scaled(wl.setup_probe, measured["setups"]),
        "restart_s": setup_scaled(wl.setup_probe, restarts),
        "peak_rss_mb": measured["peak_rss_mb"],
        "ops_ok_frac": (attempted - failed) / attempted,
    }


def raw_figures(wl, measured, restarts, steps) -> dict:
    """Unscaled wall times and the host's slowdown against the probes'
    reference times, per phase that has probes."""
    def slowdown(times, kind=wl.setup_probe):
        return statistics.median(times) / REFERENCE_S[kind]

    out = {
        "step_ms_p50_wall": statistics.median(steps) * 1e3,
        "setup_s_wall": med(measured["setups"], lambda r: r["setup_s"]),
        "restart_s_wall": med(restarts, lambda r: r["setup_s"]),
        "slowdown_steps": slowdown(measured["probe_steps_s"], wl.probe),
    }
    if wl.setup_probe is not None:
        out["slowdown_setups"] = med(measured["setups"],
                                     lambda r: slowdown(r["probe_s"]))
        out["slowdown_restarts"] = med(restarts,
                                       lambda r: slowdown(r["probe_s"]))
    return out


def per_layer(measured, restarts, stream) -> dict:
    """Per-layer figures, from the traced set-ups, the traced steps and
    the traced restarts."""
    cold = measured["setups"]
    warm = restarts
    st = measured["step_spans"]
    n = measured["traced_steps"]

    def cold_span(key):
        return med(cold, lambda r: r["spans"].get(key, 0.0))

    def step_ms(key):
        return st.get(key, 0.0) / n * 1e3

    exec_s = st.get("incl.exec", 0.0) / n
    step_s = st["total"] / n
    cg_iters = measured["cg_iters_per_step"] * n
    out = {
        "plan.build_s": cold_span("incl.build_plan"),
        "plan.builds": med(cold, lambda r: r["store"]["plan"]["builds"]),
        "plan.colors": measured["plan_colors"],
        "chain.compile_s": cold_span("self.Runtime.compiled_chain_for"),
        "chain.flushes_per_step": st.get("n.Runtime.compiled_chain_for", 0)
        / n,
        "chain.host_ms_per_step": (step_s - exec_s) * 1e3,
        "chain.hit_ratio": measured["chain_hit_ratio"],
        "chain.lookups_per_step": measured["chain_lookups_per_step"],
        "kernelc.native_build_s": cold_span(
            "incl.kernelc.native.build_chain_program"),
        "kernelc.vector_emit_s": cold_span("incl.Kernel.vector_for"),
        "kernelc.native_compiles": med(warm, lambda r: r["native_compiles"]),
        "exec.ms_per_step": exec_s * 1e3,
        "exec.share": exec_s / step_s,
        "exec.gbs": measured["bytes_per_step"] / exec_s / 1e9 if exec_s
        else 0.0,
        "exec.flop_per_byte": measured["flops_per_step"]
        / measured["bytes_per_step"],
        "solve.cg_iters_per_step": measured["cg_iters_per_step"],
        "solve.cg_ms_per_iter": st.get("incl.solve.cg", 0.0) / cg_iters * 1e3
        if cg_iters else 0.0,
        "mat.assemble_ms_per_step": step_ms("self.Mat.assemble"),
        "mat.dirichlet_ms_per_step": step_ms("self.Mat.set_dirichlet"),
        "store.write_s": cold_span("incl.store.put"),
        "store.read_s": med(warm, lambda r: r["spans"].get("incl.store.get",
                                                           0.0)),
        "store.corrupt": sum(r["store"][k]["corrupt"] for r in cold + warm
                             for k in r["store"]),
    }
    for kind in STORE_KINDS:
        for counter in ("disk_hits", "builds"):
            out[f"store.{kind}.{counter}"] = med(
                warm, lambda r: r["store"][kind][counter])
    for layer in LAYERS:
        out[f"layer.{layer}_ms_per_step"] = step_ms(f"self.{layer}")
    out["layer.sum_ms_per_step"] = sum(
        out[f"layer.{layer}_ms_per_step"] for layer in LAYERS)
    out["trace.step_ms_mean"] = step_s * 1e3
    out["trace.overhead_frac"] = (
        statistics.median(measured["steps_traced_s"])
        / statistics.median(measured["steps_untraced_s"]) - 1.0)
    out["machine.llc_bytes"] = stream["llc_bytes"]
    out["workload.working_set_bytes"] = measured["working_set_bytes"]
    return out


LAYER_UNITS = {
    "_s": "s", "ms_per_step": "ms", "_ms_per_iter": "ms", "gbs": "GB/s",
    "_bytes": "bytes", "_frac": "ratio", ".share": "ratio",
    ".hit_ratio": "ratio", ".host_slowdown": "ratio",
    ".flop_per_byte": "flop/B", ".step_ms_mean": "ms",
}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no program sources at {ROOT / 'src' / 'repro'}", 2)

    deadline = time.monotonic() + RUN_LIMIT_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = child_env(work)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        with open(work / "children.log", "w") as log:
            stream = {"llc_bytes": 0, "stream_gbs": None}
            if args.trace:
                run_child([str(HERE / "stream.py"), "--out",
                           str(work / "stream.json")], env, deadline, log)
                stream = json.loads((work / "stream.json").read_text())
            # (output name, role): one measuring process, then the
            # restart processes one after another.
            procs = [("measure", "measure")] + [
                (f"restart{i}", "restart")
                for i in range(WORKLOADS[args.workload].restart_reps)]
            for pid, (name, role) in enumerate(procs, start=1):
                run_child([str(HERE / "worker.py"), "--role", role, *common,
                           "--out", str(work / f"{name}.json"),
                           "--spans-out", str(work / f"{name}-spans.json"),
                           "--pid", str(pid)], env, deadline, log)
        names = [name for name, _ in procs]
        measured = json.loads((work / "measure.json").read_text())
        restarts = [json.loads((work / f"{n}.json").read_text())
                    for n in names[1:]]
        report(args, env, work, tag, names, measured, restarts, stream)
    finally:
        # A failed run keeps its children's log; the store always goes.
        shutil.rmtree(work / "store", ignore_errors=True)
        shutil.rmtree(work / "tmp", ignore_errors=True)
    shutil.rmtree(work, ignore_errors=True)


def report(args, env, work, tag, names, measured, restarts,
           stream) -> None:
    untraced = measured["steps_untraced_s"]
    traced = measured["steps_traced_s"]
    setups = measured["setups"] + restarts
    failures = [f for r in setups for f in r["failures"]]
    failures += measured["failures"]
    attempted = len(untraced) + len(traced) + len(setups)
    failed = measured["failed_ops"] + sum(1 for r in setups if r["failures"])
    wl = WORKLOADS[args.workload]
    e2e = end_to_end(wl, measured, restarts, untraced, attempted, failed)
    raw = raw_figures(wl, measured, restarts, untraced)
    correct = failed == 0
    prov = provenance(args, env, measured)
    print(f"provenance: {json.dumps(prov)}")
    print(f"steps timed: {len(untraced)} untraced, {len(traced)} traced; "
          f"set-ups: {len(measured['setups'])} cold, "
          f"{len(restarts)} restart; failed ops: {failed} of "
          f"{attempted}")
    print(f"computed useful bytes per step: {measured['bytes_per_step']:.0f}"
          f" (from loop argument shapes, not measured)")
    for f in failures[:10]:
        print(f"check failed: {f}")
    print(f"host-speed probes: {wl.probe} for steps, {wl.setup_probe} "
          f"for set-ups; wall figures and slowdowns: "
          + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for name, value in e2e.items():
        print(f"metric {name} = {value:.6g} {END_TO_END[name]}")
    result = {"provenance": prov, "end_to_end": e2e, "wall": raw}
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    if args.trace:
        layers = per_layer(measured, restarts, stream)
        layers["machine.host_slowdown"] = raw["slowdown_steps"]
        if stream["stream_gbs"] is None:
            print(f"stream probe skipped: {stream.get('skipped')}; "
                  f"exec.bw_frac left out, exec.flop_per_byte reported")
        else:
            print(f"machine.stream_gbs = {stream['stream_gbs']:.6g} GB/s "
                  f"({stream['array_bytes']} B arrays, LLC "
                  f"{stream['llc_bytes']} B)")
            print(f"exec.bw_frac = "
                  f"{layers['exec.gbs'] / stream['stream_gbs']:.6g} ratio")
        print("layer self time per traced step (mean):")
        for layer in LAYERS:
            print(f"  {layer:8s} {layers[f'layer.{layer}_ms_per_step']:10.3f}"
                  f" ms")
        step_ms = layers["trace.step_ms_mean"]
        gap = abs(layers["layer.sum_ms_per_step"] - step_ms)
        print(f"  sum      {layers['layer.sum_ms_per_step']:10.3f} ms "
              f"(traced step mean {step_ms:.3f} ms)")
        if gap > 1e-6 * step_ms:
            correct = False
            print("check failed: layer self times do not add up")
        for name, value in layers.items():
            print(f"layer {name} = {value:.6g} {layer_unit(name)}")
        events = []
        for name in names:
            events += json.loads((work / f"{name}-spans.json").read_text())
        trace_path = OUT / f"trace-{tag}.json"
        write_chrome_trace(trace_path, events)
        print(f"chrome trace: {trace_path.relative_to(ROOT)}")
        result["per_layer"] = layers
        result["stream"] = stream
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in layers.items()}
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
