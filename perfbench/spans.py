"""In-memory span tracer that wraps the program's layer entry points.

The benchmark never edits the program: it records a span around each
call into a layer's public entry point by replacing that attribute for
the duration of a traced block and restoring it afterwards.  With no
block active nothing is wrapped, so untraced runs execute the program
exactly as shipped.

A span is ``(name, layer, start_ns, end_ns, parent, op)``.  Spans stay
in memory and are written out once, as Chrome trace JSON, when the
process ends.  A span's self time is its duration minus the durations
of its direct children (calls nest strictly in this single-threaded
program, so children never overlap).
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layer names used in spans, per-layer self times and the trace file.
LAYERS = ("app", "chain", "exec", "plan", "kernelc", "solve", "mat", "store")


def entry_points() -> List[Tuple[object, str, str, str]]:
    """``(owner, attribute, span name, layer)`` for every wrapped call.

    Module-level functions are wrapped in the module that *calls* them
    (``backends.native`` imports ``build_chain_program`` by name,
    ``apps.aero.driver`` imports ``cg``), so the wrapper is what the
    caller looks up.  ``run_chain`` is wrapped on both executor classes
    the workloads use, since each defines its own.
    """
    import repro.apps.aero.driver as aero_app
    import repro.backends.native as native_backend
    import repro.core.plan as core_plan
    from repro.backends.native import NativeBackend
    from repro.backends.vectorized import VectorizedBackend
    from repro.core.kernel import Kernel
    from repro.core.mat import Mat
    from repro.core.plan import PlanCache
    from repro.core.runtime import Runtime
    from repro.store.base import ArtifactStore

    return [
        (Runtime, "compiled_chain_for", "Runtime.compiled_chain_for", "chain"),
        (NativeBackend, "run_chain", "Backend.run_chain", "exec"),
        (VectorizedBackend, "run_chain", "Backend.run_chain", "exec"),
        (PlanCache, "get", "PlanCache.get", "plan"),
        (core_plan, "build_plan", "build_plan", "plan"),
        (native_backend, "build_chain_program",
         "kernelc.native.build_chain_program", "kernelc"),
        (Kernel, "vector_for", "Kernel.vector_for", "kernelc"),
        (aero_app, "cg", "solve.cg", "solve"),
        (Mat, "assemble", "Mat.assemble", "mat"),
        (Mat, "set_dirichlet", "Mat.set_dirichlet", "mat"),
        (ArtifactStore, "get", "store.get", "store"),
        (ArtifactStore, "put", "store.put", "store"),
    ]


class Tracer:
    """Span recorder; one per process."""

    def __init__(self) -> None:
        #: ``[name, layer, start_ns, end_ns, parent_index, op]``.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        #: Operation id stamped on every span opened while it is set.
        self.op: Optional[str] = None

    # -- recording -----------------------------------------------------
    def begin(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter_ns(), 0, parent,
                           self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)

        return traced

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point of :func:`entry_points`."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, layer in entry_points():
            # Each entry point is defined on its owner itself, so putting
            # the original object back restores it exactly.
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, layer))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def children(self) -> Dict[int, List[int]]:
        out: Dict[int, List[int]] = {}
        for i, s in enumerate(self.spans):
            out.setdefault(s[4], []).append(i)
        return out

    def self_ns(self, kids: Dict[int, List[int]]) -> List[int]:
        """Self time of every span: duration minus its children's."""
        out = []
        for i, s in enumerate(self.spans):
            covered = sum(self.spans[c][3] - self.spans[c][2]
                          for c in kids.get(i, ()))
            out.append(s[3] - s[2] - covered)
        return out

    def subtree(self, root: int, kids: Dict[int, List[int]]) -> List[int]:
        out, todo = [], [root]
        while todo:
            i = todo.pop()
            out.append(i)
            todo.extend(kids.get(i, ()))
        return out

    def chrome_events(self, pid: int, process_name: str) -> List[dict]:
        """Complete (``ph: X``) events in microseconds, one per span."""
        events = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 1,
                   "args": {"name": process_name}}]
        for i, (name, layer, t0, t1, parent, op) in enumerate(self.spans):
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": pid, "tid": 1,
                "ts": t0 / 1e3, "dur": (t1 - t0) / 1e3,
                "args": {"span": i, "parent": parent, "op": op},
            })
        return events


def write_chrome_trace(path, events: List[dict]) -> None:
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
