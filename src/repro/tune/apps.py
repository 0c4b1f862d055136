"""``backend="auto"`` wiring for the application drivers.

When a driver is constructed over a runtime created as
``Runtime("auto")``, it calls :func:`autotune_sim` at the end of its
``__init__`` (before any time step has run).  This module then:

1. builds the chain signature from the sim's own loop argument table
   (the same ``_loop_args`` the drivers execute from), folding in the
   app name and dtype — but *not* any pinned axes, so every variant of
   one workload resolves to one stored decision;
2. negotiates a decision through :class:`~repro.tune.tuner.Tuner` —
   DB replay when possible, model-seeded wall-clock probes otherwise.
   Probes construct throwaway sims of the same class on the *same
   mesh* with explicit (non-auto) runtimes, so probing can never
   recurse and never touches the caller's state;
3. applies the decision: backend and layout onto the runtime,
   chained onto the sim — reallocating the sim's freshly
   initialized state if the chosen layout differs.

Explicitly passed knobs are pins, never suggestions: a sim constructed
with ``chained=False`` or a runtime with ``layout="soa"`` keeps them,
and the tuner only negotiates the remaining axes.
"""

from __future__ import annotations

import time
from typing import Optional

from .model import Pins, TuneCandidate, default_candidates
from .profile import RuntimeProfile
from .signature import chain_signature
from .tuner import TuneDecision, Tuner

#: Timed steps per probe (aero steps are whole Picard iterations).
PROBE_STEPS = {"aero": 1}
DEFAULT_PROBE_STEPS = 2


def _app_name(sim) -> str:
    return type(sim).__name__.replace("Sim", "").lower()


def _sim_loops(sim):
    """``(name, set, args)`` triples from the sim's loop table."""
    try:
        table = sim._loop_args()
    except TypeError:  # volna: stage tables keyed by the input Dat
        table = sim._loop_args(sim.state.q)
    return [(name, entry[0], tuple(entry[1:]))
            for name, entry in table.items()]


def _sim_pins(sim, runtime) -> Pins:
    return Pins(
        layout=runtime.layout if runtime.layout_explicit else None,
        chained=(sim.chained if getattr(sim, "chained_explicit", False)
                 else None),
        operator=(sim.operator_mode
                  if getattr(sim, "operator_explicit", False) else None),
    )


def _sim_operators(sim):
    """The sim's operator axis (``None`` when the app has none)."""
    if getattr(sim, "operator_axis", False):
        return ("assembled", "matfree")
    return None


def sim_signature(sim, runtime) -> str:
    """One signature per *workload*, regardless of pinned axes.

    Pins deliberately do not fork the signature: an eager-pinned and a
    chained-pinned construction of the same sim are the same workload,
    and deriving both from one stored decision keeps them on one
    backend — which is what makes their results comparable bit-for-bit
    (within a backend every execution mode is bitwise identical;
    across backends Global reductions are only 1-ulp close).
    """
    return chain_signature(
        _sim_loops(sim),
        extra=(_app_name(sim), str(sim.dtype)),
    )


def _probe_runner(sim, app: str, block_size: int):
    """A ``probe(candidate) -> seconds`` closure over throwaway sims."""
    from ..core.runtime import Runtime, make_backend

    steps = PROBE_STEPS.get(app, DEFAULT_PROBE_STEPS)
    kwargs = {}
    if app == "aero":
        kwargs = {"cg_tol": sim.cg_tol, "cg_maxiter": sim.cg_maxiter}

    def probe(candidate: TuneCandidate) -> float:
        rt = Runtime(
            backend=make_backend(candidate.backend),
            block_size=block_size,
            layout=candidate.layout,
        )
        kw = dict(kwargs)
        if candidate.operator is not None:
            kw["operator"] = candidate.operator
        trial = type(sim)(
            sim.mesh, dtype=sim.dtype, runtime=rt,
            chained=candidate.chained, **kw,
        )
        trial.step()  # warm-up: plans, chains, compiled kernels
        t0 = time.perf_counter()
        trial.run(steps)
        return (time.perf_counter() - t0) / steps

    return probe


def _state_layout(sim) -> Optional[str]:
    """Layout of the sim's allocated state (first Dat field)."""
    import dataclasses

    from ..core.dat import Dat

    for f in dataclasses.fields(sim.state):
        value = getattr(sim.state, f.name)
        if isinstance(value, Dat):
            return value.layout
    return None


def apply_decision(sim, runtime, decision: TuneDecision) -> None:
    """Install a decision on the runtime and sim (state realloc included)."""
    runtime.apply_decision(decision)
    sim.chained = bool(decision.chained)
    if decision.operator is not None and hasattr(sim, "operator_mode"):
        sim.operator_mode = decision.operator
    if (
        decision.layout is not None
        and _state_layout(sim) not in (None, decision.layout)
    ):
        sim._realloc_state()


def autotune_sim(sim, runtime=None, tuner: Optional[Tuner] = None):
    """Negotiate and apply the execution configuration for one sim.

    Called by the drivers when their runtime was built as
    ``Runtime("auto")``; also reachable directly via
    ``runtime.autotune(sim)``.  Returns the :class:`TuneDecision`.
    """
    rt = runtime if runtime is not None else sim._runtime()
    app = _app_name(sim)
    if rt.tuned_decision is not None:
        # A second sim on an already-tuned runtime reuses the runtime's
        # decision (backend/layout are runtime-wide) without re-probing.
        apply_decision(sim, rt, rt.tuned_decision)
        return rt.tuned_decision
    profile = RuntimeProfile()
    tags = getattr(sim, "_loop_operator_tags", lambda: {})()
    kernel_tags = {}
    for name, set_, args in _sim_loops(sim):
        profile.register_loop(sim.kernels[name], set_, args)
        kernel_tags[getattr(sim.kernels[name], "name", name)] = \
            tags.get(name)
    loop_infos = profile.loop_infos()
    for info in loop_infos:
        info["operator"] = kernel_tags.get(info["name"])
    pins = _sim_pins(sim, rt)
    operators = _sim_operators(sim)
    candidates = (
        default_candidates(pins, operators=operators)
        if operators else None
    )
    decision = (tuner or Tuner()).negotiate(
        sim_signature(sim, rt),
        probe=_probe_runner(sim, app, rt.block_size),
        candidates=candidates,
        pins=pins,
        loop_infos=loop_infos,
    )
    apply_decision(sim, rt, decision)
    return decision
