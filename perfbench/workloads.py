"""The benchmark's workloads: seeded mesh, simulation and output checks.

Each workload builds its mesh from the seed before any timing starts, so
the program only ever receives a finished mesh.  One *operation* is one
time step (one Picard step on aero); every timed step is checked, and a
failed check counts as a failed operation.

Why these three:

* ``airfoil-720k-native``: the paper's Table IV size (720K cells); the
  native executor takes nearly all of each step and set-up is dominated
  by plan colouring.  It exercises the executor and the inspector and
  bypasses the solver layer.
* ``volna-scrambled-vec``: the only workload on the NumPy batched path
  (the paper's vectorisation scheme), in fp32 with a MIN reduction and
  two flushes per step, on a randomly renumbered mesh, so a locality
  change shows here and not on the naturally ordered airfoil.
* ``aero-cg-native``: dispatch bound (hundreds of chain flushes per
  Picard step) and the only workload through ``solve/`` and
  ``core/mat``; a change that helps big loops should show no gain here.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

#: fp32 unit roundoff; the volna mass bound is stated in these units.
EPS32 = float(np.finfo(np.float32).eps)


def cyclic_relabel(mesh, seed: int):
    """Rotate every set's numbering by one seed-chosen fraction of its
    size.  Neighbours stay adjacent, so locality is unchanged."""
    from repro.mesh.renumber import permute_set_numbering

    frac = float(np.random.default_rng(seed).random())
    for name, n in mesh.summary().items():
        if n > 1:
            shift = int(frac * n) % n
            mesh = permute_set_numbering(
                mesh, name, (np.arange(n, dtype=np.int64) + shift) % n
            )
    return mesh


class Workload:
    """Interface the measuring processes drive."""

    name = ""
    #: Steps per measured cycle (aero repeats whole solves).
    cycle = 1
    #: Cold set-ups in the measuring process, and restart processes,
    #: per run (the medians are reported).
    setup_reps = 1
    restart_reps = 1
    #: Host-speed probes (``hostspeed.py``) the workload's step times and
    #: set-up times are referred to; ``None`` reports wall time.
    probe = "dispatch"
    setup_probe = "dispatch"

    def build_mesh(self, seed: int):
        raise NotImplementedError

    def make_sim(self, mesh):
        raise NotImplementedError

    def start_cycle(self, sim) -> None:
        """Put the state where a cycle starts (outside timing)."""

    def prepare(self, sim) -> None:
        """Record what the checks compare against, between the
        constructor and the first step (outside timing)."""

    def check_first(self, sim) -> List[str]:
        """Extra checks on the set-up step."""
        return []

    def check_step(self, sim, result) -> List[str]:
        return []

    def check_position(self, sim, k: int) -> List[str]:
        """Checks tied to step ``k`` of a cycle (after :meth:`check_step`)."""
        return []

    def cg_iterations(self, sim, steps: int) -> int:
        """CG iterations the last ``steps`` steps took."""
        return 0


class AirfoilNative(Workload):
    name = "airfoil-720k-native"
    probe = "memory"
    #: Its set-ups take 5-12 s, longer than the host's speed states last,
    #: and probes at their two ends do not represent them (scaling
    #: widened their spread), so they are reported as wall time.
    setup_probe = None
    NX, NY = 1200, 600
    #: Max relative deviation of step 1 from ``reference_sweep``: the
    #: native executor and the whole-array reference sum in different
    #: orders, so they agree to rounding, not bitwise.
    REF_RTOL = 1e-10
    REF_ATOL = 1e-12

    def build_mesh(self, seed: int):
        from repro.mesh import make_airfoil_mesh

        return cyclic_relabel(make_airfoil_mesh(self.NX, self.NY), seed)

    def make_sim(self, mesh):
        from repro.apps.airfoil import AirfoilSim
        from repro.core import Runtime

        return AirfoilSim(mesh, dtype=np.float64, runtime=Runtime("native"))

    def check_first(self, sim) -> List[str]:
        from repro.apps.airfoil.reference import reference_sweep

        # AirfoilSim starts from the free stream in every cell.
        q0 = np.broadcast_to(sim.constants.qinf(sim.dtype), sim.q.shape)
        ref = reference_sweep(sim.mesh, q0)
        bad = []
        if not np.allclose(sim.q, ref["q"], rtol=self.REF_RTOL,
                           atol=self.REF_ATOL):
            err = float(np.max(np.abs(sim.q - ref["q"])))
            bad.append(f"step 1 differs from reference_sweep (max {err:g})")
        rms = sim.rms_history[-1]
        if not math.isclose(rms, ref["rms"], rel_tol=self.REF_RTOL):
            bad.append(f"step 1 rms {rms!r} differs from reference_sweep")
        return bad

    def check_step(self, sim, result) -> List[str]:
        return [] if math.isfinite(result) else [f"rms not finite: {result}"]


class VolnaScrambled(Workload):
    name = "volna-scrambled-vec"
    setup_reps = 5
    restart_reps = 5
    NX, NY = 200, 150
    #: Mass drift bound, relative to the initial mass, in fp32 ulps per
    #: step: the FV update conserves mass exactly in exact arithmetic,
    #: so only rounding of the per-cell updates and of the fp32 sum can
    #: move it.
    MASS_ULPS_PER_STEP = 4.0

    def build_mesh(self, seed: int):
        from repro.mesh import make_tri_mesh
        from repro.mesh.renumber import scramble
        from repro.apps.volna.bathymetry import DEFAULT_SCENARIO as sc

        mesh = make_tri_mesh(self.NX, self.NY, sc.extent_x, sc.extent_y)
        seeds = np.random.default_rng(seed).integers(0, 2**31, size=3)
        for name, s in zip(("cells", "edges", "nodes"), seeds):
            mesh = scramble(mesh, name, seed=int(s))
        return mesh

    def make_sim(self, mesh):
        from repro.apps.volna import VolnaSim
        from repro.core import Runtime

        return VolnaSim(mesh, dtype=np.float32, runtime=Runtime("vectorized"))

    def prepare(self, sim) -> None:
        sim.bench_mass0 = sim.total_mass()

    def check_step(self, sim, result) -> List[str]:
        bad = []
        q = sim.q
        if not np.isfinite(q).all():
            bad.append("state not finite")
        elif float(q[:, 0].min()) < 0.0:
            bad.append("negative depth")
        m0 = sim.bench_mass0
        drift = abs(sim.total_mass() - m0) / abs(m0)
        bound = self.MASS_ULPS_PER_STEP * EPS32 * (sim.steps_run + 1)
        if not drift <= bound:
            bad.append(f"mass drift {drift:.3g} > {bound:.3g}")
        return bad


class AeroCG(Workload):
    name = "aero-cg-native"
    cycle = 6
    setup_reps = 5
    restart_reps = 5
    NX, NY = 96, 48
    CG_TOL = 1e-10
    #: Explicit CG iteration budget: AeroSim's default (200) returns
    #: unconverged at this size (the first Picard step needs ~300).
    CG_MAXITER = 2000

    def build_mesh(self, seed: int):
        from repro.mesh import make_airfoil_mesh

        return cyclic_relabel(make_airfoil_mesh(self.NX, self.NY), seed)

    def make_sim(self, mesh):
        from repro.apps.aero import AeroSim
        from repro.core import Runtime

        return AeroSim(mesh, dtype=np.float64, runtime=Runtime("native"),
                       operator="assembled", cg_tol=self.CG_TOL,
                       cg_maxiter=self.CG_MAXITER)

    def prepare(self, sim) -> None:
        # The free-stream state every solve restarts from.
        sim.bench_initial = (sim.state.p_phi.data.copy(),
                             sim.state.p_rho.data.copy())
        sim.bench_iters = []

    def start_cycle(self, sim) -> None:
        phi, rho = sim.bench_initial
        sim.state.p_phi.data[...] = phi
        sim.state.p_rho.data[...] = rho

    def check_step(self, sim, result) -> List[str]:
        r = sim.cg_results[-1]
        if r.converged and r.residual <= self.CG_TOL:
            return []
        return [f"CG not converged: {r.iterations} its, residual "
                f"{r.residual:.3g}"]

    def check_position(self, sim, k: int) -> List[str]:
        """Every solve repeats the first one's CG iteration counts."""
        iters = sim.cg_results[-1].iterations
        ref = sim.bench_iters
        if len(ref) < self.cycle:
            ref.append(iters)
            return []
        if iters != ref[k]:
            return [f"Picard step {k + 1}: {iters} CG iterations, first "
                    f"solve took {ref[k]}"]
        return []

    def cg_iterations(self, sim, steps: int) -> int:
        return sum(r.iterations for r in sim.cg_results[-steps:])


WORKLOADS = {w.name: w for w in (AirfoilNative(), VolnaScrambled(), AeroCG())}
