"""Paper-scale workload descriptors for Airfoil and Volna.

A workload bundles everything the performance model needs per kernel:
arithmetic intensity (from kernel metadata), transfer profile (analyzed
from the real loop argument lists on a small generated mesh — the ratios
are scale-invariant for a mesh family), iteration counts, and the
paper-scale set sizes from Table IV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..apps.airfoil import AirfoilSim
from ..apps.volna import VolnaSim
from ..mesh import make_airfoil_mesh, make_tri_mesh
from .transfers import LoopTransfer, analyze_loop, classify_loop, indirect_inc_values


@dataclass
class KernelProfile:
    """Everything the model needs about one kernel of one application."""

    name: str
    iter_set: str
    kind: str                    # direct | gather | scatter
    flops: int
    transcendentals: int
    inc_values: int              # serialized scatter volume per element
    calls_per_iter: int
    transfer: LoopTransfer
    has_vector_form: bool
    vectorizable_simt_cpu: bool
    has_reduction: bool

    def n_elements(self, sizes: Dict[str, int]) -> int:
        return sizes[self.iter_set]


@dataclass
class AppWorkload:
    """One application at paper scale."""

    name: str
    sizes: Dict[str, int]        # paper Table IV set sizes
    n_iters: int
    profiles: List[KernelProfile]

    def profile(self, kernel_name: str) -> KernelProfile:
        for p in self.profiles:
            if p.name == kernel_name:
                return p
        raise KeyError(f"No kernel {kernel_name!r} in workload {self.name}")

    def kernel_names(self) -> List[str]:
        return [p.name for p in self.profiles]


# ----------------------------------------------------------------------
# Airfoil
# ----------------------------------------------------------------------
#: Paper Table IV set sizes for the two Airfoil meshes.
AIRFOIL_SIZES_SMALL = {
    "cells": 720_000, "nodes": 721_801, "edges": 1_438_600, "bedges": 2_400,
}
AIRFOIL_SIZES_LARGE = {
    "cells": 2_880_000, "nodes": 2_883_601, "edges": 5_757_200,
    "bedges": 4_800,
}
#: Volna's single mesh (boundary edge count estimated from the perimeter).
VOLNA_SIZES = {
    "cells": 2_392_352, "nodes": 1_197_384, "edges": 3_589_735,
    "bedges": 4_420,
}

#: Kernel invocations per outer iteration (save once, two RK sweeps).
AIRFOIL_CALLS = {
    "save_soln": 1, "adt_calc": 2, "res_calc": 2, "bres_calc": 2,
    "update": 2,
}
#: Volna: flux pipeline twice per SSP-RK2 step, RK/sim kernels once.
VOLNA_CALLS = {
    "compute_flux": 2, "numerical_flux": 2, "space_disc": 2,
    "RK_1": 1, "RK_2": 1, "sim_1": 1,
}


def _profiles_from_sim(sim, set_names, calls, loop_args) -> List[KernelProfile]:
    profiles = []
    for name, calls_per_iter in calls.items():
        set_, *args = loop_args[name]
        kern = sim.kernels[name]
        lt = analyze_loop(set_names[set_], args, set_names)
        profiles.append(
            KernelProfile(
                name=name,
                iter_set=set_names[set_],
                kind=classify_loop(args),
                flops=kern.info.flops,
                transcendentals=kern.info.transcendentals,
                inc_values=indirect_inc_values(args),
                calls_per_iter=calls_per_iter,
                transfer=lt,
                has_vector_form=kern.has_vector_form,
                vectorizable_simt_cpu=kern.vectorizable_simt,
                has_reduction=any(
                    a.is_global and a.access.is_reduction for a in args
                ),
            )
        )
    return profiles


def airfoil_workload(
    mesh_size: str = "large", n_iters: int = 1000
) -> AppWorkload:
    """Airfoil at paper scale (Table IV sizes, 1000 iterations)."""
    sim = AirfoilSim(make_airfoil_mesh(32, 16))  # analysis mesh; ratios scale
    mesh = sim.mesh  # renumbered on intake: the sets the loops run over
    set_names = {
        mesh.nodes: "nodes", mesh.cells: "cells",
        mesh.edges: "edges", mesh.bedges: "bedges",
    }
    profiles = _profiles_from_sim(
        sim, set_names, AIRFOIL_CALLS, sim._loop_args()
    )
    sizes = (
        AIRFOIL_SIZES_LARGE if mesh_size == "large" else AIRFOIL_SIZES_SMALL
    )
    return AppWorkload(
        name=f"airfoil-{mesh_size}", sizes=dict(sizes),
        n_iters=n_iters, profiles=profiles,
    )


def volna_workload(n_iters: int = 1000) -> AppWorkload:
    """Volna at paper scale (2.4M-cell coastal mesh)."""
    sim = VolnaSim(make_tri_mesh(24, 18, 100_000.0, 75_000.0),
                   dtype=np.float32)
    mesh = sim.mesh  # renumbered on intake: the sets the loops run over
    set_names = {
        mesh.nodes: "nodes", mesh.cells: "cells",
        mesh.edges: "edges", mesh.bedges: "bedges",
    }
    profiles = _profiles_from_sim(
        sim, set_names, VOLNA_CALLS, sim._loop_args(sim.state.q)
    )
    return AppWorkload(
        name="volna", sizes=dict(VOLNA_SIZES), n_iters=n_iters,
        profiles=profiles,
    )
