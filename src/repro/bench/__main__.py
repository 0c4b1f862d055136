"""CLI: regenerate every table and figure.

Usage::

    python -m repro.bench                # all tables + figures
    python -m repro.bench table5         # one artifact
    python -m repro.bench --measured     # also run wall-clock measurements
    python -m repro.bench --ablations    # layout / batching / caching ablations
    python -m repro.bench --quick        # CI smoke: one table + tiny ablation
"""

from __future__ import annotations

import argparse
import sys

from .figures import ALL_FIGURES
from .harness import RESULTS_DIR
from .measured import (
    ALL_ABLATIONS,
    aero_ablation,
    autotune_ablation,
    batch_ablation,
    kernelc_ablation,
    loop_chain_ablation,
    matfree_ablation,
    measured_speedups,
    native_ablation,
)
from .tables import ALL_TABLES


def dump_kernel(name: str) -> int:
    """Print the kernelc-generated sources for one application kernel.

    Shapes are harvested from a real traced time step (a tiny sim run
    with a chained sequential runtime), so the dump shows exactly what
    the backends compile: the specialized scalar loop stub and the
    batched vector kernel for that loop's argument signature.
    """
    import numpy as np

    from ..apps.airfoil import AirfoilSim
    from ..apps.volna import VolnaSim
    from ..core import Runtime
    from ..kernelc import (
        generate_loop_source,
        supports,
        vector_source_for,
    )
    from ..mesh import make_airfoil_mesh, make_tri_mesh

    from ..apps.aero import AeroSim

    loops = {}
    for build in (
        lambda: AirfoilSim(make_airfoil_mesh(6, 3),
                           runtime=Runtime("sequential"), chained=True),
        lambda: VolnaSim(make_tri_mesh(4, 3, 100_000.0, 75_000.0),
                         dtype=np.float64,
                         runtime=Runtime("sequential"), chained=True),
        lambda: AeroSim(make_airfoil_mesh(8, 4),
                        runtime=Runtime("sequential"), chained=True),
    ):
        sim = build()
        sim.step()
        for compiled in sim.runtime._chains.values():
            for bl in compiled.loops:
                loops.setdefault(bl.kernel.name, (bl.kernel, bl.args))
    if name not in loops:
        print(f"unknown kernel {name!r}; traced kernels: "
              f"{', '.join(sorted(loops))}")
        return 1
    kernel, args = loops[name]
    print(f"# ---- {name}: specialized scalar stub "
          f"(repro.kernelc.scalar) ----")
    if supports(args):
        print(generate_loop_source(kernel.name, args))
    else:
        print("# shape outside the stub subset "
              "(generic interpreter fallback)\n")
    print(f"# ---- {name}: generated vector kernel "
          f"(repro.kernelc.vector) ----")
    from ..kernelc import UnvectorizableKernel

    try:
        print(vector_source_for(kernel, args))
    except UnvectorizableKernel as exc:
        print(f"# not vectorizable (scalar fallback at run time): {exc}\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "artifacts", nargs="*",
        help="names to generate (default: everything)",
    )
    parser.add_argument(
        "--measured", action="store_true",
        help="also measure wall-clock backend speedups on this machine",
    )
    parser.add_argument(
        "--ablations", action="store_true",
        help="also run the layout / batching / caching ablations "
             "(AoS-vs-SoA, whole-color-vs-chunked, warm-vs-cold caches)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: one model table plus a small "
             "batched-vs-chunked measurement",
    )
    parser.add_argument(
        "--dump-kernel", metavar="NAME", default=None,
        help="print the kernelc-generated scalar stub and vector kernel "
             "for one application kernel (e.g. res_calc, compute_flux)",
    )
    parser.add_argument("--outdir", default=None, help="output directory")
    args = parser.parse_args(argv)

    if args.dump_kernel is not None:
        return dump_kernel(args.dump_kernel)

    registry = {**ALL_TABLES, **ALL_FIGURES}

    if args.quick:
        if args.artifacts or args.measured or args.ablations:
            parser.error("--quick runs a fixed smoke subset; drop the "
                         "artifact names / --measured / --ablations or "
                         "run them without --quick")
        from ..mesh import make_airfoil_mesh

        table = registry["table2"]()
        print(table.render())
        print(f"[saved {table.save('table2', args.outdir)}]\n")
        quick = batch_ablation(
            mesh=make_airfoil_mesh(24, 12), steps=2, schemes=("two_level",)
        )
        print(quick.render())
        print(f"[saved {quick.save('BENCH_quick_batch', args.outdir)}]\n")
        chain_t = loop_chain_ablation(mesh=make_airfoil_mesh(24, 12), steps=5)
        print(chain_t.render())
        print(f"[saved {chain_t.save('ablation_loop_chain', args.outdir)}]\n")
        from ..mesh import make_tri_mesh

        kc_t = kernelc_ablation(
            steps=3,
            meshes={
                ("airfoil", "48x24"): make_airfoil_mesh(48, 24),
                ("volna", "24x18"): make_tri_mesh(24, 18, 100_000.0,
                                                  75_000.0),
            },
        )
        print(kc_t.render())
        print(f"[saved {kc_t.save('ablation_kernelc', args.outdir)}]\n")
        aero_t = aero_ablation(steps=2, mesh=make_airfoil_mesh(32, 16),
                               repeats=3)
        print(aero_t.render())
        print(f"[saved {aero_t.save('ablation_aero', args.outdir)}]\n")
        native_t = native_ablation(mesh=make_airfoil_mesh(48, 24), steps=5)
        print(native_t.render())
        print(f"[saved {native_t.save('ablation_native', args.outdir)}]\n")
        mf_t = matfree_ablation(mesh=make_airfoil_mesh(96, 48))
        print(mf_t.render())
        print(f"[saved {mf_t.save('ablation_matfree', args.outdir)}]\n")
        auto_t = autotune_ablation(steps=2, repeats=5)
        print(auto_t.render())
        print(f"[saved {auto_t.save('ablation_autotune', args.outdir)}]\n")
        from .warmstart import cold_warm_ablation

        cw_t = cold_warm_ablation(steps=2)
        print(cw_t.render())
        print(f"[saved {cw_t.save('ablation_cold_warm', args.outdir)}]\n")
        print(f"Results under {args.outdir or RESULTS_DIR}/")
        return 0

    names = args.artifacts or list(registry)
    unknown = [n for n in names if n not in registry]
    if unknown:
        parser.error(f"unknown artifacts {unknown}; known: {sorted(registry)}")

    for name in names:
        artifact = registry[name]()
        print(artifact.render())
        path = artifact.save(name, args.outdir)
        print(f"[saved {path}]\n")

    if args.measured:
        for app in ("airfoil", "volna"):
            table = measured_speedups(app)
            print(table.render())
            table.save(f"measured_{app}", args.outdir)

    if args.ablations:
        for name, gen in ALL_ABLATIONS.items():
            table = gen()
            print(table.render())
            table.save(f"BENCH_{name}", args.outdir)
        # The loop-chain and kernelc ablations keep their
        # acceptance-artifact names.
        table = loop_chain_ablation()
        print(table.render())
        table.save("ablation_loop_chain", args.outdir)
        table = kernelc_ablation()
        print(table.render())
        table.save("ablation_kernelc", args.outdir)
        table = aero_ablation()
        print(table.render())
        table.save("ablation_aero", args.outdir)
        table = native_ablation()
        print(table.render())
        table.save("ablation_native", args.outdir)
        table = matfree_ablation()
        print(table.render())
        table.save("ablation_matfree", args.outdir)
        table = autotune_ablation()
        print(table.render())
        table.save("ablation_autotune", args.outdir)
        from .warmstart import cold_warm_ablation

        table = cold_warm_ablation()
        print(table.render())
        table.save("ablation_cold_warm", args.outdir)

    print(f"Results under {args.outdir or RESULTS_DIR}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
