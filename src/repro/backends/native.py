"""Native backend — chains compiled to C, replayed through cffi.

The end of the performance ladder: where :class:`VectorizedBackend`
batches NumPy work per conflict-free color, this backend hands a whole
traced loop chain to :mod:`repro.kernelc.native`, which emits ONE C
translation unit — per-element gathers, kernel body and scatters fused
per loop, AoS/SoA strides and constants baked in — compiles it once,
and replays it with zero per-element Python cost.

Determinism contract
--------------------
Every native path executes elements in **ascending order** and maps
each floating-point step onto the exact machine operation NumPy's
scalar path performs (see the emitter's module docstring), so native
eager and chained results are both bitwise identical to the
sequential backend — the repo-wide acceptance bar.

Fallback policy (two tiers)
---------------------------
1. *No C toolchain* (``REPRO_NATIVE_DISABLE_CC=1``, or no ``cc``/cffi):
   the backend degrades to its :class:`VectorizedBackend` base
   everywhere — still fast, still internally bitwise-consistent across
   eager/chained.
2. *Toolchain present but a kernel or chain falls outside the C
   emitter's subset*: that work runs through the generic scalar paths
   (``Backend.run_chain`` / an ascending ``run_scalar_element`` sweep)
   — **never** the color-phased vectorized path — so mixed
   nativizability cannot break the ascending-order bitwise contract
   within a run.
"""

from __future__ import annotations

import time

from ..kernelc.native import (
    NativeUnsupported,
    build_chain_program,
    build_eager_program,
    compiler_available,
    count_native_fallback,
)
from .base import Backend, LoopStats, run_scalar_element
from .vectorized import VectorizedBackend

#: exec_cache marker for "this chain is not nativizable" (don't retry).
_UNSUPPORTED = None


class NativeBackend(VectorizedBackend):
    """Compile-and-replay backend over :mod:`repro.kernelc.native`."""

    name = "native"

    def __init__(self) -> None:
        super().__init__()
        #: Eager single-loop programs, keyed by kernel + argument shape
        #: signature (value ``None`` marks a known-unsupported kernel).
        self._eager_programs = {}

    # ------------------------------------------------------------------
    # Eager dispatch
    # ------------------------------------------------------------------
    def _run(self, kernel, set_, args, plan, n, reductions, start=0) -> None:
        if not compiler_available():
            super()._run(kernel, set_, args, plan, n, reductions, start)
            return
        key = self._eager_key(kernel, args, n, start)
        program = self._eager_programs.get(key, _UNSUPPORTED)
        if key not in self._eager_programs:
            try:
                program = build_eager_program(kernel, args, n, start)
            except NativeUnsupported:
                program = _UNSUPPORTED
                count_native_fallback()
            self._eager_programs[key] = program
        if program is not None:
            program.run_eager(args, reductions)
            return
        # Unsupported kernel: scalar ascending sweep (the sequential
        # backend's loop), keeping the whole backend ascending-ordered.
        scalar = kernel.scalar
        for e in range(start, n):
            run_scalar_element(scalar, args, e, reductions)

    @staticmethod
    def _eager_key(kernel, args, n, start):
        """Everything the emitted source depends on, minus array
        identity — plus the slot-dedupe *pattern*, because the compiled
        pointer table tells aliased arguments apart by slot."""
        slots = {}

        def slot(array):
            return slots.setdefault(id(array), len(slots))

        parts = [kernel._uid, int(n), int(start)]
        for arg in args:
            if arg.is_global:
                parts.append(
                    ("g", arg.access.name, arg.dat.dim, slot(arg.dat._data))
                )
                continue
            dat = arg.dat
            parts.append((
                "d", arg.access.name, int(arg.index), dat.layout, dat.dim,
                dat._storage.shape, str(dat.dtype), slot(dat._storage),
                None if arg.map is None
                else (arg.map.arity, slot(arg.map.values)),
            ))
        return tuple(parts)

    # ------------------------------------------------------------------
    # Chained dispatch
    # ------------------------------------------------------------------
    def _chain_program(self, compiled):
        cache_key = (self, "native")
        if cache_key in compiled.exec_cache:
            return compiled.exec_cache[cache_key]
        try:
            program = build_chain_program(
                compiled.loops, name=f"chain:{len(compiled.loops)}loops"
            )
        except NativeUnsupported:
            program = _UNSUPPORTED
            count_native_fallback()
        compiled.exec_cache[cache_key] = program
        return program

    def _record_split(self, loops, dt: float) -> None:
        share = dt / max(1, len(loops))
        for bl in loops:
            self.stats.setdefault(bl.kernel.name, LoopStats()).record(
                share, bl.n - bl.start
            )

    def run_chain(self, compiled) -> None:
        if not compiler_available():
            super().run_chain(compiled)
            return
        program = self._chain_program(compiled)
        if program is _UNSUPPORTED:
            # Generic per-loop path: each loop re-enters self._run,
            # which is native-or-scalar, always ascending.
            Backend.run_chain(self, compiled)
            return
        for bl in compiled.loops:
            for arg in bl.args:
                arg.dat._sync()
        t0 = time.perf_counter()
        program.run_fused()
        self._record_split(compiled.loops, time.perf_counter() - t0)
