"""Conjugate gradients over par_loops (the aero pipeline's solve stage).

The solver is *matrix-free friendly*: :func:`cg` takes any operator
object exposing ``apply(x, y, runtime=...)`` (compute ``y = A x`` with
parallel loops) plus the right-hand side and initial guess as ``Dat``\\ s.
:class:`MatOperator` adapts an assembled :class:`~repro.core.mat.Mat`
through its padded fixed-arity row view, making SpMV one gather-heavy
``par_loop`` over rows; a custom operator can instead apply the action
element-wise without ever materializing the matrix.

Determinism contract
--------------------
Every mesh-sized operation is a par_loop over race-free (direct or
gather-only) loops, so per-element arithmetic is bitwise identical on
every backend, layout, and execution mode.  The only reductions — the
dot products — run on the host over the flushed arrays in one fixed
NumPy call, so ``alpha``/``beta`` (and therefore the entire iterate
sequence) are bitwise reproducible too.  Reading the dot operands is
also the deferred-execution flush point: under ``chained=True`` each CG
iteration traces its loops into the runtime's chain cache and replays
the memoized schedule, flushing exactly where the scalars are needed.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.access import IDX_ALL, IDX_ID, Access, arg_dat, arg_gbl
from ..core.dat import Dat, dat_layout
from ..core.glob import Global
from ..core.loop import par_loop
from ..core.mat import Mat
from ..core.runtime import Runtime, default_runtime
from .kernels import make_cg_kernels, make_spmv_kernel


class MatOperator:
    """Apply an assembled :class:`~repro.core.mat.Mat` as a par_loop.

    Wraps the matrix's padded row view (``row_slots``/``row_cols``) and
    a width-specialized SpMV kernel; ``apply`` reads whatever the CSR
    value Dat currently holds, so re-assembly and Dirichlet edits need
    no new operator.
    """

    def __init__(self, mat: Mat) -> None:
        self.mat = mat
        self.row_slots, self.row_cols = mat.solver_view()
        self.kernel = make_spmv_kernel(self.row_slots.arity)
        self.set = mat.row_set

    def apply(self, x: Dat, y: Dat, runtime: Optional[Runtime] = None) -> None:
        """``y = A x`` — one gather-gather-dot ``par_loop`` over rows."""
        par_loop(
            self.kernel, self.set,
            arg_dat(self.mat.values, IDX_ALL, self.row_slots, Access.READ),
            arg_dat(x, IDX_ALL, self.row_cols, Access.READ),
            arg_dat(y, IDX_ID, None, Access.WRITE),
            runtime=runtime,
        )


@dataclass
class CGResult:
    """Outcome of one :func:`cg` solve."""

    iterations: int
    residual: float
    converged: bool
    #: ||r||_2 after every iteration (entry 0 is the initial residual).
    history: List[float] = field(default_factory=list)


def _dot(a: Dat, b: Dat, n: int) -> float:
    """Host-side dot product over the owned range (fixed order).

    Reading ``.data`` flushes any pending loop chain first, so this is
    both the deterministic reduction and the natural flush point.
    """
    return float(np.dot(a.data[:n, 0], b.data[:n, 0]))


#: Memoized per-(set, dtype, layout) solver scratch (r/p/ap Dats and the
#: alpha/beta Globals).  The runtime's chain cache keys on *Dat
#: identity*, so allocating fresh scratch per ``cg()`` call would force
#: every solve to re-trace and re-compile its CG chains (and grow the
#: chain cache without bound across Picard steps) — the same reason the
#: kernels above are singletons.  Bounded LRU; cg() is not reentrant
#: over the same (set, dtype, layout), which nothing in this
#: single-threaded library does.
_WORKSPACES: "OrderedDict[tuple, tuple]" = OrderedDict()
_MAX_WORKSPACES = 8


def _workspace(set_, dtype, layout):
    from ..core.dat import get_default_layout

    effective = layout if layout is not None else get_default_layout()
    key = (set_._uid, np.dtype(dtype).str, effective)
    ws = _WORKSPACES.get(key)
    if ws is None:
        with dat_layout(layout):
            ws = (
                Dat(set_, 1, dtype=dtype, name="cg_r"),
                Dat(set_, 1, dtype=dtype, name="cg_p"),
                Dat(set_, 1, dtype=dtype, name="cg_ap"),
                Global(1, 0.0, dtype, name="cg_alpha"),
                Global(1, 0.0, dtype, name="cg_beta"),
            )
        _WORKSPACES[key] = ws
        while len(_WORKSPACES) > _MAX_WORKSPACES:
            _WORKSPACES.popitem(last=False)
    else:
        _WORKSPACES.move_to_end(key)
    return ws


def cg(
    operator,
    b: Dat,
    x: Dat,
    runtime: Optional[Runtime] = None,
    tol: float = 1e-10,
    maxiter: int = 500,
    chained: bool = False,
) -> CGResult:
    """Solve ``A x = b`` by conjugate gradients, ``x`` as initial guess.

    Parameters
    ----------
    operator:
        Anything with ``apply(x, y, runtime=...)`` computing ``y = A x``
        via par_loops (e.g. :class:`MatOperator`, or a matrix-free
        element operator).  ``A`` must be symmetric positive definite on
        the solved subspace.
    b, x:
        Right-hand side and initial guess / solution (dim-1 Dats on the
        row set).  ``x`` is updated in place.
    tol:
        Absolute convergence threshold on ``||r||_2``.
    chained:
        Trace each CG iteration as a deferred loop chain (memoized in
        the runtime's chain cache).  Results are bitwise identical
        either way.
    """
    rt = runtime if runtime is not None else default_runtime()
    set_ = b.set
    n = set_.size
    kernels = make_cg_kernels()
    r, p, ap, alpha, beta = _workspace(
        set_, b.dtype, getattr(rt, "layout", None)
    )

    def traced(body):
        if chained:
            with rt.chain():
                return body()
        return body()

    def init():
        operator.apply(x, ap, runtime=rt)
        par_loop(
            kernels["cg_init"], set_,
            arg_dat(b, IDX_ID, None, Access.READ),
            arg_dat(ap, IDX_ID, None, Access.READ),
            arg_dat(r, IDX_ID, None, Access.WRITE),
            arg_dat(p, IDX_ID, None, Access.WRITE),
            runtime=rt,
        )
        return _dot(r, r, n)

    rs = traced(init)
    history = [math.sqrt(rs)]
    if history[-1] <= tol:
        return CGResult(0, history[-1], True, history)

    converged = False
    it = 0
    for it in range(1, maxiter + 1):
        def iteration():
            operator.apply(p, ap, runtime=rt)
            pap = _dot(p, ap, n)  # flush point
            if pap <= 0.0:
                raise ValueError(
                    "cg: operator is not positive definite on this "
                    f"subspace (p.Ap = {pap})"
                )
            alpha.value = rs / pap
            par_loop(
                kernels["cg_update"], set_,
                arg_gbl(alpha, Access.READ),
                arg_dat(p, IDX_ID, None, Access.READ),
                arg_dat(ap, IDX_ID, None, Access.READ),
                arg_dat(x, IDX_ID, None, Access.RW),
                arg_dat(r, IDX_ID, None, Access.RW),
                runtime=rt,
            )
            rs_new = _dot(r, r, n)  # flush point
            if math.sqrt(rs_new) > tol:
                beta.value = rs_new / rs
                par_loop(
                    kernels["cg_direction"], set_,
                    arg_gbl(beta, Access.READ),
                    arg_dat(r, IDX_ID, None, Access.READ),
                    arg_dat(p, IDX_ID, None, Access.RW),
                    runtime=rt,
                )
            return rs_new

        rs = traced(iteration)
        history.append(math.sqrt(rs))
        if history[-1] <= tol:
            converged = True
            break
    return CGResult(it, history[-1], converged, history)
