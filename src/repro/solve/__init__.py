"""Sparse linear solvers built *on top of* the par_loop abstraction.

The aero workload closes with a conjugate-gradient solve; instead of a
host-side solver this package expresses SpMV and the CG vector updates
as ordinary parallel loops, so the solver inherits every runtime
capability for free: backend choice, data layouts and deferred-execution
tracing (``runtime.chain``).  Scalar reductions (dot
products) are the deliberate exception — they read flushed ``Dat`` data
on the host in a fixed order, which keeps every CG scalar (and with it
the iterate sequence) bitwise identical across backends.
"""

from .cg import CGResult, MatOperator, cg
from .kernels import make_cg_kernels, make_spmv_kernel
from .matfree import (
    MAX_FOLD_CONTRIBUTIONS,
    MatFreeOperator,
    make_matfree_kernels,
)

__all__ = [
    "CGResult",
    "MatOperator",
    "MatFreeOperator",
    "MAX_FOLD_CONTRIBUTIONS",
    "cg",
    "make_cg_kernels",
    "make_matfree_kernels",
    "make_spmv_kernel",
]
