"""Execution backends for parallel loops.

See :mod:`repro.backends.base` for the mapping between backends and the
paper's parallelization strategies.
"""

from .autovec import AutoVecBackend
from .base import Backend, IncTerms, LoopStats, gather_batch, scatter_batch
from .native import NativeBackend
from .openmp import OpenMPBackend
from .sequential import SequentialBackend
from .simt import SIMTBackend
from .vectorized import VectorizedBackend

__all__ = [
    "AutoVecBackend",
    "Backend",
    "IncTerms",
    "LoopStats",
    "NativeBackend",
    "OpenMPBackend",
    "SIMTBackend",
    "SequentialBackend",
    "VectorizedBackend",
    "gather_batch",
    "scatter_batch",
]
