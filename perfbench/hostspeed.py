"""Host-speed probes that put the benchmark's wall times on one scale.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
tens of percent over minutes as other tenants come and go: on a 2-vCPU
KVM guest (Xeon, 4 MiB L2) the same volna step took 95 ms at one hour
and 165-245 ms later the same day.  Medians within a run cannot remove
drift that outlasts the run, so every timed phase is interleaved with a
fixed probe that never touches the program, and a phase's wall time is
reported scaled to the probe's reference time::

    scaled = wall * REFERENCE_S[kind] / median(probe wall times)

A set-up is referred to the probes taken just before and after it; a
step, to the probes around it (:func:`local_probe`), because the host's
speed also flips between states within seconds.  A set-up that lasts
longer than those states is not represented by probes at its ends, so a
workload can name no set-up probe and report its set-ups as wall time.

A slower host stretches the step and the probe alike and cancels; a
change to the program moves only the step, so it shows in full.  The
scaled figure is the time the phase would take on this host at the
speed where the probe takes its reference time; the raw wall times and
the scale factor are printed next to it.

There are two probes, and a workload names the one that matches what
bounds its steps and the one for its set-ups (host-side Python, NumPy and
compiler work):

* ``dispatch``: a few hundred NumPy calls on small, cache-resident
  arrays (interpreter and call overhead plus short vector work), like
  the batched path and the chain dispatch of small loops;
* ``memory``: a random gather from an array eight times the size of L2,
  like the indirect loops of the paper-scale mesh.

Measured over nine minutes in one process on the host above, while the
raw step times moved by up to 50%, the ratio of each workload's median
step time per minute to the matching probe's stayed within 7% of its
median.  The probe slows a little more than the steps do: across runs at
1.0x and 1.7x host slowdown, aero's scaled step time read about 8% lower
at 1.7x.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Optional

import numpy as np

#: Probe wall time, in seconds, that scaled times are referred to: about
#: the median time of each probe on the quiet host the benchmark was
#: written on.
REFERENCE_S: Dict[str, float] = {"dispatch": 4.0e-3, "memory": 15.0e-3}

_SMALL = 60_000
_GATHER_SRC = 4_000_000      # float64: 32 MB
_GATHER_N = 1_000_000


def _dispatch_probe() -> Callable[[], None]:
    a = np.linspace(0.0, 1.0, _SMALL, dtype=np.float32)
    b = a[::-1].copy()

    def run() -> None:
        for _ in range(40):
            c = a * b + a
            idx = np.arange(0, _SMALL, 3)
            c[idx] = b[idx]
            float(c[::7].sum())

    return run


def _memory_probe() -> Callable[[], None]:
    rng = np.random.default_rng(0)
    src = rng.random(_GATHER_SRC)
    idx = rng.integers(0, _GATHER_SRC, _GATHER_N).astype(np.int32)
    out = np.empty(_GATHER_N)

    def run() -> None:
        np.take(src, idx, out=out)

    return run


class HostSpeed:
    """One probe kind; :meth:`sample` times it and keeps the times.
    Kind ``None`` samples nothing (wall time is reported)."""

    def __init__(self, kind: Optional[str]) -> None:
        self.kind = kind
        self.times: List[float] = []
        self._run: Optional[Callable[[], None]] = None
        if kind is not None:
            self._run = {"dispatch": _dispatch_probe,
                         "memory": _memory_probe}[kind]()
            self._run()  # first touch of the arrays, untimed

    def sample(self, n: int = 1) -> None:
        if self._run is None:
            return
        for _ in range(n):
            t0 = time.perf_counter()
            self._run()
            self.times.append(time.perf_counter() - t0)

    def take(self) -> List[float]:
        """The times sampled since the last call."""
        times, self.times = self.times, []
        return times


#: Probes on each side of a step that :func:`local_probe` takes in.
LOCAL_RADIUS = 4


def local_probe(probe_times: List[float]) -> List[float]:
    """For the ``i``-th of a run of steps each followed by one probe,
    the median of the probes within ``LOCAL_RADIUS`` steps of it.  The
    host's speed flips between states that last a few seconds, so each
    step is referred to the probes around it; the median over a window
    drops single disturbed probes."""
    n = len(probe_times)
    r = LOCAL_RADIUS
    return [statistics.median(probe_times[max(i - r, 0):min(i + r + 1, n)])
            for i in range(n)]


def scale(kind: Optional[str], probe_times: List[float]) -> float:
    """Factor that turns wall times measured alongside ``probe_times``
    (at least one) into reference-speed times; 1 for kind ``None``."""
    if kind is None:
        return 1.0
    return REFERENCE_S[kind] / statistics.median(probe_times)
