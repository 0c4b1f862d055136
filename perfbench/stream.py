"""Single-threaded STREAM-style triad probe, run in its own process.

Run as ``python3 perfbench/stream.py --out result.json``.  It runs apart
from the measuring process so its arrays cannot inflate that process's
peak resident memory.

Each array is sized at least four times the last-level cache the
machine reports, so the triad streams from memory.  When three such
arrays would take more than a quarter of the memory currently
available (this machine is shared), the probe does not run; the result
then says so, and the benchmark reports operations per byte without a
bandwidth fraction.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

#: Array size as a multiple of the reported last-level cache.
LLC_MULTIPLE = 4
#: Largest share of MemAvailable the three arrays may take.
MEM_SHARE = 0.25
REPEATS = 5


def llc_bytes() -> int:
    """Size of the highest-level cache cpu0 reports (0 if unknown)."""
    best = (0, 0)
    root = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(root.glob("index*")):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        num = size[:-1] if size[-1:] in "KMG" else size
        best = max(best, (level, int(num) * mult))
    return best[1]


def mem_available_bytes() -> int:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    return 0


def triad(array_bytes: int) -> float:
    """Best-of-``REPEATS`` triad ``a = b + s * c`` bandwidth in GB/s.

    NumPy evaluates the triad in two passes (``a = s * c``, then
    ``a += b``); the bytes counted are the five array streams those
    passes move: read ``c``, write ``a``, read ``a``, read ``b``,
    write ``a``.
    """
    import numpy as np

    n = array_bytes // 8
    a = np.zeros(n)
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        best = min(best, time.perf_counter() - t0)
    if a[0] != 7.0 or a[-1] != 7.0:
        raise RuntimeError("triad produced a wrong value")
    return 5 * n * 8 / best / 1e9


def probe() -> dict:
    llc = llc_bytes()
    array_bytes = LLC_MULTIPLE * llc
    need = 3 * array_bytes
    avail = mem_available_bytes()
    out = {"llc_bytes": llc, "array_bytes": array_bytes,
           "mem_available_bytes": avail, "stream_gbs": None}
    if llc <= 0:
        out["skipped"] = "no last-level cache size reported"
    elif need > MEM_SHARE * avail:
        out["skipped"] = (
            f"3 arrays of {array_bytes / 2**20:.0f} MiB need "
            f"{need / 2**30:.2f} GiB, more than {MEM_SHARE:.0%} of the "
            f"{avail / 2**30:.2f} GiB available"
        )
    else:
        out["stream_gbs"] = triad(array_bytes)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(args.out, "w") as f:
        json.dump(probe(), f)


if __name__ == "__main__":
    main()
