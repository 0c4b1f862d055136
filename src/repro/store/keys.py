"""Structural (cross-process) keys for persisted artifacts.

In-process caches key by object identity (``_uid`` counters): cheap,
and exactly right while the objects live.  A persistent store needs
keys that two *different processes* agree on, so every key here is a
content digest of the structure an artifact depends on:

* a :class:`~repro.core.map.Map` keys by its **values** (plus arity and
  endpoint extents) — plans are functions of connectivity,
  not of which ``Map`` object carries it;
* a :class:`~repro.core.kernel.Kernel` keys by its **scalar source**
  (generated kernels are a function of the source text; kernels whose
  source :func:`inspect.getsource` cannot retrieve — lambdas, REPL
  definitions — are unkeyable and simply skip persistence);
* sets key by their size triple, dats/globals by dim/dtype/layout;
* object *aliasing* (two loops touching the same Dat, two args sharing
  one Map) is captured by first-occurrence ordinals, because fusion
  legality and dependency analysis depend on which arguments alias,
  not on which objects realize them.

Data values are deliberately **not** keyed: every persisted artifact is
a pure function of structure (the paper's plan/inspection reuse
argument), which is what makes replay across time steps — and now
across processes — sound.

Keys are hex digests (filename-safe); ``None`` means "do not persist".
"""

from __future__ import annotations

import hashlib
import inspect
from typing import Dict, Optional, Sequence, Tuple

from ..core.access import IDX_ALL


def digest(*parts) -> str:
    """sha256 over a flat token stream (ints/strings/bytes/None).

    Byte buffers may be ``memoryview``s; they are hashed in place, so a
    mesh-sized map costs no copy.
    """
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, (bytes, memoryview)):
            h.update(b"B")
            h.update(p)
        else:
            h.update(repr(p).encode())
        h.update(b"\x1f")
    return h.hexdigest()


# ----------------------------------------------------------------------
# Per-object content keys (cached on the object)
# ----------------------------------------------------------------------
def map_key(m) -> str:
    """Content digest of one Map: connectivity values + endpoint extents."""
    cached = getattr(m, "_struct_key", None)
    if cached is None:
        cached = digest(
            "map",
            int(m.arity),
            int(m.from_set.total_size),
            int(m.to_set.total_size),
            m.values.data,
        )
        m._struct_key = cached
    return cached


def kernel_key(k) -> Optional[str]:
    """Content digest of one Kernel's scalar source, or ``None``.

    ``None`` (source unavailable, or a hand-attached vector override
    whose behavior the scalar source does not determine) marks the
    kernel unkeyable for source-derived artifacts (kernelc).
    """
    if getattr(k, "_struct_key_done", False):
        return k._struct_key
    key: Optional[str] = None
    if k.vector is None:
        try:
            key = digest("kernel", k.name, inspect.getsource(k.scalar))
        except (OSError, TypeError):
            key = None
    k._struct_key = key
    k._struct_key_done = True
    return key


def set_token(s) -> Tuple[int, int, int]:
    return (int(s.size), int(s.core_size), int(s.exec_size))


# ----------------------------------------------------------------------
# Artifact keys
# ----------------------------------------------------------------------
def plan_key(
    set_, args: Sequence, block_size: int, scheme: str, coloring_method: str
) -> str:
    """Key of one execution plan: the disk twin of ``plan_signature``.

    Same structural notion — iteration-set extent plus the racing
    ``(map, slot)`` columns — but with maps keyed by connectivity
    content and ``coloring_method`` included (the in-process cache may
    omit it because a runtime fixes one method; the shared store cannot).
    """
    racing = sorted(
        (map_key(arg.map), int(arg.index)) for arg in args if arg.races
    )
    return digest(
        "plan", set_token(set_), racing,
        int(block_size), scheme, coloring_method,
    )


def chain_key(
    specs: Sequence,
    block_size: int,
    scheme: str,
    coloring_method: str,
) -> Optional[str]:
    """Key of one compiled loop chain, or ``None`` when unkeyable.

    Tokens cover, per recorded loop: the kernel (name, plus source
    digest when retrievable — decode rebinds the *live* kernel, so the
    name alone is already sound), the iteration set, every argument's
    kind/dim/dtype/layout/access/slot, map connectivity, the
    ``[start, n)`` range — and the aliasing pattern via first-occurrence
    ordinals, which is what fusion legality and dependency edges are
    functions of.  Runtime knobs that flow into plan resolution
    (block size, scheme, coloring method) complete the key.

    A spec carrying an explicit plan override is unkeyable: the
    override's content is not derivable from the trace.
    """
    ordinals: Dict[Tuple[str, int], int] = {}

    def ordinal(kind: str, uid: int) -> int:
        return ordinals.setdefault((kind, uid), len(ordinals))

    tokens: list = ["chain", int(block_size), scheme, coloring_method]
    for spec in specs:
        if spec.plan is not None:
            return None
        tokens += [
            "loop", spec.kernel.name, kernel_key(spec.kernel),
            ordinal("s", spec.set._uid), set_token(spec.set),
            int(spec.n), int(spec.start),
        ]
        for arg in spec.args:
            if arg.is_global:
                tokens += [
                    "g", ordinal("g", arg.dat._uid), int(arg.dat.dim),
                    str(arg.dat.dtype), arg.access.name,
                ]
            else:
                # The dat's home-set ordinal (and the map's endpoint
                # ordinals below) tie the identity relations
                # ``validate_loop`` checks into the key: a key hit
                # therefore replays a trace whose structure already
                # validated, which is what lets decode skip validation.
                tokens += [
                    "d", ordinal("d", arg.dat._uid),
                    ordinal("s", arg.dat.set._uid), int(arg.dat.dim),
                    str(arg.dat.dtype), arg.dat.layout, arg.access.name,
                    int(arg.index),
                ]
                if arg.map is not None:
                    tokens += [
                        ordinal("m", arg.map._uid),
                        ordinal("s", arg.map.from_set._uid),
                        ordinal("s", arg.map.to_set._uid),
                        map_key(arg.map),
                    ]
                else:
                    tokens.append("direct")
    return digest(*tokens)


def kernelc_key(kernel, shapes) -> Optional[str]:
    """Key of one generated vector kernel source, or ``None``.

    The generated source is a pure function of (scalar source, argument
    shape signature); kernels without retrievable source skip the store.
    """
    kkey = kernel_key(kernel)
    if kkey is None:
        return None
    norm = []
    for s in shapes:
        if isinstance(s, tuple):
            entry = (bool(s[0]), None if s[1] is None else int(s[1]))
            if len(s) > 2 and s[2]:
                entry += (True,)  # global INC: recorded increments
            norm.append(entry)
        else:
            norm.append((bool(s), None))
    return digest("kernelc", kkey, norm)


__all__ = [
    "IDX_ALL", "digest", "map_key", "kernel_key", "set_token",
    "plan_key", "chain_key", "kernelc_key",
]
