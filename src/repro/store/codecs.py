"""Artifact (en/de)coders: live objects ↔ plain persistable documents.

Each codec pair turns one artifact into a dict of arrays/ints/strings
(no live ``Set``/``Map``/``Dat``/``Kernel`` references, no memoized
caches) and back.  Decoding **rebinds to live storage** the way native
``.so`` replay does: the document carries only what was expensive to
compute — colorings, permutations, fusion decisions, generated
source — and the decoder grafts it onto the session's live
objects, leaving every lazily-built structure (phase lists, gather
indices, executor programs) to rebuild on demand exactly as a
freshly-constructed artifact would.

The decoders trust the store's schema/key validation: a payload that
reaches them has the right schema version and was stored under the key
the caller just computed.  Malformed payloads (a truncated write that
still unpickles, a hand-edited file) raise inside the decoder; callers
treat any decode exception as a corrupt entry — counted, unlinked,
recomputed — never as a user-facing failure.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..coloring import BlockLayout, BlockPermutation, Permutation, racing_slots
from ..core.plan import Plan


def _arr(a) -> np.ndarray:
    """Validate-and-copy an array field out of a decoded payload."""
    if not isinstance(a, np.ndarray):
        raise TypeError(f"expected ndarray, got {type(a).__name__}")
    return a


# ----------------------------------------------------------------------
# Plan
# ----------------------------------------------------------------------
def encode_plan(plan: Plan) -> dict:
    """Strip a plan to its expensive content (colorings, permutations).

    ``blocks_by_color`` is derived from ``block_colors`` on decode, and
    the phase/order/gather caches rebuild lazily — they are cheap
    relative to the graph coloring this skips.  The within-block
    coloring is never stored: plans are encoded right after they are
    built, before anything has read it, and the decoded plan computes
    it on first read like a freshly built one.
    """
    return {
        "scheme": plan.scheme,
        "coloring_method": plan.coloring_method,
        "is_direct": bool(plan.is_direct),
        "layout": (
            int(plan.layout.n_elements),
            int(plan.layout.block_size),
            plan.layout.offsets,
        ),
        "block_colors": plan.block_colors,
        "n_block_colors": int(plan.n_block_colors),
        "permutation": (
            None
            if plan.permutation is None
            else (plan.permutation.order, plan.permutation.color_offsets)
        ),
        "block_permutation": (
            None
            if plan.block_permutation is None
            else (
                plan.block_permutation.order,
                list(plan.block_permutation.color_offsets),
            )
        ),
        "build_stats": dict(plan.build_stats),
    }


def decode_plan(payload: dict, set_, args) -> Plan:
    """Rebuild a live plan over the session's ``set_`` and loop ``args``
    (whose racing columns color the plan's elements on first read)."""
    n_elements, block_size, offsets = payload["layout"]
    layout = BlockLayout(
        n_elements=int(n_elements),
        block_size=int(block_size),
        offsets=_arr(offsets),
    )
    block_colors = _arr(payload["block_colors"])
    n_block_colors = int(payload["n_block_colors"])
    blocks_by_color = [
        np.nonzero(block_colors == c)[0].astype(np.int64)
        for c in range(max(n_block_colors, 0))
    ]
    permutation = None
    if payload["permutation"] is not None:
        order, color_offsets = payload["permutation"]
        permutation = Permutation(
            order=_arr(order), color_offsets=_arr(color_offsets)
        )
    block_permutation = None
    if payload["block_permutation"] is not None:
        order, color_offsets = payload["block_permutation"]
        block_permutation = BlockPermutation(
            layout=layout,
            order=_arr(order),
            color_offsets=[_arr(o) for o in color_offsets],
        )
    return Plan(
        set=set_,
        scheme=str(payload["scheme"]),
        layout=layout,
        is_direct=bool(payload["is_direct"]),
        block_colors=block_colors,
        n_block_colors=n_block_colors,
        blocks_by_color=blocks_by_color,
        racing=tuple(racing_slots(args)),
        coloring_method=str(payload["coloring_method"]),
        permutation=permutation,
        block_permutation=block_permutation,
        build_stats=dict(payload["build_stats"]),
    )


# ----------------------------------------------------------------------
# Compiled chain
# ----------------------------------------------------------------------
def encode_chain(compiled) -> dict:
    """Persist a compiled chain's *decisions*, not its bound objects.

    The expensive outputs of :func:`repro.core.chain.compile_chain` are
    the validation pass, the dependency analysis and the fusion
    partition; the bound loops themselves are rebuilt from the live
    trace on decode (plans come from the plan store).
    """
    offsets = []
    pos = 0
    for g in compiled.groups:
        offsets.append(list(range(pos, pos + len(g.loops))))
        pos += len(g.loops)
    return {
        "groups": offsets,
        "analysis": {
            "edges": sorted(compiled.analysis.edges),
            "levels": list(compiled.analysis.levels),
            "frontiers": [list(f) for f in compiled.analysis.frontiers],
        },
        "n_loops": compiled.n_loops,
    }


def decode_chain(payload: dict, specs, plans):
    """Rebuild a compiled chain over live ``specs`` and resolved ``plans``.

    Skips validation, dependency analysis and fusion — the persisted
    decisions are functions of the structural trace the key guarantees
    identical.
    """
    from ..core.chain import BoundLoop, ChainAnalysis, CompiledChain, FusedGroup

    if int(payload["n_loops"]) != len(specs):
        raise ValueError("chain document does not match the live trace")
    bound = [
        BoundLoop(
            kernel=spec.kernel, set=spec.set, args=spec.args,
            plan=plans[i], n=spec.n, start=spec.start,
        )
        for i, spec in enumerate(specs)
    ]
    groups = []
    seen: List[int] = []
    for idx_group in payload["groups"]:
        idx_group = [int(i) for i in idx_group]
        seen += idx_group
        head = specs[idx_group[0]]
        groups.append(FusedGroup(
            loops=tuple(bound[i] for i in idx_group),
            plan=plans[idx_group[0]],
            n=head.n,
            start=head.start,
        ))
    if seen != list(range(len(specs))):
        raise ValueError("chain fusion groups do not partition the trace")
    an = payload["analysis"]
    analysis = ChainAnalysis(
        edges=frozenset((int(i), int(j)) for i, j in an["edges"]),
        levels=tuple(int(v) for v in an["levels"]),
        frontiers=tuple(tuple(int(i) for i in f) for f in an["frontiers"]),
    )
    return CompiledChain(groups=tuple(groups), analysis=analysis)


# ----------------------------------------------------------------------
# Generated kernel source (kernelc)
# ----------------------------------------------------------------------
def encode_kernelc(source: Optional[str]) -> dict:
    """``source=None`` records a negative entry (unvectorizable kernel)."""
    return {"source": source}


def decode_kernelc(payload: dict) -> Optional[str]:
    source = payload["source"]
    if source is not None and not isinstance(source, str):
        raise TypeError("kernelc payload source must be a string or None")
    return source
