"""Mesh renumbering for cache locality.

OP2 relies on a locality-friendly base numbering so that contiguous
mini-partitions are geometrically compact (Section 3's blocks).  The
generators do not guarantee one: ``make_airfoil_mesh`` numbers edges
i-major while its cells are j-major, so consecutive edges touch cells a
whole ring apart.  :func:`renumber_edges_by_cell` fixes the edge-like
sets of any mesh without touching cells or nodes; the edge-loop apps
apply it when they take a mesh.  A scrambled numbering models a *badly*
ordered input mesh, and reverse-Cuthill-McKee restores cell locality —
the pair is used by tests and the locality ablation bench.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
from scipy.sparse.csgraph import reverse_cuthill_mckee

from ..core.map import Map
from ..core.set import Set
from ..partition.graph import adjacency_from_map
from .structures import UnstructuredMesh


def permute_set_numbering(
    mesh: UnstructuredMesh, set_name: str, new_of_old: np.ndarray
) -> UnstructuredMesh:
    """Renumber one set: element ``old`` becomes ``new_of_old[old]``.

    Rebuilds every map touching the set (rows permuted for ``from`` sets,
    values relabelled for ``to`` sets), plus coordinates/meta arrays that
    live on it.  Returns a new mesh; the input is untouched.  The
    renumbered set is a fresh :class:`~repro.core.set.Set`, so a Dat or
    Map built on the input's numbering fails the identity checks of
    ``arg_dat`` / ``par_loop`` instead of pairing silently with the new
    one; the other sets keep their objects.
    """
    sets = {
        "nodes": mesh.nodes,
        "cells": mesh.cells,
        "edges": mesh.edges,
        "bedges": mesh.bedges,
    }
    if set_name not in sets:
        raise KeyError(f"Unknown set {set_name!r}")
    target = sets[set_name]
    new_of_old = np.asarray(new_of_old, dtype=np.int64)
    n = target.size
    if new_of_old.shape != (n,) or (n > 0 and (
        new_of_old.min() < 0
        or new_of_old.max() >= n
        or np.bincount(new_of_old, minlength=n).max() != 1
    )):
        raise ValueError("new_of_old must be a permutation of the set")
    old_of_new = np.empty_like(new_of_old)
    old_of_new[new_of_old] = np.arange(target.size, dtype=np.int64)

    fresh = Set(target.size, target.name, core_size=target.core_size,
                exec_size=target.exec_size)

    def swap(s: Set) -> Set:
        return fresh if s is target else s

    new_maps: Dict[str, Map] = {}
    for name, m in mesh.maps.items():
        values = m.values
        if m.from_set is target:
            values = values[old_of_new]
        if m.to_set is target:
            values = new_of_old[values]
        new_maps[name] = Map(swap(m.from_set), swap(m.to_set), m.arity,
                             values, m.name)

    coords = mesh.coords
    if set_name == "nodes":
        coords = coords[old_of_new]
    meta = dict(mesh.meta)
    per_set_meta = {"bedges": ("bound",), "edges": ("is_boundary_edge",)}
    for key in per_set_meta.get(set_name, ()):
        if key in meta:
            meta[key] = meta[key][old_of_new]

    out = UnstructuredMesh(
        nodes=swap(mesh.nodes),
        cells=swap(mesh.cells),
        edges=swap(mesh.edges),
        bedges=swap(mesh.bedges),
        maps=new_maps,
        coords=coords,
        meta=meta,
    )
    out.validate()
    return out


def scramble(mesh: UnstructuredMesh, set_name: str, seed: int = 0
             ) -> UnstructuredMesh:
    """Randomly permute a set's numbering (worst-case locality)."""
    sets = mesh.summary()
    rng = np.random.default_rng(seed)
    perm = rng.permutation(sets[set_name]).astype(np.int64)
    return permute_set_numbering(mesh, set_name, perm)


def rcm_renumber_cells(mesh: UnstructuredMesh) -> UnstructuredMesh:
    """Reverse-Cuthill-McKee renumbering of cells via shared nodes."""
    adj = adjacency_from_map(
        mesh.map("cell2node").values, mesh.cells.size, mesh.nodes.size
    )
    order = np.asarray(reverse_cuthill_mckee(adj, symmetric_mode=True))
    new_of_old = np.empty(mesh.cells.size, dtype=np.int64)
    new_of_old[order] = np.arange(mesh.cells.size, dtype=np.int64)
    return permute_set_numbering(mesh, "cells", new_of_old)


def renumber_edges_by_cell(mesh: UnstructuredMesh) -> UnstructuredMesh:
    """Renumber ``edges`` / ``bedges`` for cell locality.

    Each edge-like set is stably sorted by the highest-numbered cell it
    touches.  Consecutive edges then touch a narrow, ascending window of
    cells, so an edge loop's indirect cell gathers and increments stay
    within a cache-sized range while its direct per-edge Dats stream.
    Cells and nodes keep their numbering.  A set already in this order
    is left alone, and a mesh whose sets all are is returned as is.

    Stability preserves the relative order of edges that share their
    highest cell; results on the renumbered mesh are bitwise consistent
    across backends and execution modes like on any other numbering.
    """
    out = mesh
    for set_name, map_name in (("edges", "edge2cell"),
                               ("bedges", "bedge2cell")):
        # Boundary maps are optional in the mesh contract — skip sets
        # whose cell map is absent or empty.
        m = out.maps.get(map_name)
        if m is None or m.values.size == 0:
            continue
        key = m.values.max(axis=1)
        if np.all(key[1:] >= key[:-1]):
            continue
        order = np.argsort(key, kind="stable")  # old ids in new order
        new_of_old = np.empty(order.size, dtype=np.int64)
        new_of_old[order] = np.arange(order.size, dtype=np.int64)
        out = permute_set_numbering(out, set_name, new_of_old)
    return out


def bandwidth(map_values: np.ndarray) -> int:
    """Max spread of a map row — the locality proxy RCM minimizes."""
    mv = np.asarray(map_values)
    if mv.size == 0:
        return 0
    return int((mv.max(axis=1) - mv.min(axis=1)).max())
