"""Tests for mesh generators, renumbering, serialization, footprints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import (
    airfoil_paper_dims,
    bandwidth,
    load_mesh,
    make_airfoil_mesh,
    make_tri_mesh,
    permute_set_numbering,
    rcm_renumber_cells,
    save_mesh,
    renumber_edges_by_cell,
    scramble,
    volna_paper_dims,
)


class TestAirfoilMesh:
    def test_set_size_formulas(self):
        ni, nj = 12, 5
        m = make_airfoil_mesh(ni, nj)
        assert m.cells.size == ni * nj
        assert m.nodes.size == ni * (nj + 1)
        assert m.edges.size == 2 * ni * nj - ni
        assert m.bedges.size == 2 * ni

    def test_paper_sizes_match_table4(self):
        # Table IV: 720 000 cells / 721 801 nodes / 1 438 600 edges.
        ni, nj = airfoil_paper_dims(720_000)
        cells = ni * nj
        nodes = ni * (nj + 1)
        edges = 2 * ni * nj - ni
        assert cells == 720_000
        assert abs(nodes - 721_801) / 721_801 < 0.002
        assert abs(edges - 1_438_600) / 1_438_600 < 0.002

    def test_every_cell_touched_by_four_edge_slots(self):
        m = make_airfoil_mesh(10, 4)
        counts = np.zeros(m.cells.size, dtype=int)
        np.add.at(counts, m.map("edge2cell").values.reshape(-1), 1)
        np.add.at(counts, m.map("bedge2cell").values.reshape(-1), 1)
        # Quads: every cell has exactly 4 faces.
        assert (counts == 4).all()

    def test_boundary_flags(self):
        m = make_airfoil_mesh(8, 3)
        bound = m.meta["bound"]
        assert set(np.unique(bound)) == {1, 2}
        assert (bound == 1).sum() == 8  # wall
        assert (bound == 2).sum() == 8  # far field

    def test_normal_orientation_interior(self):
        # (dy, -dx) from (x1 - x2) must point cell0 -> cell1.
        m = make_airfoil_mesh(16, 6)
        cent = m.cell_centroids()
        e2n = m.map("edge2node").values
        e2c = m.map("edge2cell").values
        x1 = m.coords[e2n[:, 0]]
        x2 = m.coords[e2n[:, 1]]
        dx = x1[:, 0] - x2[:, 0]
        dy = x1[:, 1] - x2[:, 1]
        d = cent[e2c[:, 1]] - cent[e2c[:, 0]]
        assert (dy * d[:, 0] - dx * d[:, 1] > 0).all()

    def test_normal_orientation_boundary(self):
        # Boundary normals must point out of the domain.
        m = make_airfoil_mesh(16, 6)
        cent = m.cell_centroids()
        b2n = m.map("bedge2node").values
        b2c = m.map("bedge2cell").values[:, 0]
        x1 = m.coords[b2n[:, 0]]
        x2 = m.coords[b2n[:, 1]]
        dx = x1[:, 0] - x2[:, 0]
        dy = x1[:, 1] - x2[:, 1]
        mid = 0.5 * (x1 + x2)
        d = mid - cent[b2c]
        assert (dy * d[:, 0] - dx * d[:, 1] > 0).all()

    def test_cell_corner_order_is_a_cycle(self):
        # Consecutive corners must share a quad edge (adt_calc walks them).
        m = make_airfoil_mesh(8, 3)
        x = m.coords[m.map("cell2node").values]  # (cells, 4, 2)
        for k in range(4):
            d = x[:, (k + 1) % 4] - x[:, k]
            assert (np.hypot(d[:, 0], d[:, 1]) > 0).all()

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_airfoil_mesh(2, 4)
        with pytest.raises(ValueError):
            make_airfoil_mesh(8, 0)

    def test_validate_passes(self):
        make_airfoil_mesh(6, 2).validate()


class TestTriMesh:
    def test_set_size_formulas(self):
        nx, ny = 7, 5
        m = make_tri_mesh(nx, ny)
        assert m.cells.size == 2 * nx * ny
        assert m.nodes.size == (nx + 1) * (ny + 1)
        assert m.edges.size == 3 * nx * ny + nx + ny
        assert m.bedges.size == 2 * (nx + ny)

    def test_paper_ratio_match_table4(self):
        # Volna: 2 392 352 cells / 1 197 384 nodes / 3 589 735 edges.
        nx, ny = volna_paper_dims()
        cells = 2 * nx * ny
        nodes = (nx + 1) * (ny + 1)
        edges = 3 * nx * ny + nx + ny
        assert abs(cells - 2_392_352) / 2_392_352 < 0.001
        assert abs(nodes - 1_197_384) / 1_197_384 < 0.001
        assert abs(edges - 3_589_735) / 3_589_735 < 0.001

    def test_cell2edge_inverse_of_edge2cell(self):
        m = make_tri_mesh(5, 4)
        e2c = m.map("edge2cell").values
        c2e = m.map("cell2edge").values
        is_b = m.meta["is_boundary_edge"].astype(bool)
        for c in range(m.cells.size):
            for e in c2e[c]:
                assert c in e2c[e]
        # Interior edge appears in exactly the two cells it separates.
        for e in np.nonzero(~is_b)[0][:20]:
            c0, c1 = e2c[e]
            assert e in c2e[c0] and e in c2e[c1]

    def test_boundary_edges_mirror_cell(self):
        m = make_tri_mesh(4, 3)
        e2c = m.map("edge2cell").values
        is_b = m.meta["is_boundary_edge"].astype(bool)
        assert (e2c[is_b, 0] == e2c[is_b, 1]).all()
        assert (e2c[~is_b, 0] != e2c[~is_b, 1]).all()

    def test_triangle_areas_positive_and_sum(self):
        from repro.apps.volna import cell_areas

        m = make_tri_mesh(6, 4, 12.0, 8.0)
        areas = cell_areas(m)
        assert (areas > 0).all()
        assert areas.sum() == pytest.approx(12.0 * 8.0)

    def test_edge_lengths_close_mesh(self):
        # Sum of outward normals weighted by length per cell must vanish
        # (divergence theorem on each triangle).
        from repro.apps.volna import edge_geometry

        m = make_tri_mesh(5, 5)
        geom = edge_geometry(m)
        e2c = m.map("edge2cell").values
        acc = np.zeros((m.cells.size, 2))
        nl = geom[:, :2] * geom[:, 2:3]
        np.add.at(acc, e2c[:, 0], nl)
        is_b = geom[:, 3] > 0.5
        np.add.at(acc, e2c[~is_b, 1], -nl[~is_b])
        np.testing.assert_allclose(acc, 0.0, atol=1e-9)


class TestRenumbering:
    def test_scramble_preserves_topology(self):
        m = make_airfoil_mesh(8, 4)
        s = scramble(m, "cells", seed=3)
        # Edge-cell incidence counts are invariant under renumbering.
        c0 = np.bincount(m.map("edge2cell").values.reshape(-1),
                         minlength=m.cells.size)
        c1 = np.bincount(s.map("edge2cell").values.reshape(-1),
                         minlength=m.cells.size)
        assert sorted(c0.tolist()) == sorted(c1.tolist())

    def test_rcm_reduces_bandwidth_of_scrambled(self):
        m = scramble(make_airfoil_mesh(16, 8), "cells", seed=1)
        r = rcm_renumber_cells(m)
        assert bandwidth(r.map("edge2cell").values) < bandwidth(
            m.map("edge2cell").values
        )

    def test_node_renumber_moves_coords(self):
        m = make_tri_mesh(3, 3)
        perm = np.roll(np.arange(m.nodes.size), 1)
        r = permute_set_numbering(m, "nodes", perm)
        np.testing.assert_allclose(r.coords[perm[0]], m.coords[0])

    def test_renumbered_set_is_a_new_object(self):
        m = make_tri_mesh(3, 3)
        r = scramble(m, "edges", seed=1)
        assert r.edges is not m.edges and r.edges.size == m.edges.size
        assert r.map("edge2cell").from_set is r.edges
        assert r.cells is m.cells and r.nodes is m.nodes
        assert r.bedges is m.bedges

    def test_invalid_permutation_rejected(self):
        m = make_tri_mesh(2, 2)
        with pytest.raises(ValueError):
            permute_set_numbering(m, "cells", np.zeros(m.cells.size, int))
        with pytest.raises(KeyError):
            permute_set_numbering(m, "faces", np.arange(3))

    def test_scramble_then_solve_matches(self):
        # Full pipeline invariance: Airfoil result is permutation of orig.
        from repro.apps.airfoil import AirfoilSim
        from repro.core import Runtime

        m = make_airfoil_mesh(10, 5)
        rng = np.random.default_rng(0)
        perm = rng.permutation(m.cells.size).astype(np.int64)
        sm = permute_set_numbering(m, "cells", perm)
        a = AirfoilSim(m, runtime=Runtime("vectorized", block_size=16))
        b = AirfoilSim(sm, runtime=Runtime("vectorized", block_size=16))
        a.run(3)
        b.run(3)
        np.testing.assert_allclose(b.q[perm], a.q, rtol=1e-10, atol=1e-12)


def _scrambled_edges(mesh, seed=0):
    """``mesh`` with both edge-like sets randomly renumbered."""
    for i, name in enumerate(("edges", "bedges")):
        mesh = scramble(mesh, name, seed=seed + i)
    return mesh


def _assert_cell_ordered(mesh):
    for map_name in ("edge2cell", "bedge2cell"):
        key = mesh.map(map_name).values.max(axis=1)
        assert np.all(np.diff(key) >= 0), map_name


class TestRenumberEdgesByCell:
    @pytest.mark.parametrize("make", [
        lambda: make_airfoil_mesh(24, 12), lambda: make_tri_mesh(9, 7)])
    def test_edges_sorted_by_highest_cell(self, make):
        raw = _scrambled_edges(make(), seed=3)
        mesh = renumber_edges_by_cell(raw)
        _assert_cell_ordered(mesh)
        # A renumbering, not an edit: same edge rows, cells and nodes.
        for name in ("edge2cell", "edge2node", "bedge2cell", "bedge2node"):
            a, b = raw.map(name).values, mesh.map(name).values
            assert sorted(map(tuple, a.tolist())) == sorted(
                map(tuple, b.tolist()))
        assert np.array_equal(mesh.map("cell2node").values,
                              raw.map("cell2node").values)
        assert np.array_equal(mesh.coords, raw.coords)

    def test_ordered_mesh_returned_as_is(self):
        mesh = renumber_edges_by_cell(make_airfoil_mesh(12, 6))
        assert renumber_edges_by_cell(mesh) is mesh


class TestSimIntake:
    """The edge-loop apps renumber their edge-like sets on intake."""

    @staticmethod
    def _airfoil(mesh, backend):
        from repro.apps.airfoil import AirfoilSim
        from repro.core import Runtime

        return AirfoilSim(mesh, runtime=Runtime(backend, block_size=32))

    @staticmethod
    def _volna(mesh, backend):
        from repro.apps.volna import VolnaSim
        from repro.core import Runtime

        return VolnaSim(mesh, dtype=np.float64,
                        runtime=Runtime(backend, block_size=32))

    @pytest.mark.parametrize("app,raw", [
        ("airfoil", lambda: _scrambled_edges(make_airfoil_mesh(16, 8))),
        ("volna", lambda: scramble(_scrambled_edges(make_tri_mesh(10, 8)),
                                   "cells", seed=7)),
    ])
    def test_scrambled_input_native_equals_sequential(self, app, raw):
        from repro.kernelc import compiler_available

        make = self._airfoil if app == "airfoil" else self._volna
        mesh = raw()
        # Without a C compiler native runs the vectorized path and is
        # bitwise equal to that instead.
        ref = "sequential" if compiler_available() else "vectorized"
        sims = [make(mesh, b) for b in (ref, "native")]
        for sim in sims:
            _assert_cell_ordered(sim.mesh)
            # Cells keep the caller's numbering.
            assert sim.mesh.cells is mesh.cells
            assert np.array_equal(sim.mesh.map("cell2node").values,
                                  mesh.map("cell2node").values)
            sim.run(2)
        assert sims[0].mesh is not mesh
        assert np.array_equal(sims[0].q, sims[1].q)

    @pytest.mark.parametrize("app", ["airfoil", "volna"])
    def test_intake_keeps_ordered_mesh_object(self, app):
        make = self._airfoil if app == "airfoil" else self._volna
        raw = make_airfoil_mesh(12, 6) if app == "airfoil" else \
            make_tri_mesh(6, 5)
        mesh = renumber_edges_by_cell(raw)
        assert make(mesh, "vectorized").mesh is mesh

    def test_caller_edge_numbering_does_not_mix_with_the_sims(self):
        from repro.core import Access, Dat, arg_dat, kernel, par_loop
        from repro.core.access import IDX_ID

        @kernel("touch")
        def touch(a, b):
            b[0] = a[0]

        raw = _scrambled_edges(make_airfoil_mesh(8, 4))
        sim = self._airfoil(raw, "sequential")
        m = sim.mesh
        # The renumbered sets are new objects; cells and nodes are not.
        assert m.edges is not raw.edges and m.bedges is not raw.bedges
        assert m.cells is raw.cells and m.nodes is raw.nodes
        stale = Dat(raw.edges, 1, name="stale")
        fresh = Dat(m.edges, 1, name="fresh")
        # A Dat on the caller's edges in a loop over the sim's edges.
        with pytest.raises(ValueError):
            par_loop(touch, m.edges,
                     arg_dat(stale, IDX_ID, None, Access.READ),
                     arg_dat(fresh, IDX_ID, None, Access.WRITE),
                     runtime=sim.runtime)
        # A map taken from the caller's mesh in a loop over the sim's.
        with pytest.raises(ValueError):
            par_loop(touch, m.edges,
                     arg_dat(sim.state.p_adt, 0, raw.map("edge2cell"),
                             Access.READ),
                     arg_dat(fresh, IDX_ID, None, Access.WRITE),
                     runtime=sim.runtime)


class TestMeshIO:
    def test_roundtrip(self, tmp_path):
        m = make_tri_mesh(4, 3)
        p = tmp_path / "mesh.npz"
        save_mesh(m, p)
        r = load_mesh(p)
        assert r.summary() == m.summary()
        np.testing.assert_array_equal(
            r.map("edge2cell").values, m.map("edge2cell").values
        )
        np.testing.assert_allclose(r.coords, m.coords)
        np.testing.assert_array_equal(
            r.meta["is_boundary_edge"], m.meta["is_boundary_edge"]
        )

    def test_airfoil_roundtrip(self, tmp_path):
        m = make_airfoil_mesh(6, 3)
        p = tmp_path / "airfoil.npz"
        save_mesh(m, p)
        r = load_mesh(p)
        np.testing.assert_array_equal(r.meta["bound"], m.meta["bound"])
        r.validate()


class TestFootprint:
    def test_airfoil_footprint_matches_table4(self):
        # Table IV: small Airfoil mesh 94(47) MB in double(single).
        ni, nj = airfoil_paper_dims(720_000)
        sizes = {
            "nodes": ni * (nj + 1),
            "cells": ni * nj,
            "edges": 2 * ni * nj - ni,
            "bedges": 2 * ni,
        }
        dat_dims = {"nodes": 2, "cells": 13, "bedges": 1}
        data_dp = sum(sizes[s] * d * 8 for s, d in dat_dims.items())
        data_sp = data_dp // 2
        # Our data-only accounting gives 82.4 MB; the paper's 94 MB also
        # includes one 2-arity int32 edge map (+11.5 MB) — both brackets
        # hold the paper value between data-only and data+maps.
        maps_int32 = (sizes["edges"] * 4 + sizes["cells"] * 4) * 4
        assert data_dp / 2**20 < 94 < (data_dp + maps_int32) / 2**20
        assert data_sp / 2**20 < 47 < (data_sp + maps_int32) / 2**20

    def test_memory_footprint_api(self):
        m = make_airfoil_mesh(8, 4)
        fp = m.memory_footprint({"nodes": 2, "cells": 13, "bedges": 1})
        assert fp["data"] == (
            m.nodes.size * 2 + m.cells.size * 13 + m.bedges.size * 1
        ) * 8
        assert fp["total"] == fp["data"] + fp["maps"]


@given(st.integers(3, 20), st.integers(1, 10))
@settings(max_examples=25, deadline=None)
def test_property_airfoil_euler_formula(ni, nj):
    """V - E + F = 0 for the O-mesh (an annulus: Euler characteristic 0)."""
    m = make_airfoil_mesh(ni, nj)
    V = m.nodes.size
    E = m.edges.size + m.bedges.size
    F = m.cells.size
    assert V - E + F == 0


@given(st.integers(1, 12), st.integers(1, 12))
@settings(max_examples=25, deadline=None)
def test_property_tri_euler_formula(nx, ny):
    """V - E + F = 1 for the triangulated disc-like rectangle."""
    m = make_tri_mesh(nx, ny)
    assert m.nodes.size - m.edges.size + m.cells.size == 1
