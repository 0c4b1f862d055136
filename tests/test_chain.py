"""Deferred-execution loop chains: equivalence, analysis, fusion, caches.

The central contract: chained execution is **bitwise identical** to
eager execution — swept over the full backend × scheme matrix and both
data layouts for the Airfoil 5-loop time step, plus Volna, both for a
fresh compile and for a warm restart that replays plans and chains from
the persistent artifact store.  Around it, unit tests pin the dependency
analysis (RAW/WAR/WAW, commuting reductions), fusion legality (including
the rejections), the read/write barriers on Dat and Global, the
third-level chain cache, and the LRU bounds on all cache levels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import store
from repro.core import (
    INC,
    MAX,
    MIN,
    READ,
    RW,
    WRITE,
    Dat,
    Global,
    IDX_ID,
    LoopSpec,
    Map,
    PlanCache,
    Runtime,
    Set,
    analyze_dependencies,
    arg_dat,
    arg_gbl,
    kernel,
    pair_fusable,
    par_loop,
)
from repro.testing import (
    BACKEND_MATRIX,
    LAYOUT_MATRIX,
    assert_replayed_from_store,
    runtime_for,
)


# ----------------------------------------------------------------------
# Shared toy problem
# ----------------------------------------------------------------------
@kernel("chain_scale", flops=1)
def chain_scale(w, s):
    s[0] = 2.0 * w[0]


@chain_scale.vectorized
def chain_scale_vec(w, s):
    s[:, 0] = 2.0 * w[:, 0]


@kernel("chain_spmv", flops=2)
def chain_spmv(s, r0, r1):
    r0[0] += s[0]
    r1[0] += s[0]


@chain_spmv.vectorized
def chain_spmv_vec(s, r0, r1):
    r0[:, 0] += s[:, 0]
    r1[:, 0] += s[:, 0]


def ring_problem(n=40, seed=3):
    nodes = Set(n, "nodes")
    edges = Set(n, "edges")
    conn = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    e2n = Map(edges, nodes, 2, conn, "e2n")
    w = Dat(edges, 1, np.random.default_rng(seed).random(n), name="w")
    s = Dat(edges, 1, name="s")
    r = Dat(nodes, 1, name="r")
    return nodes, edges, e2n, w, s, r


def dummy_spec(set_, *args, name="dummy"):
    """A LoopSpec for pure-analysis tests (kernel never executes)."""
    k = kernel(name)(lambda *a: None)
    return LoopSpec(kernel=k, set=set_, args=tuple(args),
                    n=set_.total_size, start=0)


# ----------------------------------------------------------------------
# Chained == eager, bitwise, across the whole matrix
# ----------------------------------------------------------------------
class TestChainEagerEquivalence:
    @pytest.mark.parametrize("layout", LAYOUT_MATRIX)
    @pytest.mark.parametrize("name,scheme,options", BACKEND_MATRIX)
    def test_airfoil_three_steps_bitwise(self, name, scheme, options, layout):
        from repro.apps.airfoil import AirfoilSim
        from repro.mesh import make_airfoil_mesh

        eager = AirfoilSim(
            make_airfoil_mesh(12, 6),
            runtime=runtime_for(name, scheme, options, layout=layout),
            chained=False,
        )
        chained = AirfoilSim(
            make_airfoil_mesh(12, 6),
            runtime=runtime_for(name, scheme, options, layout=layout),
            chained=True,
        )
        eager.run(3)
        chained.run(3)
        for field in ("p_q", "p_qold", "p_adt", "p_res"):
            a = getattr(eager.state, field).data
            b = getattr(chained.state, field).data
            assert np.array_equal(a, b), f"{field} diverged on {name}/{scheme}/{layout}"
        assert eager.rms_history == chained.rms_history

    @pytest.mark.parametrize("layout", LAYOUT_MATRIX)
    def test_volna_three_steps_bitwise(self, layout):
        from repro.apps.volna import VolnaSim
        from repro.mesh import make_tri_mesh

        eager = VolnaSim(
            make_tri_mesh(10, 8), dtype=np.float64,
            runtime=runtime_for("vectorized", "two_level", {}, layout=layout),
            chained=False,
        )
        chained = VolnaSim(
            make_tri_mesh(10, 8), dtype=np.float64,
            runtime=runtime_for("vectorized", "two_level", {}, layout=layout),
            chained=True,
        )
        eager.run(3)
        chained.run(3)
        assert np.array_equal(eager.state.q.data, chained.state.q.data)
        assert np.array_equal(eager.state.rhs.data, chained.state.rhs.data)
        assert eager.dt_history == chained.dt_history

    @pytest.mark.parametrize("layout", LAYOUT_MATRIX)
    @pytest.mark.parametrize("name,scheme,options", BACKEND_MATRIX)
    def test_airfoil_restored_chain_bitwise(self, name, scheme, options,
                                            layout, fresh_store):
        """A fresh runtime replaying plans and chains from the store
        (a warm restart) matches eager bitwise."""
        from repro.apps.airfoil import AirfoilSim
        from repro.mesh import make_airfoil_mesh

        def run(chained):
            sim = AirfoilSim(
                make_airfoil_mesh(12, 6),
                runtime=runtime_for(name, scheme, options, layout=layout),
                chained=chained,
            )
            sim.run(3)
            return sim

        eager = run(False)
        run(True)
        store.reset_store_stats()
        restored = run(True)
        assert_replayed_from_store()
        for field in ("p_q", "p_qold", "p_adt", "p_res"):
            a = getattr(eager.state, field).data
            b = getattr(restored.state, field).data
            assert np.array_equal(a, b), f"{field} diverged on {name}/{scheme}/{layout}"
        assert eager.rms_history == restored.rms_history

    @pytest.mark.parametrize("layout", LAYOUT_MATRIX)
    @pytest.mark.parametrize("name,scheme,options", BACKEND_MATRIX)
    def test_volna_restored_chain_bitwise(self, name, scheme, options,
                                          layout, fresh_store):
        from repro.apps.volna import VolnaSim
        from repro.mesh import make_tri_mesh

        def run(chained):
            sim = VolnaSim(
                make_tri_mesh(10, 8), dtype=np.float64,
                runtime=runtime_for(name, scheme, options, layout=layout),
                chained=chained,
            )
            sim.run(3)
            return sim

        eager = run(False)
        run(True)
        store.reset_store_stats()
        restored = run(True)
        assert_replayed_from_store()
        assert np.array_equal(eager.state.q.data, restored.state.q.data)
        assert np.array_equal(eager.state.rhs.data, restored.state.rhs.data)
        assert eager.dt_history == restored.dt_history

    def test_chunked_vectorized_falls_back_identically(self):
        """vec=8 (chunked mode) cannot batch; replay must still match."""
        from repro.apps.airfoil import AirfoilSim
        from repro.mesh import make_airfoil_mesh
        from repro.core import make_backend

        eager = AirfoilSim(
            make_airfoil_mesh(10, 5),
            runtime=Runtime(make_backend("vectorized", vec=8), block_size=32),
            chained=False,
        )
        chained = AirfoilSim(
            make_airfoil_mesh(10, 5),
            runtime=Runtime(make_backend("vectorized", vec=8), block_size=32),
            chained=True,
        )
        eager.run(2)
        chained.run(2)
        assert np.array_equal(eager.state.p_q.data, chained.state.p_q.data)


# ----------------------------------------------------------------------
# Dependency analysis
# ----------------------------------------------------------------------
class TestDependencyAnalysis:
    def setup_method(self):
        self.nodes, self.edges, self.e2n, self.w, self.s, self.r = (
            ring_problem()
        )

    def test_raw_edge(self):
        a = dummy_spec(self.edges, arg_dat(self.s, IDX_ID, None, WRITE))
        b = dummy_spec(self.edges, arg_dat(self.s, IDX_ID, None, READ))
        an = analyze_dependencies([a, b])
        assert (0, 1) in an.edges
        assert an.levels == (0, 1)

    def test_war_edge(self):
        a = dummy_spec(self.edges, arg_dat(self.s, IDX_ID, None, READ))
        b = dummy_spec(self.edges, arg_dat(self.s, IDX_ID, None, WRITE))
        an = analyze_dependencies([a, b])
        assert (0, 1) in an.edges

    def test_waw_edge(self):
        a = dummy_spec(self.edges, arg_dat(self.s, IDX_ID, None, WRITE))
        b = dummy_spec(self.edges, arg_dat(self.s, IDX_ID, None, WRITE))
        an = analyze_dependencies([a, b])
        assert (0, 1) in an.edges

    def test_inc_inc_commutes(self):
        a = dummy_spec(self.edges, arg_dat(self.r, 0, self.e2n, INC))
        b = dummy_spec(self.edges, arg_dat(self.r, 1, self.e2n, INC))
        an = analyze_dependencies([a, b])
        assert an.edges == frozenset()
        assert an.levels == (0, 0)
        assert an.frontiers == ((0, 1),)

    def test_min_min_commutes_but_mixed_modes_order(self):
        g = Global(1, name="g")
        a = dummy_spec(self.edges, arg_gbl(g, MIN))
        b = dummy_spec(self.edges, arg_gbl(g, MIN))
        assert analyze_dependencies([a, b]).edges == frozenset()
        c = dummy_spec(self.edges, arg_gbl(g, INC))
        assert (0, 1) in analyze_dependencies([a, c]).edges

    def test_read_after_inc_orders(self):
        a = dummy_spec(self.edges, arg_dat(self.r, 0, self.e2n, INC))
        b = dummy_spec(self.nodes, arg_dat(self.r, IDX_ID, None, READ))
        an = analyze_dependencies([a, b])
        assert (0, 1) in an.edges

    def test_inc_after_read_orders(self):
        a = dummy_spec(self.nodes, arg_dat(self.r, IDX_ID, None, READ))
        b = dummy_spec(self.edges, arg_dat(self.r, 0, self.e2n, INC))
        an = analyze_dependencies([a, b])
        assert (0, 1) in an.edges

    def test_independent_loops_share_frontier(self):
        a = dummy_spec(self.edges, arg_dat(self.s, IDX_ID, None, WRITE))
        b = dummy_spec(self.nodes, arg_dat(self.r, IDX_ID, None, WRITE))
        an = analyze_dependencies([a, b])
        assert an.edges == frozenset()
        assert an.frontiers == ((0, 1),)

    def test_chain_of_three_levels(self):
        a = dummy_spec(self.edges,
                       arg_dat(self.w, IDX_ID, None, READ),
                       arg_dat(self.s, IDX_ID, None, WRITE))
        b = dummy_spec(self.edges,
                       arg_dat(self.s, IDX_ID, None, READ),
                       arg_dat(self.r, 0, self.e2n, INC))
        c = dummy_spec(self.nodes, arg_dat(self.r, IDX_ID, None, READ))
        an = analyze_dependencies([a, b, c])
        assert an.levels == (0, 1, 2)
        assert an.frontiers == ((0,), (1,), (2,))


# ----------------------------------------------------------------------
# Fusion legality
# ----------------------------------------------------------------------
class TestFusionLegality:
    def setup_method(self):
        self.nodes, self.edges, self.e2n, self.w, self.s, self.r = (
            ring_problem()
        )

    def test_direct_direct_dependency_is_fusable(self):
        a = dummy_spec(self.edges,
                       arg_dat(self.w, IDX_ID, None, READ),
                       arg_dat(self.s, IDX_ID, None, WRITE))
        b = dummy_spec(self.edges,
                       arg_dat(self.s, IDX_ID, None, RW))
        assert pair_fusable(a, b)

    def test_indirect_shared_write_rejected(self):
        a = dummy_spec(self.edges, arg_dat(self.r, 0, self.e2n, INC))
        b = dummy_spec(self.edges, arg_dat(self.r, 1, self.e2n, INC))
        assert not pair_fusable(a, b)

    def test_direct_write_vs_indirect_read_rejected(self):
        rn = Dat(self.nodes, 1, name="rn")
        a = dummy_spec(self.nodes, arg_dat(rn, IDX_ID, None, WRITE))
        b = dummy_spec(self.edges, arg_dat(rn, 0, self.e2n, READ))
        assert not pair_fusable(a, b)

    def test_shared_reads_are_fusable(self):
        a = dummy_spec(self.edges, arg_dat(self.w, IDX_ID, None, READ))
        b = dummy_spec(self.edges, arg_dat(self.w, IDX_ID, None, READ))
        assert pair_fusable(a, b)

    def test_global_read_vs_reduction_rejected(self):
        g = Global(1, name="g")
        a = dummy_spec(self.edges, arg_gbl(g, INC))
        b = dummy_spec(self.edges, arg_gbl(g, READ))
        assert not pair_fusable(a, b)
        # Same-mode reductions fold in loop order — fusable.
        c = dummy_spec(self.edges, arg_gbl(g, INC))
        assert pair_fusable(a, c)

    def test_groups_split_on_set_change_and_illegal_pairs(self):
        rt = Runtime("vectorized", block_size=16)
        with rt.chain() as ch:
            par_loop(chain_scale, self.edges,
                     arg_dat(self.w, IDX_ID, None, READ),
                     arg_dat(self.s, IDX_ID, None, WRITE), runtime=rt)
            par_loop(chain_spmv, self.edges,
                     arg_dat(self.s, IDX_ID, None, READ),
                     arg_dat(self.r, 0, self.e2n, INC),
                     arg_dat(self.r, 1, self.e2n, INC), runtime=rt)
        compiled = next(iter(rt._chains.values()))
        # scale (direct plan) and spmv (colored plan) cannot share a
        # plan: two singleton groups.
        assert [len(g.loops) for g in compiled.groups] == [1, 1]

    def test_airfoil_step_fuses_direct_cell_loops(self):
        from repro.apps.airfoil import AirfoilSim
        from repro.mesh import make_airfoil_mesh

        rt = Runtime("vectorized", block_size=32)
        sim = AirfoilSim(make_airfoil_mesh(10, 5), runtime=rt, chained=True)
        sim.step()
        compiled = next(iter(rt._chains.values()))
        names = [
            [bl.kernel.name for bl in g.loops] for g in compiled.groups
        ]
        assert ["save_soln", "adt_calc"] in names
        assert ["update", "adt_calc"] in names


# ----------------------------------------------------------------------
# Barriers and flush semantics
# ----------------------------------------------------------------------
class TestBarriersAndFlush:
    def setup_method(self):
        self.nodes, self.edges, self.e2n, self.w, self.s, self.r = (
            ring_problem()
        )

    def _spmv_args(self):
        return (
            arg_dat(self.w, IDX_ID, None, READ),
            arg_dat(self.r, 0, self.e2n, INC),
            arg_dat(self.r, 1, self.e2n, INC),
        )

    def test_dat_read_flushes_mid_chain(self):
        rt = Runtime("vectorized", block_size=16)
        with rt.chain() as ch:
            par_loop(chain_spmv, self.edges, *self._spmv_args(), runtime=rt)
            assert len(ch) == 1
            observed = self.r.data.copy()   # read barrier -> flush
            assert len(ch) == 0
        ref = Dat(self.nodes, 1, name="ref")
        par_loop(chain_spmv, self.edges,
                 arg_dat(self.w, IDX_ID, None, READ),
                 arg_dat(ref, 0, self.e2n, INC),
                 arg_dat(ref, 1, self.e2n, INC),
                 runtime=Runtime("vectorized", block_size=16))
        assert np.array_equal(observed, ref.data)

    def test_global_value_read_flushes(self):
        g = Global(1, name="acc")

        @kernel("gsum")
        def gsum(w, a):
            a[0] += w[0]

        @gsum.vectorized
        def gsum_vec(w, a):
            a[:, 0] += w[:, 0]

        rt = Runtime("vectorized", block_size=16)
        with rt.chain() as ch:
            par_loop(gsum, self.edges,
                     arg_dat(self.w, IDX_ID, None, READ),
                     arg_gbl(g, INC), runtime=rt)
            val = float(g.value)            # barrier flush
            assert len(ch) == 0
        assert val == pytest.approx(float(self.w.data.sum()))

    def test_exception_discards_trace(self):
        rt = Runtime("vectorized", block_size=16)
        before = self.r.data.copy()
        with pytest.raises(RuntimeError, match="boom"):
            with rt.chain():
                par_loop(chain_spmv, self.edges, *self._spmv_args(),
                         runtime=rt)
                raise RuntimeError("boom")
        assert np.array_equal(self.r.data, before)  # loop never executed
        assert self.r._barrier is None              # barrier disarmed

    def test_second_chain_on_shared_dat_flushes_first(self):
        """Two runtimes tracing over a shared Dat: recording into the
        second chain flushes the first, so the barrier always guards
        the latest pending writer and no read can be stale."""
        rt1 = Runtime("vectorized", block_size=16)
        rt2 = Runtime("sequential", block_size=16)
        with rt1.chain() as ch1:
            par_loop(chain_scale, self.edges,
                     arg_dat(self.w, IDX_ID, None, READ),
                     arg_dat(self.s, IDX_ID, None, WRITE), runtime=rt1)
            assert len(ch1) == 1
            with rt2.chain() as ch2:
                par_loop(chain_spmv, self.edges,
                         arg_dat(self.s, IDX_ID, None, READ),
                         arg_dat(self.r, 0, self.e2n, INC),
                         arg_dat(self.r, 1, self.e2n, INC), runtime=rt2)
                # Arming rt2's trace on `s` flushed rt1's pending write.
                assert len(ch1) == 0
                assert self.s._barrier is ch2
        expected = 2.0 * self.w.data
        assert np.array_equal(self.s.data, expected)
        ref = Dat(self.nodes, 1, name="ref2")
        par_loop(chain_spmv, self.edges,
                 arg_dat(self.s, IDX_ID, None, READ),
                 arg_dat(ref, 0, self.e2n, INC),
                 arg_dat(ref, 1, self.e2n, INC),
                 runtime=Runtime("vectorized", block_size=16))
        assert np.array_equal(self.r.data, ref.data)

    def test_chains_do_not_nest(self):
        rt = Runtime("vectorized")
        with rt.chain():
            with pytest.raises(RuntimeError, match="nest"):
                with rt.chain():
                    pass

    def test_validation_surfaces_at_flush(self):
        rt = Runtime("vectorized", block_size=16)
        other = Set(7, "other")
        bad = Dat(other, 1, name="bad")
        with pytest.raises(ValueError, match="lives on set"):
            with rt.chain():
                par_loop(chain_scale, self.edges,
                         arg_dat(bad, IDX_ID, None, READ),
                         arg_dat(self.s, IDX_ID, None, WRITE), runtime=rt)

    def test_bad_range_raises_like_eager(self):
        rt = Runtime("vectorized", block_size=16)
        with pytest.raises(ValueError, match="start_element 6 outside"):
            with rt.chain():
                par_loop(chain_scale, self.edges,
                         arg_dat(self.w, IDX_ID, None, READ),
                         arg_dat(self.s, IDX_ID, None, WRITE),
                         runtime=rt, n_elements=4, start_element=6)


# ----------------------------------------------------------------------
# Barrier edge cases: Global.value flush points, WAR with commuting args
# ----------------------------------------------------------------------
@kernel("gscale")
def gscale(w, g, s):
    s[0] = g[0] * w[0]


@gscale.vectorized
def gscale_vec(w, g, s):
    s[:, 0] = g[0] * w[:, 0]


@kernel("gmin")
def gmin(w, g):
    if w[0] < g[0]:
        g[0] = w[0]


@gmin.vectorized
def gmin_vec(w, g):
    np.minimum(g[:, 0], w[:, 0], out=g[:, 0])


class TestGlobalBarrierEdgeCases:
    def setup_method(self):
        self.nodes, self.edges, self.e2n, self.w, self.s, self.r = (
            ring_problem()
        )

    def test_host_write_to_read_global_flushes_pending_reader(self):
        """Writing Global.value mid-chain must flush a pending loop that
        READS the global, so the loop observes the pre-write value —
        exactly what eager execution would have seen (the Volna
        ``dt_used`` pattern)."""
        g = Global(1, 3.0, name="gain")
        rt = Runtime("vectorized", block_size=16)
        with rt.chain() as ch:
            par_loop(gscale, self.edges,
                     arg_dat(self.w, IDX_ID, None, READ),
                     arg_gbl(g, READ),
                     arg_dat(self.s, IDX_ID, None, WRITE), runtime=rt)
            assert len(ch) == 1
            g.value = 100.0            # write barrier -> flush first
            assert len(ch) == 0
        assert np.array_equal(self.s.data[:, 0], 3.0 * self.w.data[:, 0])
        assert float(g.value) == 100.0

    def test_min_reduction_value_read_flushes(self):
        """Reading a MIN-reduced Global mid-chain flushes and observes
        the reduced value (the Volna ``dt`` CFL pattern)."""
        g = Global(1, np.inf, name="dt")
        rt = Runtime("vectorized", block_size=16)
        with rt.chain() as ch:
            par_loop(gmin, self.edges,
                     arg_dat(self.w, IDX_ID, None, READ),
                     arg_gbl(g, MIN), runtime=rt)
            val = float(g.value)
            assert len(ch) == 0
        assert val == pytest.approx(float(self.w.data.min()))

    def test_global_data_read_flushes_like_value(self):
        g = Global(1, np.inf, name="dt2")
        rt = Runtime("vectorized", block_size=16)
        with rt.chain() as ch:
            par_loop(gmin, self.edges,
                     arg_dat(self.w, IDX_ID, None, READ),
                     arg_gbl(g, MIN), runtime=rt)
            arr = g.data                # ndarray accessor, same barrier
            assert len(ch) == 0
        assert float(arr[0]) == pytest.approx(float(self.w.data.min()))

    def test_chained_global_read_then_host_write_matches_eager(self):
        """Record a reader, host-write the global, record another
        reader: the first must see the old value, the second the new —
        bitwise as eager."""
        def run(chained):
            g = Global(1, 2.0, name="k")
            out1 = Dat(self.edges, 1, name="o1")
            out2 = Dat(self.edges, 1, name="o2")
            rt = Runtime("vectorized", block_size=16)

            def body():
                par_loop(gscale, self.edges,
                         arg_dat(self.w, IDX_ID, None, READ),
                         arg_gbl(g, READ),
                         arg_dat(out1, IDX_ID, None, WRITE), runtime=rt)
                g.value = 5.0
                par_loop(gscale, self.edges,
                         arg_dat(self.w, IDX_ID, None, READ),
                         arg_gbl(g, READ),
                         arg_dat(out2, IDX_ID, None, WRITE), runtime=rt)

            if chained:
                with rt.chain():
                    body()
            else:
                body()
            return out1.data.copy(), out2.data.copy()

        e1, e2 = run(chained=False)
        c1, c2 = run(chained=True)
        assert np.array_equal(e1, c1)
        assert np.array_equal(e2, c2)


class TestCommutingWARAnalysis:
    """WAR ordering around commuting INC/MIN/MAX reductions."""

    def setup_method(self):
        self.nodes, self.edges, self.e2n, self.w, self.s, self.r = (
            ring_problem()
        )

    def test_read_then_min_orders(self):
        g = Global(1, name="g")
        a = dummy_spec(self.edges, arg_gbl(g, READ))
        b = dummy_spec(self.edges, arg_gbl(g, MIN))
        an = analyze_dependencies([a, b])
        assert (0, 1) in an.edges          # WAR: reduce after read
        assert an.levels == (0, 1)

    def test_inc_read_inc_sandwich(self):
        """INC; READ; INC — the read must order against both reducers
        (read-after-reduce RAW, then reduce-after-read WAR), even
        though the two INCs commute with each other."""
        a = dummy_spec(self.edges, arg_dat(self.r, 0, self.e2n, INC))
        b = dummy_spec(self.nodes, arg_dat(self.r, IDX_ID, None, READ))
        c = dummy_spec(self.edges, arg_dat(self.r, 1, self.e2n, INC))
        an = analyze_dependencies([a, b, c])
        assert (0, 1) in an.edges
        assert (1, 2) in an.edges
        assert an.levels == (0, 1, 2)
        assert an.frontiers == ((0,), (1,), (2,))

    def test_mixed_reduction_modes_order_both_ways(self):
        g = Global(1, name="g")
        inc = dummy_spec(self.edges, arg_gbl(g, INC))
        mn = dummy_spec(self.edges, arg_gbl(g, MIN))
        mx = dummy_spec(self.edges, arg_gbl(g, MAX))
        an = analyze_dependencies([inc, mn, mx])
        assert (0, 1) in an.edges and (1, 2) in an.edges
        assert an.levels == (0, 1, 2)

    def test_write_after_commuting_reducers(self):
        """A plain WRITE after two commuting INCs must order against
        both (WAW through the reduction), and a subsequent INC starts a
        fresh commuting group."""
        a = dummy_spec(self.edges, arg_dat(self.r, 0, self.e2n, INC))
        b = dummy_spec(self.edges, arg_dat(self.r, 1, self.e2n, INC))
        c = dummy_spec(self.nodes, arg_dat(self.r, IDX_ID, None, WRITE))
        d = dummy_spec(self.edges, arg_dat(self.r, 0, self.e2n, INC))
        an = analyze_dependencies([a, b, c, d])
        assert (0, 2) in an.edges and (1, 2) in an.edges
        assert (2, 3) in an.edges          # RAW-ish: inc after write
        assert (0, 1) not in an.edges      # the INCs still commute
        assert an.levels == (0, 0, 1, 2)

    def test_war_execution_matches_eager(self):
        """Execution-level WAR regression: a loop reading a Dat followed
        by commuting increments of the same Dat must observe pre-
        increment values when chained — bitwise as eager."""
        def run(chained):
            r = Dat(self.nodes, 1,
                    np.arange(self.nodes.size, dtype=np.float64),
                    name="racc")
            snap = Dat(self.nodes, 1, name="snap")
            rt = Runtime("vectorized", block_size=16)

            def body():
                par_loop(chain_scale, self.nodes,
                         arg_dat(r, IDX_ID, None, READ),
                         arg_dat(snap, IDX_ID, None, WRITE), runtime=rt)
                par_loop(chain_spmv, self.edges,
                         arg_dat(self.w, IDX_ID, None, READ),
                         arg_dat(r, 0, self.e2n, INC),
                         arg_dat(r, 1, self.e2n, INC), runtime=rt)

            if chained:
                with rt.chain():
                    body()
            else:
                body()
            return snap.data.copy(), r.data.copy()

        es, er = run(chained=False)
        cs, cr = run(chained=True)
        assert np.array_equal(es, cs)
        assert np.array_equal(er, cr)


# ----------------------------------------------------------------------
# The chain cache (third level) and LRU bounds
# ----------------------------------------------------------------------
class TestCaches:
    def test_chain_cache_hits_on_steady_state(self):
        from repro.apps.airfoil import AirfoilSim
        from repro.mesh import make_airfoil_mesh

        rt = Runtime("vectorized", block_size=32)
        sim = AirfoilSim(make_airfoil_mesh(10, 5), runtime=rt, chained=True)
        sim.step()
        st = rt.stats()["chain_cache"]
        assert st["misses"] == 1 and st["hits"] == 0
        sim.run(3)
        st = rt.stats()["chain_cache"]
        assert st["misses"] == 1 and st["hits"] == 3

    def test_plan_cache_lru_eviction(self):
        cache = PlanCache(max_entries=2)
        sets = [Set(16, f"s{i}") for i in range(3)]
        for s in sets:
            cache.get(s, ())
        assert len(cache) == 2
        assert cache.evictions == 1
        # s0 was evicted: re-requesting it is a miss.
        misses = cache.misses
        cache.get(sets[0], ())
        assert cache.misses == misses + 1

    def test_plan_cache_lru_recency(self):
        cache = PlanCache(max_entries=2)
        s0, s1, s2 = (Set(16, f"t{i}") for i in range(3))
        cache.get(s0, ())
        cache.get(s1, ())
        cache.get(s0, ())   # refresh s0
        cache.get(s2, ())   # evicts s1, not s0
        hits = cache.hits
        cache.get(s0, ())
        assert cache.hits == hits + 1

    def test_loop_cache_lru_bound(self):
        rt = Runtime("vectorized", block_size=16, loop_cache_entries=2)
        sets = [Set(8, f"u{i}") for i in range(4)]
        dats = [Dat(s, 1, name=f"d{i}") for i, s in enumerate(sets)]
        for s, d in zip(sets, dats):
            par_loop(chain_scale, s,
                     arg_dat(d, IDX_ID, None, READ),
                     arg_dat(Dat(s, 1), IDX_ID, None, WRITE), runtime=rt)
        st = rt.stats()["loop_cache"]
        assert st["entries"] == 2
        assert st["evictions"] == 2

    def test_chain_cache_lru_bound(self):
        nodes, edges, e2n, w, s, r = ring_problem()
        rt = Runtime("vectorized", block_size=16, chain_cache_entries=1)
        out1 = Dat(edges, 1, name="out1")
        out2 = Dat(edges, 1, name="out2")
        for out in (out1, out2):  # two distinct trace signatures
            with rt.chain():
                par_loop(chain_scale, edges,
                         arg_dat(w, IDX_ID, None, READ),
                         arg_dat(out, IDX_ID, None, WRITE), runtime=rt)
        st = rt.stats()["chain_cache"]
        assert st["entries"] == 1
        assert st["evictions"] == 1

    def test_stats_exposes_all_levels(self):
        rt = Runtime("vectorized")
        st = rt.stats()
        for level in ("loop_cache", "plan_cache", "chain_cache"):
            assert {"hits", "misses", "evictions", "entries",
                    "max_entries"} <= set(st[level])
        assert "kernels" in st

    def test_clear_caches_clears_chains(self):
        nodes, edges, e2n, w, s, r = ring_problem()
        rt = Runtime("vectorized", block_size=16)
        with rt.chain():
            par_loop(chain_scale, edges,
                     arg_dat(w, IDX_ID, None, READ),
                     arg_dat(s, IDX_ID, None, WRITE), runtime=rt)
        assert rt.stats()["chain_cache"]["entries"] == 1
        rt.clear_caches()
        assert rt.stats()["chain_cache"]["entries"] == 0


# ----------------------------------------------------------------------
# Distributed chains: frontier-batched halo exchanges
# ----------------------------------------------------------------------
class TestDistributedChain:
    def test_chained_dist_airfoil_matches_serial_with_fewer_messages(self):
        from repro.apps.airfoil import AirfoilSim, DistributedAirfoilSim
        from repro.mesh import make_airfoil_mesh
        from repro.partition import rcb_partition

        serial = AirfoilSim(
            make_airfoil_mesh(12, 6),
            runtime=Runtime("vectorized", block_size=32), chained=False,
        )
        serial.run(3)

        results = {}
        for chained in (False, True):
            mesh = make_airfoil_mesh(12, 6)
            parts = rcb_partition(mesh.cell_centroids(), 3)
            dist = DistributedAirfoilSim(
                mesh, parts, 3, block_size=32, chained=chained
            )
            dist.run(3)
            results[chained] = (
                dist.fetch_q(),
                dist.ctx.comm.stats.messages,
                dist.rms_history,
            )
        np.testing.assert_allclose(
            results[True][0], serial.q, rtol=1e-10, atol=1e-12
        )
        np.testing.assert_allclose(
            results[True][0], results[False][0], rtol=0, atol=0
        )
        assert results[True][2] == results[False][2]
        # Frontier batching must strictly reduce the message count.
        assert 0 < results[True][1] < results[False][1]

    def test_dist_chain_barrier_flushes_on_fetch(self):
        from repro.apps.airfoil import DistributedAirfoilSim
        from repro.mesh import make_airfoil_mesh
        from repro.partition import rcb_partition

        mesh = make_airfoil_mesh(10, 5)
        parts = rcb_partition(mesh.cell_centroids(), 2)
        dist = DistributedAirfoilSim(mesh, parts, 2, block_size=32,
                                     chained=True)
        s = dist.serial.state
        loops = dist.serial._loop_args()
        with dist.ctx.chain() as ch:
            set_, *args = loops["save_soln"]
            dist.ctx.par_loop(dist.serial.kernels["save_soln"], set_, *args)
            assert len(ch) == 1
            q_old = dist.ctx.fetch(s.p_qold)  # local-dat barrier -> flush
            assert len(ch) == 0
        np.testing.assert_allclose(q_old, dist.ctx.fetch(s.p_q))
