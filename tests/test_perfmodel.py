"""Unit tests for the performance model: specs, transfers, predictions."""

import numpy as np
import pytest

from repro.core import INC, READ, RW, Dat, Global, Map, Set, arg_dat, arg_gbl
from repro.core.access import IDX_ALL, IDX_ID
from repro.perfmodel import (
    AUTOVEC_OPENMP,
    CALIBRATION,
    CUDA,
    MACHINES,
    OPENCL,
    SCALAR_MPI,
    SCALAR_OPENMP,
    VEC_MPI,
    VEC_OPENMP,
    airfoil_workload,
    analyze_loop,
    classify_loop,
    indirect_inc_values,
    predict_app,
    predict_kernel,
    table1_rows,
    volna_workload,
)


class TestMachines:
    def test_four_platforms(self):
        assert set(MACHINES) == {"CPU 1", "CPU 2", "Xeon Phi", "K40"}

    def test_table1_values(self):
        cpu1 = MACHINES["CPU 1"]
        assert cpu1.peak_gflops(np.float64) == 240.0
        assert cpu1.peak_gflops(np.float32) == 480.0
        assert cpu1.lanes(np.float64) == 4
        assert cpu1.lanes(np.float32) == 8
        phi = MACHINES["Xeon Phi"]
        assert phi.lanes(np.float32) == 16
        assert phi.stream_gbs == 171.0

    def test_flop_per_byte_matches_paper(self):
        # Table I: CPU1 3.42(6.48), CPU2 5.43(9.34), Phi 4.87(10.1),
        # K40 6.35(16.3) — computed as GEMM / STREAM.
        expect = {
            "CPU 1": (3.42, 6.48), "CPU 2": (5.43, 9.34),
            "Xeon Phi": (4.87, 10.1), "K40": (6.35, 16.3),
        }
        for name, (dp, sp) in expect.items():
            m = MACHINES[name]
            # The paper's ratios differ from GEMM/STREAM by up to ~9%
            # (likely computed from slightly different measurements).
            assert m.flop_per_byte_dp == pytest.approx(dp, rel=0.1)
            assert m.flop_per_byte_sp == pytest.approx(sp, rel=0.1)

    def test_table1_rows_render(self):
        rows = table1_rows()
        assert len(rows) == 4
        assert rows[0]["System"] == "CPU 1"


class TestTransferAnalysis:
    @pytest.mark.parametrize("seed", range(4))
    def test_distinct_targets_match_unique(self, seed):
        # Distinct targets counted over every map a Dat is reached
        # through equal np.unique's count, including maps that leave
        # targets untouched.
        rng = np.random.default_rng(seed)
        n_to = int(rng.integers(1, 50))
        to = Set(n_to, "to")
        frm = Set(int(rng.integers(1, 80)), "from")
        m2, m3 = (Map(frm, to, a, rng.integers(0, n_to, (frm.size, a)))
                  for a in (2, 3))
        acc = Dat(to, 2)
        args = [arg_dat(acc, 0, m2, INC), arg_dat(acc, 0, m3, READ)]
        touched = np.unique(np.concatenate(
            [m2.values.reshape(-1), m3.values.reshape(-1)])).size
        lt = analyze_loop("from", args, {to: "to", frm: "from"})
        # dim 2, read and written.
        assert lt.unique_per_elem["to"] == pytest.approx(
            touched / frm.size * 2 * 2)

    def setup_method(self):
        self.nodes = Set(10, "nodes")
        self.edges = Set(20, "edges")
        conn = np.random.default_rng(0).integers(0, 10, (20, 2))
        self.e2n = Map(self.edges, self.nodes, 2, conn, "e2n")
        self.names = {self.nodes: "nodes", self.edges: "edges"}

    def test_per_element_counts(self):
        w = Dat(self.edges, 3)
        x = Dat(self.nodes, 2)
        acc = Dat(self.nodes, 4)
        args = [
            arg_dat(w, IDX_ID, None, READ),
            arg_dat(x, 0, self.e2n, READ),
            arg_dat(x, 1, self.e2n, READ),
            arg_dat(acc, 0, self.e2n, INC),
        ]
        lt = analyze_loop("edges", args, self.names)
        assert lt.direct_read == 3
        assert lt.direct_write == 0
        assert lt.indirect_read == 2 + 2 + 4  # INC reads too
        assert lt.indirect_write == 4
        assert lt.per_element_values == 15
        assert lt.per_element_bytes(8) == 120

    def test_vector_arg_counts_all_slots(self):
        x = Dat(self.nodes, 2)
        args = [arg_dat(x, IDX_ALL, self.e2n, READ)]
        lt = analyze_loop("edges", args, self.names)
        assert lt.indirect_read == 4  # 2 slots x dim 2

    def test_rw_counts_both_directions(self):
        w = Dat(self.edges, 2)
        lt = analyze_loop(
            "edges", [arg_dat(w, IDX_ID, None, RW)], self.names
        )
        assert lt.direct_read == 2 and lt.direct_write == 2

    def test_unique_accounting_dedups_by_dat(self):
        x = Dat(self.nodes, 2)
        args = [
            arg_dat(x, 0, self.e2n, READ),
            arg_dat(x, 1, self.e2n, READ),
        ]
        lt = analyze_loop("edges", args, self.names)
        # x counted once per touched node, not once per slot.
        touched = np.unique(self.e2n.values).size
        expect = touched / self.edges.size * 2  # dim 2, read only
        assert lt.unique_per_elem["nodes"] == pytest.approx(expect)

    def test_useful_bytes_caps_at_set_size(self):
        x = Dat(self.nodes, 2)
        lt = analyze_loop(
            "edges",
            [arg_dat(x, 0, self.e2n, READ), arg_dat(x, 1, self.e2n, READ)],
            self.names,
        )
        huge = lt.useful_bytes(10**9, {"nodes": 100, "edges": 10**9}, 8)
        assert huge == 100 * 2 * 8  # capped at the whole set once

    def test_globals_ignored(self):
        g = Global(1)
        lt = analyze_loop("edges", [arg_gbl(g, INC)], self.names)
        assert lt.per_element_values == 0

    def test_classify(self):
        w = Dat(self.edges, 1)
        x = Dat(self.nodes, 1)
        direct = [arg_dat(w, IDX_ID, None, READ)]
        gather = direct + [arg_dat(x, 0, self.e2n, READ)]
        scatter = direct + [arg_dat(x, 0, self.e2n, INC)]
        assert classify_loop(direct) == "direct"
        assert classify_loop(gather) == "gather"
        assert classify_loop(scatter) == "scatter"

    def test_indirect_inc_values(self):
        x = Dat(self.nodes, 4)
        args = [
            arg_dat(x, 0, self.e2n, INC),
            arg_dat(x, 1, self.e2n, INC),
        ]
        assert indirect_inc_values(args) == 8
        assert indirect_inc_values([arg_dat(x, IDX_ALL, self.e2n, INC)]) == 8

    def test_flop_per_byte(self):
        w = Dat(self.edges, 1)
        lt = analyze_loop("edges", [arg_dat(w, IDX_ID, None, RW)], self.names)
        assert lt.flop_per_byte(16, 8) == 1.0


class TestWorkloads:
    def test_airfoil_workload_sizes(self):
        wl = airfoil_workload("large")
        assert wl.sizes["cells"] == 2_880_000
        assert set(wl.kernel_names()) == {
            "save_soln", "adt_calc", "res_calc", "bres_calc", "update"
        }
        assert wl.profile("res_calc").kind == "scatter"
        assert wl.profile("adt_calc").kind == "gather"
        assert wl.profile("save_soln").kind == "direct"
        assert wl.profile("update").has_reduction

    def test_volna_workload(self):
        wl = volna_workload()
        assert wl.profile("compute_flux").kind == "gather"
        assert wl.profile("space_disc").kind == "scatter"
        assert wl.profile("numerical_flux").has_reduction
        assert wl.profile("compute_flux").calls_per_iter == 2

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            airfoil_workload().profile("nope")

    def test_res_calc_useful_bytes_matches_hand_count(self):
        # DP, 2.8M mesh: cells*(q4 + adt1 + res 4r+4w) + nodes*2 = 345 MB.
        wl = airfoil_workload("large")
        p = wl.profile("res_calc")
        got = p.transfer.useful_bytes(
            wl.sizes["edges"], wl.sizes, 8
        )
        expect = (wl.sizes["cells"] * 13 + wl.sizes["nodes"] * 2) * 8
        assert got == pytest.approx(expect, rel=0.02)


class TestPredictions:
    @pytest.fixture(scope="class")
    def wl(self):
        return airfoil_workload("large")

    def test_scalar_cpu1_anchors(self, wl):
        # Within 25% of Table V's CPU 1 column.
        pred = predict_app(wl, MACHINES["CPU 1"], SCALAR_MPI, np.float64)
        anchors = {"save_soln": 4.0, "adt_calc": 24.6, "res_calc": 25.2,
                   "update": 14.05}
        for name, paper in anchors.items():
            assert pred.kernels[name].time_s == pytest.approx(
                paper, rel=0.25
            ), name

    def test_bottleneck_classification(self, wl):
        pred = predict_app(wl, MACHINES["CPU 1"], SCALAR_MPI, np.float64)
        assert pred.kernels["adt_calc"].bound == "compute"
        assert pred.kernels["save_soln"].bound == "bandwidth"
        # Vectorization turns adt_calc bandwidth-bound on CPU 2.
        pred2 = predict_app(wl, MACHINES["CPU 2"], VEC_MPI, np.float64)
        assert pred2.kernels["adt_calc"].bound == "bandwidth"

    def test_vectorization_speedup_bands(self, wl):
        for m, dtype, lo, hi in [
            (MACHINES["CPU 1"], np.float32, 1.5, 2.4),
            (MACHINES["CPU 1"], np.float64, 1.1, 1.5),
            (MACHINES["CPU 2"], np.float32, 1.4, 2.2),
        ]:
            s = (
                predict_app(wl, m, SCALAR_MPI, dtype).total_s
                / predict_app(wl, m, VEC_MPI, dtype).total_s
            )
            assert lo <= s <= hi, (m.name, dtype, s)
        phi = MACHINES["Xeon Phi"]
        s = (
            predict_app(wl, phi, SCALAR_OPENMP, np.float32).total_s
            / predict_app(wl, phi, VEC_OPENMP, np.float32).total_s
        )
        assert 1.9 <= s <= 2.5

    def test_autovec_worse_than_scalar_on_phi(self, wl):
        phi = MACHINES["Xeon Phi"]
        assert (
            predict_app(wl, phi, AUTOVEC_OPENMP).total_s
            > predict_app(wl, phi, SCALAR_OPENMP).total_s
        )

    def test_opencl_between_scalar_and_intrinsics_on_phi(self, wl):
        phi = MACHINES["Xeon Phi"]
        scalar = predict_app(wl, phi, SCALAR_OPENMP).total_s
        ocl = predict_app(wl, phi, OPENCL).total_s
        intr = predict_app(wl, phi, VEC_OPENMP).total_s
        assert intr < ocl < scalar

    def test_small_problem_hurts_phi_more(self, wl):
        small = airfoil_workload("small")
        phi = MACHINES["Xeon Phi"]
        cpu = MACHINES["CPU 1"]
        phi_ratio = (
            4 * predict_app(small, phi, VEC_OPENMP).total_s
            / predict_app(wl, phi, VEC_OPENMP).total_s
        )
        cpu_ratio = (
            4 * predict_app(small, cpu, VEC_MPI).total_s
            / predict_app(wl, cpu, VEC_MPI).total_s
        )
        assert phi_ratio > cpu_ratio > 0.95

    def test_mpi_wait_accounted(self, wl):
        pred = predict_app(wl, MACHINES["Xeon Phi"], VEC_OPENMP)
        assert pred.mpi_wait_s > 0
        assert pred.total_s > sum(k.time_s for k in pred.kernels.values())
        # CUDA has no MPI layer in these single-device runs.
        assert predict_app(wl, MACHINES["K40"], CUDA).mpi_wait_s == 0

    def test_sp_faster_than_dp_everywhere(self, wl):
        for mname, cfg in [("CPU 1", VEC_MPI), ("Xeon Phi", VEC_OPENMP),
                           ("K40", CUDA)]:
            m = MACHINES[mname]
            sp = predict_app(wl, m, cfg, np.float32).total_s
            dp = predict_app(wl, m, cfg, np.float64).total_s
            assert sp < dp

    def test_vectorized_sp_near_2x_dp(self, wl):
        # Paper: vectorized code shows 1.8-2.1x going DP -> SP.
        m = MACHINES["CPU 1"]
        sp = predict_app(wl, m, VEC_MPI, np.float32).total_s
        dp = predict_app(wl, m, VEC_MPI, np.float64).total_s
        assert 1.6 <= dp / sp <= 2.2

    def test_calibration_tables_complete(self):
        for arch, cal in CALIBRATION.items():
            for table in (cal.mem_eff_scalar, cal.mem_eff_vec,
                          cal.mem_eff_auto):
                assert set(table) == {"direct", "gather", "scatter"}, arch
            assert set(cal.scheme_eff) == {
                "two_level", "full_permute", "block_permute"
            }

    def test_kernel_prediction_fields(self, wl):
        p = predict_kernel(
            wl.profile("res_calc"), MACHINES["CPU 1"], VEC_MPI, wl.sizes
        )
        assert p.time_s > 0 and p.bandwidth_gbs > 0 and p.gflops > 0
        assert p.vectorized
        assert p.time_per_call_s * 2000 == pytest.approx(p.time_s)
