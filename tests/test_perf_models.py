"""Tests for the performance models: roofline, ECM, networks, metrics —
asserting the paper's published numbers where they are exact."""

import numpy as np
import pytest

from repro.constants import D3Q19_BYTES_PER_CELL_WRITE_ALLOCATE
from repro.perf import (
    EcmModel,
    IslandTreeNetwork,
    JUQUEEN,
    NodeConfig,
    SUPERMUC,
    TorusNetwork,
    bandwidth_utilization,
    cross_island_fraction,
    exchange_time_from_counters,
    flops_estimate,
    lbm_traffic_per_cell,
    machine_roofline,
    measure_copy_bandwidth,
    mflups,
    mlups,
    network_for,
    node_kernel_mlups,
    parallel_efficiency,
    roofline_mlups,
)
from repro.errors import ConfigurationError


class TestRoofline:
    def test_traffic_456_bytes(self):
        # §4.1: "a total amount of 456 bytes per cell".
        assert lbm_traffic_per_cell() == 456
        assert D3Q19_BYTES_PER_CELL_WRITE_ALLOCATE == 456

    def test_nt_store_traffic(self):
        assert lbm_traffic_per_cell(write_allocate=False) == 304

    def test_supermuc_bound(self):
        # §4.1: 37.3 GiB/s : 456 B/LUP = 87.8 MLUPS.
        assert machine_roofline(SUPERMUC).mlups == pytest.approx(87.8, abs=0.1)

    def test_juqueen_bound(self):
        # §4.1: 32.4 GiB/s : 456 B/LUP = 76.2 MLUPS.
        assert machine_roofline(JUQUEEN).mlups == pytest.approx(76.2, abs=0.15)

    def test_node_doubles_socket(self):
        s = machine_roofline(SUPERMUC, per="socket").mlups
        n = machine_roofline(SUPERMUC, per="node").mlups
        assert n == pytest.approx(2 * s)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            roofline_mlups(0.0, 456)
        with pytest.raises(ValueError):
            machine_roofline(SUPERMUC, per="rack")


class TestEcm:
    def test_saturation_cores(self):
        # §4.1: "the memory interface can be saturated using only six of
        # the eight cores" at 2.7 GHz; 1.6 GHz needs all eight.
        ecm = EcmModel(SUPERMUC)
        assert ecm.saturation_cores(2.7e9) == 6
        assert ecm.saturation_cores(1.6e9) == 8

    def test_93_percent_at_1p6ghz(self):
        ecm = EcmModel(SUPERMUC)
        p27 = ecm.predict(8, clock_hz=2.7e9)
        p16 = ecm.predict(8, clock_hz=1.6e9)
        assert p16.mlups / p27.mlups == pytest.approx(0.93, abs=0.01)

    def test_25_percent_energy_saving(self):
        ecm = EcmModel(SUPERMUC)
        p27 = ecm.predict(8, clock_hz=2.7e9)
        p16 = ecm.predict(8, clock_hz=1.6e9)
        ratio = p16.energy_per_glup_j / p27.energy_per_glup_j
        assert ratio == pytest.approx(0.75, abs=0.02)

    def test_optimal_frequency_on_machine_steps(self):
        # §4.1: "the ECM model suggests an optimal clock frequency of
        # 1.6 GHz" — evaluated on SuperMUC's discrete frequency steps.
        ecm = EcmModel(SUPERMUC)
        steps = np.array([1.2, 1.4, 1.6, 1.8, 2.0, 2.3, 2.7]) * 1e9
        assert ecm.optimal_frequency(steps).clock_hz == pytest.approx(1.6e9)

    def test_full_socket_hits_roofline(self):
        ecm = EcmModel(SUPERMUC)
        p = ecm.predict(8)
        assert p.saturated
        assert p.mlups == pytest.approx(87.8, abs=0.1)

    def test_juqueen_smt_ladder(self):
        # Figure 5: 1-way ~45, 2-way ~62, 4-way ~73 MLUPS on a node.
        ecm = EcmModel(JUQUEEN)
        p1 = ecm.predict(16, smt=1).mlups
        p2 = ecm.predict(16, smt=2).mlups
        p4 = ecm.predict(16, smt=4).mlups
        assert p1 == pytest.approx(45.0, rel=0.05)
        assert p2 == pytest.approx(62.0, rel=0.05)
        assert p4 == pytest.approx(73.0, rel=0.05)
        assert p1 < p2 < p4

    def test_invalid_smt_rejected(self):
        with pytest.raises(ValueError):
            EcmModel(SUPERMUC).predict(8, smt=4)

    def test_invalid_cores_rejected(self):
        with pytest.raises(ValueError):
            EcmModel(SUPERMUC).predict(0)
        with pytest.raises(ValueError):
            EcmModel(SUPERMUC).predict(9)

    def test_single_core_slower_than_socket(self):
        ecm = EcmModel(SUPERMUC)
        assert ecm.predict(1).mlups < ecm.predict(8).mlups

    def test_performance_scales_linearly_before_saturation(self):
        ecm = EcmModel(SUPERMUC)
        p1 = ecm.predict(1)
        p3 = ecm.predict(3)
        assert not p3.saturated
        assert p3.mlups == pytest.approx(3 * p1.mlups)


class TestNetworks:
    def test_cross_island_zero_within_island(self):
        assert cross_island_fraction(512, 512) == 0.0
        assert cross_island_fraction(100, 512) == 0.0

    def test_cross_island_positive_beyond(self):
        x = cross_island_fraction(1024, 512)
        assert 0.0 < x < 1.0

    def test_torus_time_composition(self):
        net = TorusNetwork(link_bandwidth=1e9, latency_s=1e-6, routing_dilation=0.0)
        t = net.exchange_time(8, bytes_per_node=1e6, messages_per_node=10)
        assert t == pytest.approx(10e-6 + 1e-3)

    def test_torus_dilation_grows_with_size(self):
        net = TorusNetwork(link_bandwidth=1e9, latency_s=1e-6)
        small = net.exchange_time(2, 1e6, 10)
        large = net.exchange_time(2**14, 1e6, 10)
        assert large > small

    def test_island_tree_penalizes_multi_island(self):
        net = IslandTreeNetwork(
            link_bandwidth=1e9, latency_s=1e-6, island_nodes=512, pruning=4.0
        )
        inside = net.exchange_time(512, 1e6, 10)
        across = net.exchange_time(4096, 1e6, 10)
        assert across > inside
        assert net.islands_used(4096) == 8

    def test_network_for_dispatch(self):
        assert isinstance(network_for(JUQUEEN), TorusNetwork)
        assert isinstance(network_for(SUPERMUC), IslandTreeNetwork)

    def test_invalid_exchange_params(self):
        net = TorusNetwork(link_bandwidth=1e9, latency_s=1e-6)
        with pytest.raises(ValueError):
            net.exchange_time(0, 1e6, 1)
        with pytest.raises(ValueError):
            net.exchange_time(1, -1.0, 1)


class TestExchangeTimeFromCounters:
    """Counter-driven model validation: the helper must convert the
    buffer system's summed counters to the per-node per-step quantities
    the models are parameterized in."""

    NET = TorusNetwork(
        link_bandwidth=1e9, latency_s=1e-6, routing_dilation=0.0
    )

    def test_coalesced_counters(self):
        # 4 ranks x 10 steps, 6 messages and 1 MB per rank per step.
        counters = {
            "comm.remote_messages": 6.0 * 4 * 10,
            "comm.remote_bytes": 1e6 * 4 * 10,
        }
        t = exchange_time_from_counters(self.NET, counters, steps=10, ranks=4)
        assert t == pytest.approx(6e-6 + 1e-3)

    def test_per_face_run_predicts_longer_exchange(self):
        """Measured per-face and coalesced SPMD runs move the same bytes,
        but per-face sends more messages: its counters must price the
        extra latency (a per-face run recording no message count would
        predict the same time as coalesced)."""
        from repro.balance import balance_forest
        from repro.blocks import SetupBlockForest
        from repro.comm import VirtualMPI, run_spmd_simulation
        from repro.geometry import AABB
        from repro.lbm import NoSlip, TRT
        from repro.perf.timing import TimingTree, reduce_trees

        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2.0, 2.0, 1.0)), (2, 2, 1), (4, 4, 4)
        )
        balance_forest(forest, 2, strategy="morton")
        counters = {}
        for mode in ("per-face", "coalesced"):
            trees = [TimingTree(), TimingTree()]
            run_spmd_simulation(
                VirtualMPI(2), forest, TRT.from_tau(0.7), 3,
                conditions=[NoSlip()], timing_trees=trees, comm_mode=mode,
            )
            counters[mode] = reduce_trees(trees).counters
        per_face, coalesced = counters["per-face"], counters["coalesced"]
        assert per_face["comm.remote_bytes"] == coalesced["comm.remote_bytes"]
        assert per_face["comm.remote_messages"] > coalesced["comm.remote_messages"]
        t = {
            mode: exchange_time_from_counters(self.NET, c, steps=3, ranks=2)
            for mode, c in counters.items()
        }
        assert t["per-face"] > t["coalesced"]

    def test_accepts_reduced_tree(self):
        from repro.perf.timing import TimingTree, reduce_trees

        tree = TimingTree()
        with tree.scoped("communication"):
            tree.add_counter("comm.remote_messages", 30.0)
            tree.add_counter("comm.remote_bytes", 3e6)
        reduced = reduce_trees([tree])
        t = exchange_time_from_counters(self.NET, reduced, steps=3, ranks=1)
        assert t == pytest.approx(10e-6 + 1e-3)

    def test_measured_run_feeds_both_models(self):
        """End to end: counters from an actual coalesced SPMD run give
        finite, positive predictions for both paper machines."""
        from repro.balance import balance_forest
        from repro.blocks import SetupBlockForest
        from repro.comm import VirtualMPI, run_spmd_simulation
        from repro.geometry import AABB
        from repro.lbm import NoSlip, TRT
        from repro.perf.timing import TimingTree, reduce_trees

        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2.0, 1.0, 1.0)), (2, 1, 1), (4, 4, 4)
        )
        balance_forest(forest, 2, strategy="morton")
        trees = [TimingTree(), TimingTree()]
        run_spmd_simulation(
            VirtualMPI(2),
            forest,
            TRT.from_tau(0.7),
            4,
            conditions=[NoSlip()],
            timing_trees=trees,
            comm_mode="coalesced",
        )
        counters = reduce_trees(trees).counters
        assert counters.get("comm.remote_messages", 0) > 0
        for machine in (JUQUEEN, SUPERMUC):
            t = exchange_time_from_counters(
                network_for(machine), counters, steps=4, ranks=2, job_nodes=2
            )
            assert np.isfinite(t) and t > 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            exchange_time_from_counters(self.NET, {}, steps=0, ranks=1)
        with pytest.raises(ValueError):
            exchange_time_from_counters(self.NET, {}, steps=1, ranks=0)


class TestMetrics:
    def test_mlups(self):
        assert mlups(2e6, 2.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            mlups(1.0, 0.0)

    def test_mflups_alias(self):
        assert mflups(5e6, 1.0) == pytest.approx(5.0)

    def test_parallel_efficiency(self):
        assert parallel_efficiency(4.2, 4.55) == pytest.approx(0.923, abs=1e-3)

    def test_supermuc_bandwidth_utilization(self):
        # §4.2: 837e9 LUPS over 2^14 sockets at 40 GiB/s -> 54.2 %.
        util = bandwidth_utilization(
            837e9, available_bandwidth=2**14 * 40 * 1024**3
        )
        assert util == pytest.approx(0.542, abs=0.005)

    def test_juqueen_bandwidth_utilization(self):
        # §4.2: 1.93e12 LUPS over 28,672 nodes at 42.4 GiB/s -> 67.4 %.
        util = bandwidth_utilization(
            1.93e12, available_bandwidth=(458752 / 16) * 42.4 * 1024**3
        )
        assert util == pytest.approx(0.674, abs=0.005)

    def test_flops_estimate_matches_paper(self):
        # 837 GLUPS -> ~166 TFLOPS (paper's figure).
        assert flops_estimate(837e9) == pytest.approx(166e12, rel=0.05)


class TestMachineSpecs:
    def test_totals(self):
        assert SUPERMUC.total_cores == 147456
        assert JUQUEEN.total_cores == 458752
        assert SUPERMUC.cores_per_node == 16
        assert JUQUEEN.cores_per_node == 16

    def test_peak_flops(self):
        # 3.2 / 5.9 PFLOPS (§3).
        assert SUPERMUC.n_nodes * SUPERMUC.node_peak_flops == pytest.approx(
            3.2e15, rel=0.01
        )
        assert JUQUEEN.n_nodes * JUQUEEN.node_peak_flops == pytest.approx(
            5.9e15, rel=0.01
        )

    def test_bandwidth_at_nominal_clock(self):
        assert SUPERMUC.bandwidth_at_clock(2.7e9) == SUPERMUC.lbm_bandwidth

    def test_node_config_labels(self):
        assert NodeConfig(16, 4).label == "16P4T"
        assert NodeConfig(16, 4).smt_level(JUQUEEN) == 4
        with pytest.raises(ConfigurationError):
            NodeConfig(3, 5).smt_level(JUQUEEN)

    def test_node_kernel_rate_positive(self):
        assert node_kernel_mlups(SUPERMUC, NodeConfig(16, 1)) > 100.0
        assert node_kernel_mlups(JUQUEEN, NodeConfig(16, 4)) > 50.0


class TestStream:
    def test_host_copy_bandwidth_measured(self):
        r = measure_copy_bandwidth(n_doubles=1_000_000, repeats=2)
        assert r.bandwidth_bytes_per_s > 1e8  # any real machine beats 100 MB/s
        assert r.gib_per_s > 0
