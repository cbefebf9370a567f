"""Tests for the hierarchical timing tree (waLBerla TimingPool analog):
nested scope accounting, cross-rank reduction over virtual MPI,
counter-derived metrics, and the ``--profile`` CLI output shape."""

import json
import time

import pytest

from repro.comm.vmpi import VirtualMPI
from repro.core.timeloop import TimeLoop
from repro.perf.metrics import comm_bandwidth, mlups
from repro.perf.timing import (
    ReducedTimingTree,
    TimingTree,
    best_of,
    clear_timing_registry,
    get_timing_tree,
    reduce_over_comm,
    reduce_trees,
)


class TestNestedScopes:
    def test_nesting_and_counts(self):
        tree = TimingTree()
        for _ in range(3):
            with tree.scoped("outer"):
                with tree.scoped("inner"):
                    pass
                with tree.scoped("inner"):
                    pass
        outer = tree.node("outer")
        inner = tree.node("outer", "inner")
        assert outer.stats.calls == 3
        assert inner.stats.calls == 6
        # The child nests under the parent, not at top level.
        assert tree.node("inner") is None
        # Parent wall time includes its children's.
        assert outer.stats.total >= inner.stats.total
        assert outer.stats.min <= outer.stats.mean <= outer.stats.max

    def test_scope_reentry_after_exception(self):
        tree = TimingTree()
        with pytest.raises(RuntimeError):
            with tree.scoped("a"):
                raise RuntimeError("boom")
        # Stack unwound: new scopes land at the root again.
        with tree.scoped("b"):
            pass
        assert tree.node("a").stats.calls == 1
        assert tree.node("b") is not None
        assert tree.node("a", "b") is None

    def test_record_accounts_under_current_scope(self):
        tree = TimingTree()
        with tree.scoped("kernel"):
            tree.record("tier:vectorized", 0.25)
            tree.record("tier:vectorized", 0.75)
        node = tree.node("kernel", "tier:vectorized")
        assert node.stats.calls == 2
        assert node.stats.total == pytest.approx(1.0)
        assert node.stats.min == pytest.approx(0.25)
        assert node.stats.max == pytest.approx(0.75)

    def test_fraction_and_total(self):
        tree = TimingTree()
        tree.record("communication", 1.0)
        tree.record("kernel", 3.0)
        assert tree.total_seconds() == pytest.approx(4.0)
        assert tree.fraction("communication") == pytest.approx(0.25)
        assert tree.fraction("nonexistent") == 0.0

    def test_render_and_roundtrip(self):
        tree = TimingTree()
        with tree.scoped("sweep"):
            tree.record("sub", 0.5)
        tree.add_counter("cells_updated", 1000)
        text = tree.render()
        assert "sweep" in text and "sub" in text and "cells_updated" in text
        clone = TimingTree.from_dict(tree.to_dict())
        assert clone.node("sweep", "sub").stats.total == pytest.approx(0.5)
        assert clone.counter("cells_updated") == 1000

    def test_reset(self):
        tree = TimingTree()
        tree.record("a", 1.0)
        tree.add_counter("c", 5)
        tree.reset()
        assert tree.node("a") is None
        assert tree.counter("c") == 0.0

    def test_registry(self):
        clear_timing_registry()
        a = get_timing_tree("x")
        assert get_timing_tree("x") is a
        assert get_timing_tree("y") is not a
        clear_timing_registry()
        assert get_timing_tree("x") is not a


class TestReduction:
    def test_min_avg_max_over_four_ranks(self):
        trees = []
        durations = [1.0, 2.0, 3.0, 6.0]
        for d in durations:
            t = TimingTree()
            t.record("kernel", d)
            with t.scoped("communication"):
                t.record("pack", d / 10.0)
            trees.append(t)
        reduced = reduce_trees(trees)
        node = reduced.node("kernel")
        assert reduced.n_ranks == 4
        assert node.total_min == pytest.approx(1.0)
        assert node.total_max == pytest.approx(6.0)
        assert node.total_avg == pytest.approx(3.0)
        assert node.calls == 4
        pack = reduced.node("communication", "pack")
        assert pack.total_avg == pytest.approx(0.3)

    def test_partial_rank_participation(self):
        a = TimingTree()
        a.record("only_on_a", 2.0)
        b = TimingTree()
        b.record("shared", 1.0)
        a.record("shared", 3.0)
        reduced = reduce_trees([a, b])
        only = reduced.node("only_on_a")
        assert only.n_ranks == 1
        assert only.total_avg == pytest.approx(2.0)
        shared = reduced.node("shared")
        assert shared.n_ranks == 2
        assert shared.total_avg == pytest.approx(2.0)

    def test_counters_summed(self):
        trees = []
        for i in range(4):
            t = TimingTree()
            t.add_counter("cells_updated", 100 * (i + 1))
            trees.append(t)
        reduced = reduce_trees(trees)
        assert reduced.counters["cells_updated"] == pytest.approx(1000)

    def test_reduce_needs_trees(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            reduce_trees([])

    def test_reduce_over_vmpi_comm(self):
        """waLBerla's timing_pool.reduce(): gather + reduce over real
        (virtual) MPI ranks; exact min/avg/max on >= 4 ranks."""
        world = VirtualMPI(4)

        def program(comm):
            tree = TimingTree()
            tree.record("kernel", float(comm.rank + 1))
            tree.add_counter("cells_updated", 10.0)
            return reduce_over_comm(tree, comm, root=0)

        results = world.run(program)
        assert results[1] is None and results[2] is None and results[3] is None
        reduced = results[0]
        assert isinstance(reduced, ReducedTimingTree)
        node = reduced.node("kernel")
        assert node.total_min == pytest.approx(1.0)
        assert node.total_avg == pytest.approx(2.5)
        assert node.total_max == pytest.approx(4.0)
        assert reduced.counters["cells_updated"] == pytest.approx(40.0)

    def test_reduced_rows_and_fraction(self):
        t = TimingTree()
        t.record("communication", 1.0)
        t.record("kernel", 3.0)
        reduced = reduce_trees([t])
        assert reduced.fraction("communication") == pytest.approx(0.25)
        paths = [r["path"] for r in reduced.rows()]
        assert paths == ["communication", "kernel"]
        text = reduced.render()
        assert "min s" in text and "avg s" in text and "max s" in text


class TestDerivedMetrics:
    def test_counter_to_mlups(self):
        tree = TimingTree()
        tree.record("kernel", 2.0)
        tree.add_counter("cells_updated", 8_000_000)
        rate = mlups(tree.counter("cells_updated"), tree.node("kernel").stats.total)
        assert rate == pytest.approx(4.0)

    def test_bytes_to_bandwidth(self):
        tree = TimingTree()
        tree.record("communication", 0.5)
        tree.add_counter("comm.remote_bytes", 1024**2)
        bw = comm_bandwidth(
            tree.counter("comm.remote_bytes"),
            tree.node("communication").stats.total,
        )
        assert bw == pytest.approx(2 * 1024**2)
        assert comm_bandwidth(100.0, 0.0) == 0.0

    def test_best_of(self):
        calls = []

        def fn():
            calls.append(1)
            return "x"

        seconds, result = best_of(3, fn)
        assert len(calls) == 3 and result == "x" and seconds >= 0.0


class TestTimeLoopIntegration:
    def test_sweeps_record_into_tree(self):
        loop = TimeLoop()
        loop.add("a", lambda: None).add("b", lambda: time.sleep(0.001))
        loop.run(5)
        assert loop.tree.node("a").stats.calls == 5
        assert loop.tree.node("b").stats.calls == 5
        # Flat timings() view stays consistent with the tree.
        flat = loop.timings()
        assert set(flat) == {"a", "b"}
        assert flat["b"] == pytest.approx(
            loop.tree.node("b").stats.total, rel=0.5
        )
        assert "a" in loop.timing_report()

    def test_reset_clears_tree(self):
        loop = TimeLoop()
        loop.add("a", lambda: None)
        loop.run(2)
        loop.reset_timings()
        assert loop.tree.node("a") is None
        assert loop.timings()["a"] == 0.0

    def test_nested_subscopes_from_sweep(self):
        loop = TimeLoop()
        loop.add("comm", lambda: loop.tree.record("pack", 0.01))
        loop.run(3)
        assert loop.tree.node("comm", "pack").stats.calls == 3


class TestSimulationTrees:
    def test_single_block_kernel_tier_scope(self):
        import repro.flagdefs as fl
        from repro.core import Simulation
        from repro.lbm import NoSlip, TRT

        sim = Simulation(cells=(6, 6, 6), collision=TRT.from_tau(0.8))
        sim.flags.fill(fl.FLUID)
        sim.flags.data[0] = fl.NO_SLIP
        sim.flags.data[-1] = fl.NO_SLIP
        sim.add_boundary(NoSlip())
        sim.finalize()
        sim.run(3)
        tree = sim.timeloop.tree
        tier = tree.node("kernel", f"tier:{sim.kernel_name}")
        assert tier is not None and tier.stats.calls == 3
        assert tree.counter("cells_updated") > 0
        assert "tier:" in sim.timing_report()

    def test_distributed_comm_subscopes(self):
        from repro.balance import balance_forest
        from repro.blocks import SetupBlockForest
        from repro.comm import DistributedSimulation
        from repro.geometry import AABB
        from repro.lbm import NoSlip, TRT

        forest = SetupBlockForest.create(
            AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), (6, 6, 6)
        )
        balance_forest(forest, 2, strategy="round_robin")
        sim = DistributedSimulation(forest, TRT.from_tau(0.8))
        sim.run(3)
        tree = sim.timeloop.tree
        for sub in ("pack", "local copy", "unpack"):
            assert tree.node("communication", sub) is not None, sub
        assert tree.counter("comm.remote_bytes") > 0
        assert tree.counter("comm.remote_messages") == 2 * 3
        assert tree.counter("cells_updated") > 0
        assert 0.0 <= sim.comm_fraction() <= 1.0
        assert "communication" in sim.timing_report()


class TestProfileCli:
    def test_bare_profile_flag(self, capsys, tmp_path, monkeypatch):
        from repro.__main__ import main

        json_path = tmp_path / "prof.json"
        csv_path = tmp_path / "prof.csv"
        assert main([
            "--profile",
            "--profile-ranks", "2",
            "--profile-steps", "3",
            "--profile-json", str(json_path),
            "--profile-csv", str(csv_path),
        ]) == 0
        out = capsys.readouterr().out
        # Reduced hierarchical tree with comm sub-scopes and fraction.
        assert "communication" in out
        for sub in ("pack", "local copy", "wire", "unpack"):
            assert sub in out, sub
        assert "comm fraction" in out
        assert "min s" in out and "avg s" in out and "max s" in out
        payload = json.loads(json_path.read_text())
        assert payload["schema"] == "repro.profile/1"
        assert payload["ranks"] == 2
        assert payload["timing"]["n_ranks"] == 2
        names = [c["name"] for c in payload["timing"]["root"]["children"]]
        assert "communication" in names and "kernel" in names
        assert "comm fraction" in payload["derived"]
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("path,depth,calls,total_min")

    def test_profile_with_cavity_command(self, capsys, tmp_path):
        from repro.__main__ import main

        json_path = tmp_path / "cav.json"
        assert main([
            "--profile", "--profile-json", str(json_path),
            "cavity", "--size", "6", "--steps", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "tier:" in out
        payload = json.loads(json_path.read_text())
        assert payload["scenario"].startswith("cavity")
        assert payload["timing"]["schema"] == "repro.timing-tree-reduced/1"

    def test_command_required_without_profile(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main([])


class TestSpmdProfileDriver:
    def test_profile_spmd_cavity_shape(self):
        from repro.harness import profile_spmd_cavity

        result = profile_spmd_cavity(ranks=2, steps=4)
        assert result.ranks == 2
        assert result.reduced.n_ranks == 2
        for sub in ("pack", "local copy", "wire", "unpack"):
            assert result.reduced.node("communication", sub) is not None, sub
        assert result.reduced.node("kernel") is not None
        assert "comm fraction" in result.derived
        assert 0.0 <= result.derived["comm fraction"] <= 1.0
        assert result.reduced.counters["cells_updated"] > 0
        text = result.report()
        assert "per-sweep breakdown" in text
