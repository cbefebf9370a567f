"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench/tests``.

They use the ``tiny`` problem sizes, which run the same code paths as
the measured ``full`` sizes in a fraction of a second.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = run.load_spec()
with open(run.REFERENCE) as _fh:
    REFERENCE = json.load(_fh)


def _run_cli(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--size", "tiny", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    lines = _run_cli(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
        assert math.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0
    assert any("failed_fraction" in line for line in lines[:-1])


def _fluid_pdf(state):
    """A PDF array of the final state and the index of one fluid cell."""
    if hasattr(state, "pdfs"):                      # Simulation
        pdfs, mask = state.pdfs.src, state.flags.fluid_mask()
    elif hasattr(state, "fields"):                  # DistributedSimulation
        key = next(k for k in state.fields if state.flags[k].fluid_mask().any())
        pdfs, mask = state.fields[key].src, state.flags[key].fluid_mask()
    else:                                           # SPMD interior results
        pdfs = next(iter(state.result.values()))
        return pdfs, (5, 1, 1, 1)
    cell = tuple(int(i) + 1 for i in np.argwhere(mask)[0])  # ghost layer
    return pdfs, (5,) + cell


def _nan(state):
    pdfs, idx = _fluid_pdf(state)
    pdfs[idx] = np.nan


def _perturb(state):
    pdfs, idx = _fluid_pdf(state)
    pdfs[idx] += 0.05


@pytest.mark.parametrize("corrupt", [_nan, _perturb])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_final_field_counts_as_failure(workload, corrupt):
    wl = WORKLOADS[workload]("tiny", 0)
    tally, metrics, _facts, _detail = run.run_untraced(
        wl, 0.0, REFERENCE, corrupt=corrupt)
    assert tally.attempted >= 1
    assert tally.failed == tally.attempted


def test_self_time_of_concurrent_children_is_merged():
    tracer = spans.Tracer()
    parent = spans.Span(0, "exec.round", 0.0, None, "main", 1)
    parent.end = 10.0
    a = spans.Span(1, "lbm.kernels", 1.0, 0, "main", 1)
    a.end = 5.0
    b = spans.Span(2, "lbm.kernels", 3.0, 0, "main", 1)
    b.end = 7.0
    tracer.spans = [parent, a, b]
    selfs = spans.self_seconds(tracer.spans)
    assert selfs[("main", "exec.round")] == pytest.approx(4.0)
    assert selfs[("main", "lbm.kernels")] == pytest.approx(6.0)


@pytest.fixture(scope="module")
def traced():
    out = {}
    for name, cls in WORKLOADS.items():
        tally, layer, facts = run.run_traced(cls("tiny", 0), 0.2, REFERENCE)
        assert tally.failed == 0
        out[name] = (layer, run.layer_metrics(layer, facts, 10.0))
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_self_times_sum_to_at_most_step_wall(traced, workload):
    layer, _metrics = traced[workload]
    step_spans = layer["steps"].spans
    selfs = spans.self_seconds(step_spans)
    roots = spans.root_seconds(step_spans)
    assert roots
    for lane, wall in roots.items():
        total = sum(v for (ln, _name), v in selfs.items() if ln == lane)
        assert 0.0 < total <= wall + 1e-9


def test_layer_map(traced):
    dense = traced["dense_cavity"][1]
    hybrid = traced["dense_cavity_hybrid"][1]
    coronary = traced["coronary_sparse"][1]
    spmd = traced["spmd_exchange"][1]

    def boundary_share(m):
        return m["lbm.boundary.seconds"] / m["core.timeloop.step_seconds_p50"]

    assert boundary_share(coronary) > boundary_share(dense)
    for m in (dense, hybrid):
        assert not any(k.startswith("comm.") for k in m)
    for m in (dense, coronary, spmd):
        assert "exec.rounds" not in m and "exec.steals" not in m
    assert hybrid["exec.rounds"] >= 1 and "exec.steals" in hybrid
    assert spmd["comm.vmpi.messages"] == 2
    assert "core.timeloop.step_seconds_p50" not in spmd
    assert "geometry.seconds" in coronary and "geometry.seconds" not in dense
    assert "core.simulation.finalize_seconds" in dense


def test_missing_program_sources_fail_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_cavity",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
