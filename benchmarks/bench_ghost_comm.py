"""Ghost-layer communication benchmark: per-face vs bulk-coalesced
exchange on a >= 8-block SPMD run.

Per ``comm_mode`` this runs the same lid-driven-cavity problem through
:func:`repro.comm.run_spmd_simulation` with per-rank timing trees and
reports

* **messages/step** — per-face posts one message per (block, face)
  pair; coalesced exactly one per rank pair (read back from the
  ``comm.remote_messages`` counter),
* **bytes/step** — identical across modes (coalescing repacks, it does
  not re-send), read from the ``comm.remote_bytes`` counter,
* **comm-stage seconds** — the top-level ``communication`` scope of
  the reduced timing tree (max over ranks: the critical path),
  best-of ``REPEATS`` interleaved samples,
* **total MLUPS** — cell updates over accounted wall time.

The result lands in ``BENCH_comm.json`` next to the repo root so the
bench trajectory has data, together with the interconnect-model
validation of :func:`repro.perf.network.exchange_time_from_counters`:
the measured counters of the coalesced run are fed through the JUQUEEN
torus and SuperMUC island-tree models of §3, which isolates the latency
term (message count) from the bandwidth term (byte volume).

Run directly (``PYTHONPATH=src python benchmarks/bench_ghost_comm.py``)
or via pytest (``pytest benchmarks/bench_ghost_comm.py``).
"""

import json
import os
import time

import pytest

from repro import flagdefs as fl
from repro.balance import balance_forest
from repro.blocks import SetupBlockForest, view_for_rank
from repro.comm import (
    COMM_MODES,
    VirtualMPI,
    build_rank_plan,
    run_spmd_simulation,
)
from repro.comm.distributed import build_block_flags
from repro.geometry import AABB
from repro.lbm import NoSlip, TRT, UBB
from repro.perf.machines import JUQUEEN, SUPERMUC
from repro.perf.network import exchange_time_from_counters, network_for
from repro.perf.timing import TimingTree, reduce_trees

RANKS = 4
GRID = (4, 2, 2)          # 16 blocks — comfortably past the 8-block floor
CELLS = (10, 10, 10)      # small faces: the latency term dominates
STEPS = 30
REPEATS = 3               # interleaved best-of, as the other benches do
OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_comm.json")


def _lid_setter(blk, ff):
    gx, gy, gz = GRID
    d = ff.data
    i, j, k = blk.grid_index
    if i == 0:
        d[0] = fl.NO_SLIP
    if i == gx - 1:
        d[-1] = fl.NO_SLIP
    if j == 0:
        d[:, 0] = fl.NO_SLIP
    if j == gy - 1:
        d[:, -1] = fl.NO_SLIP
    if k == 0:
        d[:, :, 0] = fl.NO_SLIP
    if k == gz - 1:
        d[:, :, -1] = fl.VELOCITY_BC


def _forest():
    forest = SetupBlockForest.create(
        AABB((0, 0, 0), tuple(float(g) for g in GRID)), GRID, CELLS
    )
    balance_forest(forest, RANKS, strategy="morton")
    return forest


def _per_face_messages_per_step(forest) -> int:
    """What the per-face path posts each step: one send per (block, face)
    with a remote neighbor and a value a fluid cell pulls, summed over
    all ranks — plans built from the blocks' FLUID masks, as the
    drivers build them."""
    total = 0
    for r in range(RANKS):
        view = view_for_rank(forest, r)
        fluid = {
            blk.id: build_block_flags(blk, flag_setter=_lid_setter).mask(
                fl.FLUID, include_ghost=True
            )
            for blk in view.blocks
        }
        total += len(build_rank_plan(view, r, fluid).sends)
    return total


def _run(mode: str):
    trees = [TimingTree() for _ in range(RANKS)]
    world = VirtualMPI(RANKS)
    t0 = time.perf_counter()
    result = run_spmd_simulation(
        world,
        _forest(),
        TRT.from_tau(0.65),
        STEPS,
        conditions=[NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))],
        flag_setter=_lid_setter,
        timing_trees=trees,
        comm_mode=mode,
    )
    wall = time.perf_counter() - t0
    return result, reduce_trees(trees), wall


def _comm_seconds(reduced) -> tuple:
    """(avg, max-over-ranks) seconds in the top-level communication scope."""
    node = reduced.root.children["communication"]
    return node.total_avg, node.total_max


def _collect(mode: str) -> dict:
    best = None
    for _ in range(REPEATS):
        _, reduced, wall = _run(mode)
        comm_avg, comm_max = _comm_seconds(reduced)
        if best is None or comm_max < best["comm_seconds_max"]:
            c = reduced.counters
            messages = c.get("comm.remote_messages", 0.0)
            nbytes = c.get("comm.remote_bytes", 0.0)
            updates = c.get("cells_updated", 0.0)
            best = {
                "comm_mode": mode,
                "messages_per_step": messages / STEPS,
                "bytes_per_step": nbytes / STEPS,
                "comm_seconds_avg": comm_avg,
                "comm_seconds_max": comm_max,
                "comm_fraction": comm_avg / reduced.total_seconds(),
                "wall_seconds": wall,
                "mlups": updates / wall / 1e6,
                "counters": {
                    k: v for k, v in sorted(c.items()) if k.startswith("comm.")
                },
            }
    return best


def _model_validation(reduced) -> dict:
    """Feed the measured coalesced counters through the §3 interconnect
    models — the per-node per-step exchange time each machine's network
    would need for this traffic."""
    out = {}
    for machine in (JUQUEEN, SUPERMUC):
        model = network_for(machine)
        out[machine.name] = {
            "network_kind": machine.network_kind,
            "predicted_exchange_seconds_1_node": exchange_time_from_counters(
                model, reduced.counters, steps=STEPS, ranks=RANKS, job_nodes=1
            ),
            "predicted_exchange_seconds_4096_nodes": exchange_time_from_counters(
                model, reduced.counters, steps=STEPS, ranks=RANKS, job_nodes=4096
            ),
        }
    return out


def run_benchmark(write_json: bool = True) -> dict:
    forest = _forest()
    modes = {m: _collect(m) for m in COMM_MODES}

    # One extra instrumented coalesced run feeds the network models.
    _, reduced, _ = _run("coalesced")
    payload = {
        "schema": "repro.bench-comm/1",
        "ranks": RANKS,
        "blocks": len(forest.blocks),
        "cells_per_block": list(CELLS),
        "steps": STEPS,
        "repeats": REPEATS,
        "modes": modes,
        "network_model_validation": _model_validation(reduced),
    }
    if write_json:
        with open(OUT_PATH, "w") as fh:
            json.dump(payload, fh, indent=2)
    return payload


@pytest.mark.bench
def test_coalescing_reduces_messages_and_comm_time():
    """The acceptance numbers: one message per rank pair per step beats
    one per block face, and the comm stage gets cheaper for it."""
    payload = run_benchmark()
    per_face = payload["modes"]["per-face"]
    coalesced = payload["modes"]["coalesced"]

    # Message coalescing: strictly fewer messages, same byte volume.
    assert per_face["messages_per_step"] == _per_face_messages_per_step(_forest())
    assert coalesced["messages_per_step"] < per_face["messages_per_step"]
    assert coalesced["messages_per_step"] <= RANKS * (RANKS - 1)
    assert coalesced["bytes_per_step"] == per_face["bytes_per_step"]

    # The point of the exercise: comm-stage time goes down.
    assert coalesced["comm_seconds_max"] < per_face["comm_seconds_max"]

    # Model validation is finite and ordered sensibly: the pruned tree
    # beyond one island is slower than inside it.
    val = payload["network_model_validation"]
    for entry in val.values():
        assert entry["predicted_exchange_seconds_1_node"] > 0.0
    sm = val["SuperMUC"]
    assert (
        sm["predicted_exchange_seconds_4096_nodes"]
        > sm["predicted_exchange_seconds_1_node"]
    )


def main():
    payload = run_benchmark()
    print(f"{'mode':<10} {'msg/step':>9} {'kB/step':>9} "
          f"{'comm max (s)':>13} {'MLUPS':>8}")
    for mode, row in payload["modes"].items():
        print(
            f"{mode:<10} {row['messages_per_step']:>9.0f} "
            f"{row['bytes_per_step'] / 1024:>9.1f} "
            f"{row['comm_seconds_max']:>13.4f} {row['mlups']:>8.2f}"
        )
    for name, entry in payload["network_model_validation"].items():
        print(
            f"{name}: predicted exchange "
            f"{entry['predicted_exchange_seconds_1_node'] * 1e6:.1f} us/step "
            f"(1 node) -> "
            f"{entry['predicted_exchange_seconds_4096_nodes'] * 1e6:.1f} us/step "
            f"(4096 nodes)"
        )
    print(f"wrote {os.path.abspath(OUT_PATH)}")


if __name__ == "__main__":
    main()
