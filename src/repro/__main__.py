"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``       framework + machine-model summary
``figures``    regenerate every paper figure (paper-vs-ours tables)
``cavity``     run a lid-driven cavity and print performance
``coronary``   run the coronary pipeline end to end
``lint``       static MPI/kernel/hygiene analysis of the source tree

Linting
-------
``python -m repro lint [PATH ...]`` runs the custom static analyzers
(vMPI protocol correctness, kernel allocation contracts, framework
hygiene — see ``docs/static-analysis.md``) over the given paths
(default ``src/repro``) and exits non-zero on any finding.
``--format=json`` emits the machine-readable report consumed by CI;
``--baseline``/``--write-baseline`` support incremental adoption.

Resilience
----------
``--chaos <seed>`` runs the SPMD cavity over a fault-injected virtual
MPI transport (delays, reordering, duplication, drops, stalls sampled
deterministically from the seed), verifies the result is bit-identical
to a fault-free baseline, and prints the injected-fault and
recovery counters.  Adding ``--checkpoint-every N`` also schedules a
rank crash, restarts from the last atomic checkpoint, and verifies the
recovered state.  ``cavity``/``coronary`` accept ``--checkpoint PATH``
+ ``--checkpoint-every N`` for periodic checkpointing and ``--restart``
to resume from the file.  See ``docs/resilience.md``.

Profiling
---------
``--profile`` turns on the hierarchical timing tree (waLBerla's timing
pool, §4 of the paper).  On its own — ``python -m repro --profile`` —
it runs the lid-driven cavity as an SPMD program over virtual MPI
ranks, prints the rank-reduced (min/avg/max) timing tree with the
per-sweep communication fraction, and writes a machine-readable JSON
report when ``--profile-json PATH`` is given; add ``--profile-csv`` for
a flat per-scope CSV.  Combined with ``cavity``
or ``coronary`` it profiles that scenario instead.  See
``docs/profiling.md``.
"""

from __future__ import annotations

import argparse
import sys
import time


def _cmd_info(_args) -> int:
    from . import __version__
    from .perf import JUQUEEN, SUPERMUC, machine_roofline

    print(f"repro {__version__} — waLBerla SC13 reproduction")
    print("\nMachine models:")
    for m in (SUPERMUC, JUQUEEN):
        roof = machine_roofline(m).mlups
        print(
            f"  {m.name}: {m.architecture}, {m.total_cores} cores, "
            f"{m.clock_hz / 1e9:.1f} GHz, roofline {roof:.1f} MLUPS/socket"
        )
    print("\nSubpackages: lbm, core, blocks, geometry, comm, balance, perf,")
    print("             harness, io")
    print("Run `python -m repro figures` to regenerate the paper's results.")
    return 0


def _cmd_figures(args) -> int:
    from .harness import (
        fig1_partitioning,
        fig3_kernel_tiers,
        fig4_ecm_frequency,
        fig5_smt,
        fig6_weak_dense,
        fig7_weak_coronary,
        fig8_strong_coronary,
        paper_block_model,
        roofline_summary,
    )

    results = [
        roofline_summary(),
        fig3_kernel_tiers(cells=(32, 32, 32), steps=3),
        fig4_ecm_frequency(),
        fig5_smt(),
    ]
    if not args.fast:
        bm = paper_block_model(samples=100_000)
        results += [
            fig1_partitioning(bm),
            fig6_weak_dense(core_exponents=(5, 9, 13, 17)),
            fig7_weak_coronary(bm, core_exponents=(9, 12, 15, 17)),
            fig8_strong_coronary(
                bm,
                core_exponents_supermuc=(4, 8, 11, 15),
                core_exponents_juqueen=(9, 13, 17),
            ),
        ]
    for r in results:
        print(r.report)
    if args.csv:
        written = [p for r in results for p in r.to_csv(args.csv)]
        print(f"\nwrote {len(written)} CSV files to {args.csv}")
    return 0


def _emit_profile(timeloop, args, scenario: str, derived=None) -> None:
    """Print the reduced timing tree + comm breakdown for one in-process
    run and write the requested JSON and CSV reports."""
    from .harness import format_comm_breakdown, format_timing_tree
    from .perf.timing import reduce_trees

    reduced = reduce_trees([timeloop.tree])
    print()
    print(format_timing_tree(
        reduced, title=f"{scenario} ({timeloop.steps_run} steps)"
    ))
    print()
    print(format_comm_breakdown(reduced))
    if derived:
        print("derived metrics:")
        for k, v in derived.items():
            print(f"  {k:<28s} {v:,.3f}")
    if args.profile_json:
        import json

        payload = {
            "schema": "repro.profile/1",
            "scenario": scenario,
            "ranks": 1,
            "steps": timeloop.steps_run,
            "derived": dict(derived or {}),
            "timing": reduced.to_dict(),
        }
        with open(args.profile_json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.profile_json}")
    if args.profile_csv:
        _write_profile_csv(reduced, args.profile_csv)
        print(f"wrote {args.profile_csv}")


def _write_profile_csv(reduced, path: str) -> None:
    """Flat per-scope CSV of a reduced timing tree."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=[
                "path", "depth", "calls",
                "total_min", "total_avg", "total_max", "n_ranks",
            ],
        )
        writer.writeheader()
        writer.writerows(reduced.rows())


def _cmd_profile(args) -> int:
    """Bare ``--profile``: the SPMD cavity profile across virtual ranks."""
    from .harness import profile_spmd_cavity

    result = profile_spmd_cavity(
        ranks=args.profile_ranks, steps=args.profile_steps
    )
    print(result.report())
    if args.profile_json:
        result.to_json(args.profile_json)
        print(f"\nwrote {args.profile_json}")
    if args.profile_csv:
        result.to_csv(args.profile_csv)
        print(f"wrote {args.profile_csv}")
    return 0


def _build_chaos_cavity(ranks: int):
    """Forest + setter + params for the chaos demonstration cavity."""
    from .balance import balance_forest
    from .blocks import SetupBlockForest
    from .geometry import AABB
    from .harness.paper_case import _lid_setter

    grid = (2, 1, max(1, ranks // 2))
    forest = SetupBlockForest.create(
        AABB((0, 0, 0), tuple(float(g) for g in grid)), grid, (6, 6, 6)
    )
    balance_forest(forest, ranks, strategy="morton")
    return forest, _lid_setter(grid)


def _cmd_chaos(args) -> int:
    """``--chaos <seed>``: the SPMD cavity under a sampled fault schedule,
    verified bit-identical against a fault-free baseline (plus a crash +
    checkpoint-restart cycle when ``--checkpoint-every`` is given)."""
    import numpy as np

    from .comm import FaultInjector, FaultSpec, VirtualMPI, run_spmd_simulation
    from .errors import RankCrashedError
    from .lbm import NoSlip, TRT, UBB
    from .perf.timing import TimingTree, reduce_trees

    seed = args.chaos
    ranks = args.profile_ranks
    steps = args.profile_steps
    forest, setter = _build_chaos_cavity(ranks)
    bcs = [NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))]
    col = TRT.from_tau(0.65)
    common = dict(conditions=bcs, flag_setter=setter)

    baseline = run_spmd_simulation(
        VirtualMPI(ranks), forest, col, steps, **common
    )
    spec = FaultSpec.sample(seed)
    injector = FaultInjector(spec, seed)
    trees = [TimingTree() for _ in range(ranks)]
    result = run_spmd_simulation(
        VirtualMPI(ranks, faults=injector), forest, col, steps,
        timing_trees=trees, **common,
    )
    identical = set(result) == set(baseline) and all(
        np.array_equal(result[k], baseline[k]) for k in baseline
    )
    reduced = reduce_trees(trees)
    print(f"chaos cavity: seed {seed}, {ranks} ranks, {steps} steps")
    print(f"  schedule: {spec}")
    print(f"  {injector.report()}")
    recovery = {
        k: v for k, v in sorted(reduced.counters.items())
        if k.startswith("comm.")
        and k not in ("comm.remote_bytes", "comm.remote_messages", "comm.local_bytes")
    }
    print(f"  recovery counters: {recovery}")
    print(f"  bit-identical to fault-free baseline: {identical}")
    ok = identical

    if args.checkpoint_every:
        import os
        import tempfile

        every = args.checkpoint_every
        crash_step = max(every, (steps * 2) // 3)
        ckpt = args.checkpoint or os.path.join(
            tempfile.gettempdir(), f"repro_chaos_{seed}.npz"
        )
        crash_spec = spec.with_crash(rank=ranks - 1, step=crash_step)
        try:
            run_spmd_simulation(
                VirtualMPI(ranks, faults=FaultInjector(crash_spec, seed)),
                forest, col, steps,
                checkpoint_every=every, checkpoint_path=ckpt, **common,
            )
            print("  crash drill: rank did not crash (unexpected)")
            ok = False
        except RankCrashedError as exc:
            print(f"  crash drill: {exc}")
            recovered = run_spmd_simulation(
                VirtualMPI(ranks), forest, col, steps,
                restore_from=ckpt, **common,
            )
            rec_ok = all(
                np.array_equal(recovered[k], baseline[k]) for k in baseline
            )
            print(f"  restarted from {ckpt}: bit-identical = {rec_ok}")
            ok = ok and rec_ok
    return 0 if ok else 1


def _cmd_lint(args) -> int:
    """``lint``: run the static analyzers; exit 1 on any new finding."""
    from .analysis import (
        lint_paths,
        load_baseline,
        render_json,
        render_text,
        write_baseline,
    )

    paths = args.paths or ["src/repro"]
    if args.write_baseline:
        result = lint_paths(paths, baseline_path=None)
        n = write_baseline(args.write_baseline, result.findings)
        print(
            f"wrote baseline {args.write_baseline}: {n} entr"
            f"{'y' if n == 1 else 'ies'} from {result.files_checked} file(s)"
        )
        return 0
    if args.baseline:
        # Validate eagerly so a bad baseline path fails loudly, not as
        # a silently-empty suppression set.
        load_baseline(args.baseline)
    result = lint_paths(paths, baseline_path=args.baseline)
    if args.format == "json":
        print(render_json(result.findings, result.baselined, result.files_checked))
    else:
        print(render_text(result.findings, result.baselined, result.files_checked))
    for error in result.errors:
        print(f"error: {error}", file=sys.stderr)
    return 0 if result.ok else 1


def _resume(sim, args) -> int:
    """Apply the restart and checkpoint flags; returns the steps done."""
    done = 0
    if args.restart:
        done = sim.restart(args.checkpoint)
        print(f"restarted from {args.checkpoint} at step {done}")
    if args.checkpoint_every:
        sim.enable_checkpointing(args.checkpoint, args.checkpoint_every)
    return done


def _cmd_cavity(args) -> int:
    import numpy as np

    from . import flagdefs as fl
    from .core import Simulation
    from .lbm import NoSlip, TRT, UBB

    n = args.size
    workers = getattr(args, "workers", 1)
    sim = Simulation(
        cells=(n, n, n), collision=TRT.from_tau(0.65), workers=workers
    )
    sim.flags.fill(fl.FLUID)
    d = sim.flags.data
    d[0], d[-1] = fl.NO_SLIP, fl.NO_SLIP
    d[:, 0], d[:, -1] = fl.NO_SLIP, fl.NO_SLIP
    d[:, :, 0] = fl.NO_SLIP
    d[:, :, -1] = fl.VELOCITY_BC
    sim.add_boundary(NoSlip())
    sim.add_boundary(UBB(velocity=(0.08, 0.0, 0.0)))
    sim.finalize()
    done = _resume(sim, args)
    sim.run(max(0, args.steps - done))
    extra = f", {workers} workers" if workers > 1 else ""
    print(
        f"cavity {n}^3, {args.steps} steps{extra}: {sim.mlups():.2f} MLUPS, "
        f"max |u| = {np.nanmax(np.abs(sim.velocity())):.4f}"
    )
    sim.close()
    if args.profile:
        _emit_profile(
            sim.timeloop, args, f"cavity {n}^3",
            derived={"kernel MLUPS": sim.mlups()},
        )
    if args.vtk:
        from .io import write_simulation_vtk

        write_simulation_vtk(args.vtk, sim)
        print(f"wrote {args.vtk}")
    return 0


def _cmd_coronary(args) -> int:
    from .balance import balance_forest
    from .blocks import search_weak_scaling_partition
    from .comm import DistributedSimulation
    from .geometry import CapsuleTreeGeometry, CoronaryTree
    from .lbm import NoSlip, PressureABB, TRT, UBB

    tree = CoronaryTree.generate(
        generations=args.generations, root_radius=1.9e-3, seed=args.seed
    )
    geom = CapsuleTreeGeometry(tree)
    forest = search_weak_scaling_partition(
        geom, (8, 8, 8), target_blocks=args.blocks, max_iterations=14
    )
    balance_forest(forest, args.ranks, strategy="metis")
    sim = DistributedSimulation(
        forest,
        TRT.from_tau(0.8),
        geometry=geom,
        boundaries=[
            NoSlip(),
            UBB(velocity=(0.0, 0.0, 0.02)),
            PressureABB(rho_w=1.0),
        ],
        comm_mode=getattr(args, "comm_mode", "per-face"),
        workers=getattr(args, "workers", 1),
    )
    done = _resume(sim, args)
    steps = max(0, args.steps - done)
    t0 = time.perf_counter()
    sim.run(steps)
    wall = time.perf_counter() - t0
    # Wall MFLUPS: fluid cell updates over the wall time of the whole
    # step; the kernel scope alone is reported beside it.
    mflups = sim.total_fluid_cells() * steps / wall / 1e6 if wall > 0 else 0.0
    print(
        f"coronary tree ({tree.n_segments} segments), {forest.n_blocks} blocks "
        f"on {args.ranks} ranks, {args.steps} steps: "
        f"{mflups:.2f} MFLUPS, {sim.mflups():.2f} kernel MFLUPS, "
        f"comm {100 * sim.comm_fraction():.1f}%"
    )
    sim.close()
    if args.profile:
        _emit_profile(
            sim.timeloop, args, "coronary pipeline",
            derived={
                "MFLUPS": mflups,
                "kernel MFLUPS": sim.mflups(),
                "comm fraction": sim.comm_fraction(),
            },
        )
    if args.vtk:
        from .io import write_simulation_vtk

        write_simulation_vtk(args.vtk, sim)
        print(f"wrote {args.vtk}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="waLBerla SC13 reproduction toolkit",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print the reduced hierarchical timing tree and write a JSON "
        "report; without a command, profiles the SPMD lid-driven cavity",
    )
    parser.add_argument(
        "--profile-json", type=str, default=None, metavar="PATH",
        help="also write the report as JSON to PATH",
    )
    parser.add_argument(
        "--profile-csv", type=str, default=None, metavar="PATH",
        help="also write the flattened per-scope timings as CSV",
    )
    parser.add_argument(
        "--profile-ranks", type=int, default=4,
        help="virtual MPI ranks for the bare --profile run (default 4)",
    )
    parser.add_argument(
        "--profile-steps", type=int, default=30,
        help="time steps for the bare --profile run (default 30)",
    )
    parser.add_argument(
        "--chaos", type=int, default=None, metavar="SEED",
        help="run the SPMD cavity under a seed-sampled fault schedule "
        "(delays/reordering/duplication/drops/stalls) and verify the "
        "result is bit-identical to a fault-free run; with "
        "--checkpoint-every, also drill a rank crash + restart",
    )
    parser.add_argument(
        "--checkpoint", type=str, default=None, metavar="PATH",
        help="checkpoint file for --checkpoint-every / --restart",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="write an atomic checkpoint every N steps (cavity/coronary; "
        "with --chaos, enables the crash-restart drill)",
    )
    parser.add_argument(
        "--restart", action="store_true",
        help="resume cavity/coronary from --checkpoint before stepping",
    )
    sub = parser.add_subparsers(dest="command", required=False)

    sub.add_parser("info", help="framework and machine-model summary")

    p_fig = sub.add_parser("figures", help="regenerate the paper figures")
    p_fig.add_argument(
        "--fast", action="store_true",
        help="only the node-level figures (3, 4, 5, roofline)",
    )
    p_fig.add_argument(
        "--csv", type=str, default=None,
        help="also write every series as CSV files into this directory",
    )

    def _add_checkpoint_flags(p) -> None:
        """Checkpoint flags, repeated on subparsers so they may be given
        after the command; SUPPRESS keeps the global defaults intact."""
        p.add_argument(
            "--checkpoint", type=str, default=argparse.SUPPRESS, metavar="PATH",
            help="checkpoint file path",
        )
        p.add_argument(
            "--checkpoint-every", type=int, default=argparse.SUPPRESS,
            metavar="N", help="write an atomic checkpoint every N steps",
        )
        p.add_argument(
            "--restart", action="store_true", default=argparse.SUPPRESS,
            help="resume from --checkpoint before stepping",
        )

    def _add_workers_flag(p) -> None:
        p.add_argument(
            "--workers", type=int, default=1, metavar="N",
            help="intra-rank worker threads for the kernel/boundary sweeps "
            "(the paper's OpenMP/SMT axis; N > 1 enables the threaded "
            "sweep engine — bit-identical to serial, see "
            "docs/hybrid-parallelism.md)",
        )

    p_cav = sub.add_parser("cavity", help="run a lid-driven cavity")
    p_cav.add_argument("--size", type=int, default=32)
    p_cav.add_argument("--steps", type=int, default=300)
    p_cav.add_argument("--vtk", type=str, default=None)
    _add_workers_flag(p_cav)
    _add_checkpoint_flags(p_cav)

    p_lint = sub.add_parser(
        "lint",
        help="run the static MPI/kernel/hygiene analyzers "
        "(see docs/static-analysis.md)",
    )
    p_lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: src/repro)",
    )
    p_lint.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (json is the CI interface)",
    )
    p_lint.add_argument(
        "--baseline", type=str, default=None, metavar="PATH",
        help="baseline file of known findings that do not fail the gate",
    )
    p_lint.add_argument(
        "--write-baseline", type=str, default=None, metavar="PATH",
        help="snapshot current findings into a baseline file and exit 0",
    )

    p_cor = sub.add_parser("coronary", help="run the coronary pipeline")
    p_cor.add_argument("--generations", type=int, default=4)
    p_cor.add_argument("--blocks", type=int, default=96)
    p_cor.add_argument("--ranks", type=int, default=8)
    p_cor.add_argument("--steps", type=int, default=50)
    p_cor.add_argument("--seed", type=int, default=0)
    p_cor.add_argument("--vtk", type=str, default=None)
    p_cor.add_argument(
        "--comm-mode", dest="comm_mode", default="per-face",
        choices=["per-face", "coalesced"],
        help="ghost exchange strategy: per-face messages or bulk-coalesced "
        "per-rank-pair buffers (bit-identical)",
    )
    _add_workers_flag(p_cor)
    _add_checkpoint_flags(p_cor)

    args = parser.parse_args(argv)
    if (args.checkpoint_every or args.restart) and args.command in (
        "cavity", "coronary",
    ) and not args.checkpoint:
        parser.error("--checkpoint-every/--restart need --checkpoint PATH")
    if args.command is None:
        if args.chaos is not None:
            return _cmd_chaos(args)
        if args.profile:
            return _cmd_profile(args)
        parser.error("a command is required unless --profile or --chaos is given")
    handlers = {
        "info": _cmd_info,
        "figures": _cmd_figures,
        "cavity": _cmd_cavity,
        "coronary": _cmd_coronary,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
