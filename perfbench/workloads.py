"""The benchmark's four workloads, driven through the public entry points.

Each workload builds its inputs in :meth:`Workload.setup` (the part
``setup_s`` times), advances the simulation in repetitions of a fixed
number of time steps from a fixed initial state, and exposes the
observables the output check compares against ``reference.json``.
Restarting every repetition from the same equilibrium state makes each
repetition's final state checkable against one recorded reference.

Why these four (see README.md for the full rationale):

``dense_cavity``
    128^3 single-block cavity, vectorized tier, one worker: the
    bandwidth-bound kernel baseline (~608 MiB of PDFs, beyond the LLC).
``dense_cavity_hybrid``
    the same problem with two workers: the only workload that runs the
    threaded ``exec`` engine (slab-split kernel sweeps).
``coronary_sparse``
    the ``repro coronary`` pipeline on 8 in-process virtual ranks:
    sparse, dispatch-bound, and the only workload with a costly set-up.
``spmd_exchange``
    a block-grid cavity through ``run_spmd_simulation`` on two
    virtual-MPI ranks: the only workload with real messages.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import flagdefs as fl
from repro.balance import balance_forest
from repro.blocks import SetupBlockForest, search_weak_scaling_partition
from repro.comm import DistributedSimulation, VirtualMPI, run_spmd_simulation
from repro.core import Simulation
from repro.errors import NumericalError
from repro.geometry import AABB, CapsuleTreeGeometry, CoronaryTree
from repro.lbm import D3Q19, TRT, UBB, NoSlip, PressureABB
from repro.lbm.macroscopic import density, velocity
from repro.scenarios import enclose_walls, lid_driven_cavity

#: Problem sizes.  ``full`` is what the benchmark measures; ``tiny``
#: exercises the same code paths in well under a second (self-tests).
PROFILES = {
    "full": {
        "dense": {"n": 128, "steps": 10},
        "coronary": {"generations": 4, "blocks": 96, "ranks": 8, "steps": 20},
        "spmd": {"grid": (8, 4, 2), "cells": 8, "steps": 10},
    },
    "tiny": {
        "dense": {"n": 12, "steps": 3},
        "coronary": {"generations": 2, "blocks": 12, "ranks": 3, "steps": 3},
        "spmd": {"grid": (2, 2, 1), "cells": 4, "steps": 3},
    },
}

#: Supersonic lattice velocity means the scheme diverged (as in
#: ``Simulation.assert_stable``).
U_MAX = 0.57


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


class Workload:
    """Base class: a named problem with set-up, repetitions and checks."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 3
    #: Time steps per repetition.
    steps = 1

    def __init__(self, size: str = "full", seed: int = 0):
        self.size = size
        self.seed = int(seed)

    def setup(self, tracer=None):
        """Build the ready-to-step state (timed as ``setup_s``)."""
        raise NotImplementedError

    def warm(self, state) -> None:
        """Run untimed until lazy allocations are done."""

    def reset(self, state) -> None:
        """Return to the initial state before a repetition (untimed)."""

    def rep(self, state) -> Tuple[List[float], int]:
        """One repetition: per-sample wall seconds and fluid-cell
        updates per sample."""
        raise NotImplementedError

    def observe(self, state) -> Dict[str, float]:
        """Observables of the final state; raises NumericalError when the
        state is non-finite or unstable."""
        raise NotImplementedError

    def reported_mflups(self, state) -> Optional[float]:
        """The program's own MFLUPS figure, if it reports one."""
        return None

    def restart_report(self, state) -> None:
        """Zero the program's own timers before the compared interval."""

    def layer_facts(self, state) -> Dict[str, float]:
        """Counts of the set-up layers (blocks, balance)."""
        return {}

    def working_set_bytes(self, state) -> int:
        """Bytes of PDF storage the time steps stream through."""
        raise NotImplementedError

    def close(self, state) -> None:
        """Release threads and memory held by ``state``."""


class _TimeLoopWorkload(Workload):
    """Workloads whose driver owns a ``TimeLoop`` (``sim.run``)."""

    def warm(self, state) -> None:
        state.run(1)

    def rep(self, state):
        samples = []
        for _ in range(self.steps):
            t0 = perf_counter()
            state.run(1)
            samples.append(perf_counter() - t0)
        return samples, self._fluid_cells(state)

    def reported_mflups(self, state):
        return state.mflups()

    def restart_report(self, state) -> None:
        state.timeloop.reset_timings()

    def close(self, state) -> None:
        state.close()


class DenseCavity(_TimeLoopWorkload):
    """Single-block lid-driven cavity through ``Simulation``."""

    name = "dense_cavity"
    workers = 1

    def __init__(self, size="full", seed=0):
        super().__init__(size, seed)
        p = PROFILES[size]["dense"]
        self.n = p["n"]
        self.steps = p["steps"]

    def setup(self, tracer=None):
        n = self.n
        sim = Simulation(
            cells=(n, n, n), collision=TRT.from_tau(0.65), workers=self.workers
        )
        sim.flags.fill(fl.FLUID)
        enclose_walls(sim.flags)
        enclose_walls(sim.flags, ["+z"], flag=fl.VELOCITY_BC)
        sim.add_boundary(NoSlip())
        sim.add_boundary(UBB(velocity=(0.08, 0.0, 0.0)))
        with _span(tracer, "core.simulation.finalize"):
            sim.finalize()
        return sim

    def reset(self, state) -> None:
        state.pdfs.set_equilibrium()

    @staticmethod
    def _fluid_cells(state) -> int:
        return state.fluid_cells

    def observe(self, state):
        state.assert_stable(U_MAX)
        return {
            "mass": state.total_mass(),
            "max_u": float(np.nanmax(np.abs(state.velocity()))),
        }

    def working_set_bytes(self, state) -> int:
        return state.pdfs.memory_bytes()


class DenseCavityHybrid(DenseCavity):
    """The same cavity with two ``exec`` workers (slab-split sweeps)."""

    name = "dense_cavity_hybrid"
    workers = 2


class CoronarySparse(_TimeLoopWorkload):
    """The ``repro coronary`` defaults, coalesced exchange, in process.

    The tree is the ``repro coronary`` default (tree seed 0); the
    workload seed seeds the METIS-like balancer, which changes which
    virtual rank owns each block but not the work or the result.
    """

    name = "coronary_sparse"

    def __init__(self, size="full", seed=0):
        super().__init__(size, seed)
        p = PROFILES[size]["coronary"]
        self.generations = p["generations"]
        self.blocks = p["blocks"]
        self.ranks = p["ranks"]
        self.steps = p["steps"]

    def setup(self, tracer=None):
        with _span(tracer, "geometry"):
            tree = CoronaryTree.generate(
                generations=self.generations, root_radius=1.9e-3, seed=0
            )
            geom = CapsuleTreeGeometry(tree)
        with _span(tracer, "blocks.setup"):
            forest = search_weak_scaling_partition(
                geom, (8, 8, 8), target_blocks=self.blocks, max_iterations=14
            )
        with _span(tracer, "balance"):
            balance_forest(forest, self.ranks, strategy="metis", seed=self.seed)
        with _span(tracer, "comm.distributed.build"):
            sim = DistributedSimulation(
                forest,
                TRT.from_tau(0.8),
                geometry=geom,
                boundaries=[
                    NoSlip(),
                    UBB(velocity=(0.0, 0.0, 0.02)),
                    PressureABB(rho_w=1.0),
                ],
                comm_mode="coalesced",
                workers=1,
            )
        return sim

    def reset(self, state) -> None:
        for field in state.fields.values():
            field.set_equilibrium()

    @staticmethod
    def _fluid_cells(state) -> int:
        return state.total_fluid_cells()

    def observe(self, state):
        state.assert_stable(U_MAX)
        return {
            "mass": state.total_mass(),
            "max_u": state.max_velocity(),
            "fluid_cells": state.total_fluid_cells(),
        }

    def layer_facts(self, state):
        return {
            "blocks.count": state.forest.n_blocks,
            "blocks.fluid_cells": state.total_fluid_cells(),
            "balance.imbalance": state.forest.workload_imbalance(),
        }

    def working_set_bytes(self, state) -> int:
        return sum(f.memory_bytes() for f in state.fields.values())


class _SpmdState:
    def __init__(self, forest, kwargs):
        self.forest = forest
        self.kwargs = kwargs
        self.result = None


class SpmdExchange(Workload):
    """Block-grid cavity through ``run_spmd_simulation`` on 2 ranks.

    Every repetition is one whole call (it builds the rank-local blocks
    itself), so the call is what is timed.
    """

    name = "spmd_exchange"
    setup_repeats = 5
    ranks = 2

    def __init__(self, size="full", seed=0):
        super().__init__(size, seed)
        p = PROFILES[size]["spmd"]
        self.grid = p["grid"]
        self.cells = p["cells"]
        self.steps = p["steps"]

    def setup(self, tracer=None):
        grid = self.grid
        with _span(tracer, "blocks.setup"):
            forest = SetupBlockForest.create(
                AABB((0, 0, 0), tuple(float(g) for g in grid)),
                grid, (self.cells,) * 3,
            )
        with _span(tracer, "balance"):
            balance_forest(forest, self.ranks, strategy="morton")
        state = _SpmdState(forest, dict(
            conditions=[NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))],
            flag_setter=lid_driven_cavity(grid),
            comm_mode="coalesced",
            workers=1,
        ))
        self._call(state, 0)
        return state

    def _call(self, state, steps):
        state.result = run_spmd_simulation(
            VirtualMPI(self.ranks), state.forest, TRT.from_tau(0.65), steps,
            **state.kwargs,
        )

    def _fluid_cells(self) -> int:
        return int(np.prod(self.grid)) * self.cells ** 3

    def rep(self, state):
        t0 = perf_counter()
        self._call(state, self.steps)
        return [perf_counter() - t0], self._fluid_cells() * self.steps

    def observe(self, state):
        mass = 0.0
        umax = 0.0
        for block_id, f in state.result.items():
            if not np.isfinite(f).all():
                raise NumericalError(f"block {block_id}: non-finite PDFs")
            mass += float(density(D3Q19, f).sum())
            umax = max(umax, float(np.abs(velocity(D3Q19, f)).max()))
        if umax > U_MAX:
            raise NumericalError(f"lattice velocity {umax:.3f} exceeds {U_MAX}")
        return {"mass": mass, "max_u": umax}

    def layer_facts(self, state):
        return {
            "blocks.count": state.forest.n_blocks,
            "blocks.fluid_cells": self._fluid_cells(),
            "balance.imbalance": state.forest.workload_imbalance(),
        }

    def working_set_bytes(self, state) -> int:
        padded = (self.cells + 2) ** 3
        return state.forest.n_blocks * 2 * D3Q19.q * 8 * padded


WORKLOADS = {
    cls.name: cls
    for cls in (DenseCavity, DenseCavityHybrid, CoronarySparse, SpmdExchange)
}
