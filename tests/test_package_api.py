"""Top-level package API and constants tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import flagdefs as fl
from repro.constants import (
    CS2,
    D3Q19_BYTES_PER_CELL_NT_STORES,
    D3Q19_BYTES_PER_CELL_WRITE_ALLOCATE,
    D3Q19_SIZE,
    GIB,
    MAX_STABLE_LATTICE_VELOCITY,
)


class TestTopLevelApi:
    def test_lazy_exports_resolve(self):
        assert repro.Simulation.__name__ == "Simulation"
        assert repro.TRT.__name__ == "TRT"
        assert repro.DistributedSimulation.__name__ == "DistributedSimulation"
        assert repro.CoronaryTree.__name__ == "CoronaryTree"
        assert callable(repro.balance_forest)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_thing

    def test_dir_contains_exports(self):
        listing = dir(repro)
        assert "Simulation" in listing and "TRT" in listing

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_via_top_level(self):
        sim = repro.Simulation(cells=(4, 4, 4), collision=repro.SRT(0.8))
        sim.flags.fill(fl.FLUID)
        sim.finalize()
        sim.run(2)
        assert sim.total_mass() > 0


class TestConstants:
    def test_paper_traffic_numbers(self):
        assert D3Q19_SIZE == 19
        assert D3Q19_BYTES_PER_CELL_WRITE_ALLOCATE == 456
        assert D3Q19_BYTES_PER_CELL_NT_STORES == 304

    def test_lattice_sound_speed(self):
        assert np.isclose(CS2, 1.0 / 3.0)

    def test_stability_bound(self):
        assert MAX_STABLE_LATTICE_VELOCITY == 0.1  # §4.3

    def test_units(self):
        assert GIB == 2**30

    def test_flag_bits_disjoint(self):
        flags = [fl.FLUID, fl.NO_SLIP, fl.VELOCITY_BC, fl.PRESSURE_BC]
        for i, a in enumerate(flags):
            for b in flags[i + 1:]:
                assert (a & b) == 0
        assert fl.BOUNDARY_MASK == (fl.NO_SLIP | fl.VELOCITY_BC | fl.PRESSURE_BC)
        assert fl.OUTSIDE == 0


class TestSubpackageImports:
    """Every subpackage must import on its own, in a fresh interpreter
    (a circular import hides when another package was imported first)."""

    SUBPACKAGES = sorted(
        p.name
        for p in Path(repro.__file__).parent.iterdir()
        if (p / "__init__.py").is_file()
    )

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_imports_alone(self, name):
        src = str(Path(repro.__file__).parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        proc = subprocess.run(
            [sys.executable, "-c", f"import repro.{name}"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
