"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dense_cavity --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --record-reference        # rewrite reference.json

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` additionally wraps each layer (see ``spans.py``) and
reports the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the full
result with provenance (and, traced, every span) is written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

#: Declared relative tolerance of the reference observables: loose enough
#: for a differently rounded kernel (ulp-level differences grow to ~1e-13
#: over a repetition), tight enough that any wrong stencil, weight or
#: boundary link fails by orders of magnitude.
RTOL = {"mass": 1e-8, "max_u": 1e-8, "fluid_cells": 0.0}


class CheckFailed(Exception):
    """A final state that differs from the recorded reference."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def check(workload, observed: dict, reference: dict) -> None:
    """Compare observables with the reference of this workload and size."""
    ref = reference[workload.size][workload.name]
    for key, expected in ref.items():
        got = observed[key]
        if abs(got - expected) > RTOL[key] * abs(expected):
            raise CheckFailed(
                f"{workload.name}: {key} = {got!r}, reference {expected!r} "
                f"(rtol {RTOL[key]})"
            )


class Tally:
    """Repetitions attempted and failed, plus the passing samples."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.rates = []      # fluid-cell updates per second, passing reps
        self.updates = 0     # fluid-cell updates, passing reps
        self.seconds = 0.0   # wall seconds of those updates
        self.steps = 0       # time steps, passing and failing reps

    def run(self, workload, state, seconds, reference, corrupt=None,
            tracer=None):
        """Repeat while another repetition fits into ``seconds`` (at
        least once), so a run's length stays bounded."""
        t_start = perf_counter()
        while True:
            t_rep = perf_counter()
            self.attempted += 1
            if tracer is not None:
                tracer.run_id = self.attempted
            try:
                workload.reset(state)
                samples, per_sample = workload.rep(state)
                self.steps += workload.steps
                if corrupt is not None:
                    corrupt(state)
                check(workload, workload.observe(state), reference)
            except Exception:  # noqa: BLE001 - every failure is counted
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
            else:
                self.rates.extend(per_sample / s for s in samples)
                self.updates += per_sample * len(samples)
                self.seconds += sum(samples)
            now = perf_counter()
            if now + (now - t_rep) > t_start + seconds:
                return self

    def mflups(self) -> float:
        """Median rate of the fastest tenth of the samples (at least three).

        On a shared host, interference from other tenants only ever
        slows a sample, and it comes and goes over minutes; the fast
        tail estimates the program's own speed far more steadily than
        the median of all samples (see README.md).
        """
        if not self.rates:
            return 0.0
        fast = sorted(self.rates)[-max(3, len(self.rates) // 10):]
        return statistics.median(fast) / 1e6

    def median_mflups(self) -> float:
        return statistics.median(self.rates) / 1e6 if self.rates else 0.0


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, seconds, reference, corrupt=None):
    """End-to-end metrics: set-up median, wall MFLUPS, peak RSS."""
    setup_times = []
    state = None
    for _ in range(workload.setup_repeats):
        if state is not None:
            workload.close(state)
            state = None
            gc.collect()
        t0 = perf_counter()
        state = workload.setup()
        setup_times.append(perf_counter() - t0)
    workload.warm(state)
    tally = Tally().run(workload, state, seconds, reference, corrupt)
    rss = peak_rss_mib()
    facts = {"working_set_bytes": workload.working_set_bytes(state)}
    workload.close(state)
    del state
    gc.collect()
    metrics = {
        "mflups": tally.mflups(),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss,
    }
    detail = {"setup_seconds": setup_times, "rates": tally.rates}
    return tally, metrics, facts, detail


def run_traced(workload, seconds, reference):
    """Per-layer metrics: a traced set-up, an untraced half (the baseline
    of ``trace.overhead`` and ``driver.reported_over_wall``) and a traced
    half whose spans give the layer ledger."""
    import spans

    inst = spans.Instrumentation()
    setup_tracer = spans.Tracer()
    with inst.active(setup_tracer):
        state = workload.setup(setup_tracer)
    workload.warm(state)
    workload.restart_report(state)
    plain = Tally().run(workload, state, seconds / 2, reference)
    reported = workload.reported_mflups(state)
    step_tracer = spans.Tracer()
    with inst.active(step_tracer):
        traced = Tally().run(workload, state, seconds / 2, reference,
                             tracer=step_tracer)
    facts = dict(workload.layer_facts(state))
    facts["working_set_bytes"] = workload.working_set_bytes(state)
    workload.close(state)
    del state
    gc.collect()

    tally = Tally()
    tally.attempted = plain.attempted + traced.attempted
    tally.failed = plain.failed + traced.failed
    layer = {
        "setup": setup_tracer,
        "steps": step_tracer,
        "step_count": traced.steps,
        "reliable_comms": inst.reliable_comms,
        "reported_over_wall": (
            reported / (plain.updates / plain.seconds / 1e6)
            if reported and plain.seconds > 0 else None
        ),
        "overhead": (
            traced.mflups() / plain.mflups() if plain.mflups() > 0 else None
        ),
    }
    return tally, layer, facts


def layer_metrics(layer: dict, facts: dict, stream_gbps: float) -> dict:
    """Every per-layer metric the traces support (absent ones omitted)."""
    import spans
    from repro.perf.roofline import lbm_traffic_per_cell

    out = spans.step_metrics(
        layer["steps"], max(layer["step_count"], 1), stream_gbps,
        lbm_traffic_per_cell(),
    )
    if "comm.vmpi.wait_seconds" in out:
        out["comm.vmpi.retry_ratio"] = spans.retry_ratio(layer["reliable_comms"])
    for metric, span_name in (
        ("geometry.seconds", "geometry"),
        ("blocks.setup_seconds", "blocks.setup"),
        ("balance.seconds", "balance"),
        ("comm.distributed.build_seconds", "comm.distributed.build"),
        ("core.simulation.finalize_seconds", "core.simulation.finalize"),
    ):
        value = spans.setup_seconds(layer["setup"], span_name)
        if value is not None:
            out[metric] = value
    for key in ("blocks.count", "blocks.fluid_cells", "balance.imbalance"):
        if key in facts:
            out[key] = facts[key]
    if layer["reported_over_wall"] is not None:
        out["driver.reported_over_wall"] = layer["reported_over_wall"]
    if layer["overhead"] is not None:
        out["trace.overhead"] = layer["overhead"]
    out["perf.stream.copy_gbps"] = stream_gbps
    return out


def emit(spec_metrics, values: dict) -> dict:
    """Metrics in the ``{"value", "unit"}`` form, one per declared name;
    a layer that did not run reads ``spans.ABSENT``."""
    from spans import ABSENT

    return {
        m["name"]: {"value": values.get(m["name"], ABSENT), "unit": m["unit"]}
        for m in spec_metrics
    }


def run_one(args) -> int:
    import provenance
    from workloads import WORKLOADS

    spec = load_spec()
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    workload = WORKLOADS[args.workload](args.size, args.seed)
    if args.trace:
        tally, layer, facts = run_traced(workload, args.seconds, reference)
        prov = provenance.collect(ROOT, facts["working_set_bytes"])
        values = layer_metrics(layer, facts, prov["stream"]["copy_gbps"])
        declared = spec["per_layer"]
        extra = {
            "spans": [s.as_dict() for s in layer["steps"].spans],
            "setup_spans": [s.as_dict() for s in layer["setup"].spans],
        }
    else:
        tally, values, facts, extra = run_untraced(
            workload, args.seconds, reference)
        prov = provenance.collect(ROOT, facts["working_set_bytes"])
        declared = spec["end_to_end"]
    metrics = emit(declared, values)
    failed_fraction = tally.failed / tally.attempted

    print(f"workload {workload.name} ({args.size}), seed {args.seed}, "
          f"trace {args.trace}")
    print(f"host: {prov['cpu_model']}, nproc {prov['nproc']}, "
          f"LLC {prov['llc_bytes']} B, working set "
          f"{prov['working_set_bytes']} B, STREAM copy "
          f"{prov['stream']['copy_gbps']:.2f} GB/s")
    print(f"python {prov['python']}, numpy {prov['numpy']}, "
          f"git {prov['git_sha']}, src sha256 {prov['source_sha256'][:16]}")
    for name, m in metrics.items():
        shown = "absent" if name not in values else f"{m['value']:.6g}"
        print(f"  {name:<36s} {shown:>14s} {m['unit']}")
    print(f"  {'failed_fraction':<36s} {failed_fraction:>14.6g} "
          f"({tally.failed} of {tally.attempted} attempted)")
    if not args.trace:
        print(f"  mflups over all {len(tally.rates)} samples: median "
              f"{tally.median_mflups():.6g} MFLUPS")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": workload.name, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_fraction": failed_fraction,
        "metrics": metrics,
        "absent": sorted(set(metrics) - set(values)),
        "provenance": prov, **extra,
    }
    suffix = "-trace" if args.trace else ""
    path = out_dir / f"{workload.name}-{args.size}-seed{args.seed}{suffix}.json"
    with open(path, "w") as fh:
        json.dump(record, fh)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is its own)."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
    print(json.dumps(results))
    return 0


def record_reference(sizes) -> int:
    """Record the observables of one repetition of every workload."""
    from workloads import WORKLOADS

    reference = {}
    for size in sizes:
        reference[size] = {}
        for name, cls in WORKLOADS.items():
            workload = cls(size, 0)
            state = workload.setup()
            workload.reset(state)
            workload.rep(state)
            reference[size][name] = workload.observe(state)
            workload.close(state)
            del state
            gc.collect()
            print(size, name, reference[size][name])
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=2)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    if args.record_reference:
        return record_reference(("full", "tiny"))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)} or 'all'")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
