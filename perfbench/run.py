"""Benchmark of the kingspeps solver: one workload per run, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload ising16x16-b4 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
of the solver; times are scaled to a reference machine speed sampled
during the run (see ``speed.py``).
``--trace 1`` solves the same instances twice, plain and then traced,
checks that both give identical energies and droplet counts, and
reports the per-layer metrics. ``--workload all`` runs every workload,
each in its own process. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The solver is imported from ``src/`` next to this directory; without it
the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from speed import SpeedProbe, span
from tracing import Tracer, per_layer
from workloads import (WORKLOADS, Runner, closed_loop, end_to_end,
                       load_baseline, report_only, visit_order)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_REPS = 7
IMPORT_PROBE = ("import time; t = time.perf_counter(); import kingspeps; "
                "print(time.perf_counter() - t)")


def pin_blas_threads() -> int:
    """Fix the BLAS thread count at 1, whatever the caller's environment.

    On a shared 2-core box a second thread did not make solves reliably
    faster. Must run before numpy is imported, which is why
    ``kingspeps`` is imported inside ``main``.
    """
    threads = 1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def environment(threads: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem_kib = None
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemTotal:"):
                    mem_kib = int(line.split()[1])
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(mem_kib / 1024) if mem_kib else None,
    }


def import_seconds() -> float:
    """Time ``import kingspeps`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def set_up(runner, seeds):
    """One set-up repetition: import in a fresh interpreter, then build
    every instance. Returns ``(seconds, models)``."""
    seconds = import_seconds()
    start = runner.clock.mark()
    models = {seed: runner.build(seed) for seed in seeds}
    return seconds + span(start, runner.clock.mark()), models


def run_workload(kp, workload, seed: int, seconds: float, trace: bool,
                 reference: dict[int, float], heldout: bool = False):
    """One benchmark run. Returns ``(result, lines)``: the contract's
    JSON object and human-readable lines with sample counts."""
    pool = workload.heldout_seeds if heldout else workload.seeds
    order = visit_order(pool, seed)
    lines = []

    if not trace:
        # The set-up repetitions are spread over the first pass, so that
        # their median sees the same machine as the solves; the box's
        # speed drifts within seconds. An untimed import comes first: the
        # first import in a run took up to twice as long as later ones.
        import_seconds()
        probe = SpeedProbe()
        runner = Runner(kp, workload, reference, clock=probe)
        due = [round(i * len(order) / SETUP_REPS) for i in range(SETUP_REPS)]
        setup, models, results = [], {}, []

        def set_up_until(done):
            while len(setup) < SETUP_REPS and due[len(setup)] <= done:
                # A set-up takes about 0.1 s: it is scaled by the samples
                # taken right before and after it.
                start = probe.mark()
                probe.burst()
                seconds_taken, built = set_up(runner, pool)
                probe.burst()
                setup.append((seconds_taken, start, probe.mark()))
                models.update(built)

        def step(s):
            set_up_until(len(results))
            results.append(runner.solve(s, models[s]))

        with probe:
            closed_loop(step, order, seconds)
            set_up_until(len(order))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_s = statistics.median(t * probe.factor(start, end, margin=0)
                                    for t, start, end in setup)
        metrics = end_to_end(results, setup_s, peak_mb,
                             len(workload.transforms) > 1, probe.scaled)
        extra = report_only(results, probe.scaled)
        extra["setup_s.wall"] = (statistics.median(t for t, _, _ in setup),
                                 "s", len(setup))
        extra["speed.kernel_s"] = (statistics.median(
            t for _, t in probe.samples), "s", len(probe.samples))
    else:
        runner = Runner(kp, workload, reference)
        # Each instance is solved plain and traced back to back, which of
        # the two goes first alternating, so that both see the same
        # machine when the overhead is compared.
        models = {s: runner.build(s) for s in pool}
        tracer = Tracer()
        plain, traced, traced_models = [], [], {}

        def solve_traced(s):
            with tracer:
                if s not in traced_models:
                    traced_models[s] = runner.build(s)
                traced.append(runner.solve(s, traced_models[s]))

        def step(s):
            traced_first = len(plain) % 2 == 1
            if traced_first:
                solve_traced(s)
            plain.append(runner.solve(s, models[s]))
            if not traced_first:
                solve_traced(s)
            if plain[-1].outcome() != traced[-1].outcome():
                traced[-1].failures.append(
                    f"traced run changed the result: {plain[-1].outcome()} "
                    f"-> {traced[-1].outcome()}")

        closed_loop(step, order, seconds)
        results = plain + traced
        solves = sum(len(r.solve_s) for r in traced)
        overhead = (sum(r.wall_s for r in traced)
                    / max(sum(r.wall_s for r in plain), 1e-12))
        json_bytes = statistics.mean(r.json_bytes for r in traced)
        metrics = {name: (value, unit, None) for name, (value, unit) in
                   per_layer(tracer, solves, len(traced), len(traced_models),
                             json_bytes, overhead).items()}
        extra = {}

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    for r in results:
        for failure in r.failures:
            lines.append(f"FAILED seed {r.seed}: {failure}")
    for name, (value, unit, count) in {**metrics, **extra}.items():
        samples = f"  (n={count})" if count is not None else ""
        lines.append(f"{name:38s} {value:.6g} {unit}{samples}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    return result, lines


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.heldout:
            cmd.append("--heldout")
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout", action="store_true",
                        help="use the held-out instance pool")
    args = parser.parse_args(argv)

    if not (SRC / "kingspeps" / "__init__.py").is_file():
        print(f"error: no kingspeps sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import kingspeps as kp

    if Path(kp.__file__).resolve().parent != SRC / "kingspeps":
        print(f"error: imported kingspeps from {kp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    recorded = load_baseline().get(workload.name, {})
    reference = {int(seed): entry["best_energy"]
                 for seed, entry in recorded.items()}

    print("env " + json.dumps(environment(threads)), flush=True)
    result, lines = run_workload(kp, workload, args.seed, args.seconds,
                                 bool(args.trace), reference, args.heldout)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
