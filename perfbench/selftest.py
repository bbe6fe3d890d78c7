"""Fast self-test of the benchmark itself.

Runs a 2x2 instance of every workload, untraced and traced, against
exact references, and checks that each run passes its correctness gates
and prints exactly the metrics ``BENCHMARK.json`` declares, with their
units. Also checks that a layer missing from the solver reads zero
instead of failing the run. Run from the repository root; takes a few seconds:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import run
from tracing import LAYERS, Tracer, per_layer
from workloads import WORKLOADS, Runner

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(workload):
    return dataclasses.replace(workload, rows=2, cols=2, seeds=(1, 2),
                               heldout_seeds=(3,), exact=True)


def check_run(kp, workload, trace: bool) -> list[str]:
    result, _ = run.run_workload(kp, workload, seed=0, seconds=0.05,
                                 trace=trace, reference={})
    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = []
    if printed != declared:
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(declared) - set(printed))}, "
                        f"extra {sorted(set(printed) - set(declared))}, "
                        f"units {sorted(n for n in printed if n in declared and printed[n] != declared[n])}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name} is not a finite number: {m['value']!r}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"gates failed: {result['attempted']} attempted, "
                        f"{result['failed']} failed")
    return [f"{workload.name} trace={int(trace)}: {p}" for p in problems]


def check_missing_layer(kp) -> list[str]:
    """A layer whose function or module is gone reads zero, and the
    others still trace."""
    gone = {"search.prune": ("kingspeps.search", "renamed_prune"),
            "potts.potts_energy": ("kingspeps.renamed_module", "potts_energy")}
    layers = tuple((*gone[name], name, before, after) if name in gone
                   else (path, attr, name, before, after)
                   for path, attr, name, before, after in LAYERS)
    workload = tiny(WORKLOADS["ising16x16-b4"])
    runner = Runner(kp, workload, {})
    with Tracer(layers) as tracer:
        result = runner.solve(1, runner.build(1))
    metrics = per_layer(tracer, len(result.solve_s), 1, 1, 0.0, 1.0)
    problems = []
    if result.failures:
        problems.append(f"traced solve failed: {result.failures}")
    if metrics["search.prune.self_s"][0] or metrics["potts.potts_energy.calls"][0]:
        problems.append("a missing layer reported calls")
    if not metrics["search.branch.calls"][0]:
        problems.append("a present layer reported no calls")
    return [f"missing layer: {p}" for p in problems]


def main() -> int:
    if not (run.SRC / "kingspeps" / "__init__.py").is_file():
        print(f"error: no kingspeps sources under {run.SRC}", file=sys.stderr)
        return 2
    run.pin_blas_threads()
    sys.path.insert(0, str(run.SRC))
    import kingspeps as kp

    problems = check_missing_layer(kp)
    for workload in WORKLOADS.values():
        for trace in (False, True):
            problems += check_run(kp, tiny(workload), trace)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
