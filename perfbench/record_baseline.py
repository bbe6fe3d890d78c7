"""Record the reference best energies of the non-exact workloads.

Each pool instance (main and held-out) is generated and solved with the
``kingspeps`` command line, in a fresh process, with the workload's
settings; the best energy it prints to its JSON document becomes the
reference that ``run.py`` checks every later run against. Run from the
repository root and commit the resulting ``perfbench/baseline.json``:

    python3 perfbench/record_baseline.py

This takes a few minutes. Re-record only on purpose: a change that moves a
best energy counts as a regression against this file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import BASELINE_PATH, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def cli(*args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "kingspeps.cli", *args], cwd=ROOT,
                   env=env, check=True, capture_output=True, timeout=900)


def record(workload, seed: int, scratch: Path) -> dict:
    instance = scratch / f"{workload.name}-{seed}.txt"
    output = scratch / f"{workload.name}-{seed}.json"
    cli("gen", str(workload.rows), str(workload.cols),
        "--spins", str(workload.spins), "--seed", str(seed), "-o", str(instance))
    cli("solve", str(instance),
        "--topology", str(workload.rows), str(workload.cols), str(workload.spins),
        "--beta", repr(workload.beta), "--bond-dim", str(workload.bond_dim),
        "--num-sweeps", str(workload.num_sweeps),
        "--max-states", str(workload.max_states),
        "--cut-off-prob", repr(workload.cut_off_prob),
        "--energy-cutoff", repr(workload.energy_cutoff),
        "--hamming-cutoff", str(workload.hamming_cutoff),
        "--transforms", ",".join(workload.transforms), "-o", str(output))
    doc = json.loads(output.read_text(encoding="utf-8"))
    return {"best_energy": doc["best_energy"],
            "transform_best_energies":
                doc["parameters"]["transform_best_energies"]}


def main() -> int:
    baseline = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for workload in WORKLOADS.values():
            if workload.exact:
                continue
            entries = {}
            for seed in workload.seeds + workload.heldout_seeds:
                entries[str(seed)] = record(workload, seed, Path(tmp))
                print(workload.name, seed, entries[str(seed)]["best_energy"],
                      flush=True)
            baseline[workload.name] = entries
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
