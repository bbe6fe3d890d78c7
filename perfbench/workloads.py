"""Workload definitions and the closed solve loop of the benchmark.

A workload is a fixed pool of generated king's-graph instances plus the
solver settings they run with. The pool's generation seeds are fixed so
that every instance has a recorded reference energy; the benchmark's
``--seed`` picks the order in which a run visits the pool. Solve times
depend on the instance, so a run that covers the same pool in another
order stays comparable with the last.

Everything that touches the solver goes through the public ``kingspeps``
names, looked up at call time, so that the tracer can wrap them.
"""

from __future__ import annotations

import io
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import SpeedProbe, span

BASELINE_PATH = Path(__file__).with_name("baseline.json")

# Relative tolerances: the reference match and droplet rule follow the
# acceptance suite (criterion 6), the transform rule follows the CLI's
# ``--check-transforms``.
ENERGY_RTOL = 1e-9
TRANSFORM_RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rows: int
    cols: int
    spins: int
    beta: float
    transforms: tuple[str, ...]
    energy_cutoff: float
    hamming_cutoff: int
    seeds: tuple[int, ...]
    heldout_seeds: tuple[int, ...]
    exact: bool
    bond_dim: int = 16
    num_sweeps: int = 1
    max_states: int = 256
    cut_off_prob: float = 1e-4


ALL_TRANSFORMS = ("r0", "r90", "r180", "r270", "r0f", "r90f", "r180f", "r270f")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="ising16x16-b4",
        why="256 single-spin sites at beta 4: 256 search steps and ~33k "
            "conditionals per solve, so search and conditionals dominate",
        rows=16, cols=16, spins=1, beta=4.0, transforms=("r0",),
        energy_cutoff=1.0, hamming_cutoff=16,
        seeds=(1600, 1601),
        heldout_seeds=(1700, 1701), exact=False),
    Workload(
        name="cluster4x4x2-chi16",
        why="d=4 clusters make the MPO-MPS bond 256, so the truncating "
            "contraction is over 95% of a solve and the search under 1%",
        rows=4, cols=4, spins=2, beta=2.0, transforms=("r0", "r90"),
        energy_cutoff=10.0, hamming_cutoff=5,
        seeds=(4200,),
        heldout_seeds=(4300,), exact=False),
    Workload(
        name="spectrum3x3x2-8tr",
        why="exact environments and exact ground truth: per-solve fixed "
            "costs, droplet and solution merging over all 8 transforms count",
        rows=3, cols=3, spins=2, beta=2.0, transforms=ALL_TRANSFORMS,
        energy_cutoff=10.0, hamming_cutoff=5,
        seeds=tuple(range(3300, 3316)),
        heldout_seeds=tuple(range(3400, 3416)), exact=True),
)}


def load_baseline() -> dict:
    return json.loads(BASELINE_PATH.read_text(encoding="utf-8"))


def relative_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


@dataclass
class InstanceResult:
    """One instance's timings, outputs and failed checks.

    Timings are kept as pairs of clock marks (see ``speed``): the solves'
    and the whole instance's. A failed check or a raised ``SolverError``
    fails every solve the instance attempted.
    """

    seed: int
    attempted: int = 0
    solve_marks: list[tuple] = field(default_factory=list)
    wall_marks: tuple = ((0.0, 0.0), (0.0, 0.0))
    json_bytes: int = 0
    best_energy: float = math.nan
    transform_best: list[float] = field(default_factory=list)
    droplet_counts: list[int] = field(default_factory=list)
    certified: bool = False
    energy_match: bool = False
    failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.attempted if self.failures else 0

    @property
    def solve_s(self) -> list[float]:
        return [span(*marks) for marks in self.solve_marks]

    @property
    def wall_s(self) -> float:
        return span(*self.wall_marks)

    def outcome(self):
        """What a traced rerun must reproduce exactly."""
        return (self.transform_best, self.droplet_counts)


class Runner:
    """Builds a workload's instances and solves them one after another,
    timing with ``clock``, a ``speed.SpeedProbe`` (by default one never
    opened, which times in plain wall time)."""

    def __init__(self, kp, workload: Workload, reference: dict[int, float],
                 clock: SpeedProbe | None = None):
        self.kp = kp
        self.clock = clock or SpeedProbe()
        self.workload = workload
        self.reference = reference
        by_name = {t.name: t for t in kp.ALL_TRANSFORMS}
        self.transforms = [by_name[name] for name in workload.transforms]
        self.params = kp.ContractionParams(bond_dim=workload.bond_dim,
                                           num_sweeps=workload.num_sweeps,
                                           beta=workload.beta)
        self.search = kp.SearchParams(max_states=workload.max_states,
                                      cut_off_prob=workload.cut_off_prob)
        self.droplets = kp.DropletParams(energy_cutoff=workload.energy_cutoff,
                                         hamming_cutoff=workload.hamming_cutoff,
                                         mode="spin")

    def build(self, seed: int):
        """Set-up of one instance: generate, parse and cluster."""
        kp, w = self.kp, self.workload
        text = kp.generate_instance(w.rows, w.cols, w.spins, seed=seed)
        graph = kp.parse_ising(text)
        return kp.cluster(graph, kp.ClusterTopology(w.rows, w.cols, w.spins))

    def solve(self, seed: int, model) -> InstanceResult:
        """One instance as ``kingspeps solve`` runs it, then its checks.

        Only the solves, the merge, the droplet unpacking and the JSON
        write are timed; the checks that follow are not.
        """
        kp, clock = self.kp, self.clock
        result = InstanceResult(seed)
        start = clock.mark()
        try:
            solutions = []
            for transform in self.transforms:
                result.attempted += 1
                t0 = clock.mark()
                sol = kp.low_energy_spectrum(model, transform, self.params,
                                             self.search, self.droplets)
                result.solve_marks.append((t0, clock.mark()))
                solutions.append(sol)
            merged = kp.merge_solutions(solutions)
            unpacked = kp.unpack_droplets(merged)
            buffer = io.StringIO()
            kp.write_solution(merged, buffer)
        except kp.errors.SolverError as exc:
            result.wall_marks = (start, clock.mark())
            result.failures.append(f"{type(exc).__name__}: {exc}")
            return result
        result.wall_marks = (start, clock.mark())
        result.json_bytes = len(buffer.getvalue().encode("utf-8"))
        self._check(result, model, solutions, merged, unpacked)
        return result

    def _check(self, result, model, solutions, merged, unpacked):
        result.best_energy = float(merged.best_energy)
        result.transform_best = [float(s.best_energy) for s in solutions]
        result.droplet_counts = [sum(len(d) for d in s.droplets)
                                 for s in solutions]
        result.certified = (math.exp(merged.log_probabilities[0])
                            > merged.largest_discarded_probability)

        if self.workload.exact and result.seed not in self.reference:
            self.reference[result.seed] = float(
                self.kp.exact_spectrum(model).min_energy)
        reference = self.reference.get(result.seed)
        if reference is None:
            result.failures.append(f"no reference energy for seed {result.seed}")
        else:
            result.energy_match = relative_close(result.best_energy, reference,
                                                 ENERGY_RTOL)
            if not result.energy_match:
                result.failures.append(
                    f"best energy {result.best_energy!r} != reference {reference!r}")

        # Criterion-6 rule: every unpacked state re-evaluates to its
        # carrier's energy plus the droplet's delta_energy.
        for state, energy in zip(unpacked.states, unpacked.energies):
            direct = self.kp.potts_energy(model, state)
            if not relative_close(energy, direct, ENERGY_RTOL):
                result.failures.append(
                    f"unpacked state energy {energy!r} != potts_energy {direct!r}")
                break


def transforms_agree(result: InstanceResult) -> bool:
    energies = result.transform_best
    spread = max(energies) - min(energies)
    return spread <= TRANSFORM_RTOL * max(1.0, max(abs(e) for e in energies))


def visit_order(pool: tuple[int, ...], seed: int) -> list[int]:
    """The run's walk over the pool: a permutation chosen by ``seed``."""
    return random.Random(seed).sample(list(pool), len(pool))


def closed_loop(step, order: list[int], seconds: float) -> None:
    """Call ``step(seed)`` for whole passes over ``order``, back to back,
    while the next pass is expected to end within ``seconds``; at least
    one pass.

    Whole passes keep the instance mix of every run the same, so runs of
    different seeds measure the same work.
    """
    start = time.perf_counter()
    passes = 0
    while True:
        for seed in order:
            step(seed)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            return


def end_to_end(results: list[InstanceResult], setup_s: float,
               peak_rss_mb: float, multi_transform: bool, scaled) -> dict:
    """End-to-end metrics of one untraced run: ``(value, unit, samples)``.

    Times are at reference speed: ``scaled(start, end)`` of a
    ``speed.SpeedProbe``.
    """
    solve_s = [scaled(*marks) for r in results for marks in r.solve_marks]
    wall = sum(scaled(*r.wall_marks) for r in results)
    n = len(results)
    if multi_transform:
        agree = [transforms_agree(r) for r in results if r.transform_best]
        agree_ratio = (sum(agree) / len(agree) if agree else 0.0, "ratio",
                       len(agree))
    else:
        agree_ratio = (1.0, "ratio", 0)  # vacuously true
    return {
        "solve_s.p50": (statistics.median(solve_s) if solve_s else math.nan,
                        "s", len(solve_s)),
        "solves_per_s": (len(solve_s) / wall if wall > 0 else math.nan,
                         "1/s", len(solve_s)),
        "setup_s": (setup_s, "s", None),
        "peak_rss_mb": (peak_rss_mb, "MiB", None),
        "energy_match_ratio": (sum(r.energy_match for r in results) / n,
                               "ratio", n),
        "transform_agree_ratio": agree_ratio,
        "certified_ratio": (sum(r.certified for r in results) / n, "ratio", n),
    }


def report_only(results: list[InstanceResult], scaled):
    """Metrics printed for people but kept out of the contract's JSON.

    ``solve_s.p90`` needs 100 solves to have ten samples beyond it, and
    ``failed_ratio`` is 0 on a healthy run, so no relative bound fits it.
    The ``.wall`` figures are ``solve_s.p50`` and ``solves_per_s`` from
    unscaled wall time (probe time taken out).
    """
    solve_s = [scaled(*marks) for r in results for marks in r.solve_marks]
    wall_solve_s = [t for r in results for t in r.solve_s]
    wall = sum(r.wall_s for r in results)
    attempted = sum(r.attempted for r in results)
    out = {"failed_ratio": (sum(r.failed for r in results) / max(attempted, 1),
                            "ratio", attempted),
           "solve_s.p50.wall": (statistics.median(wall_solve_s)
                                if wall_solve_s else math.nan, "s",
                                len(wall_solve_s)),
           "solves_per_s.wall": (len(wall_solve_s) / wall if wall > 0
                                 else math.nan, "1/s", len(wall_solve_s))}
    if len(solve_s) >= 100:
        out["solve_s.p90"] = (statistics.quantiles(solve_s, n=10)[-1], "s",
                              len(solve_s))
    return out
