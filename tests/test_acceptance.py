"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them all).
"""

import itertools
import math
import time

import numpy as np
import pytest

from kingspeps import (ALL_TRANSFORMS, ClusterTopology, ContractionParams,
                       DropletParams, SearchParams, cluster, exact_spectrum,
                       generate_instance, low_energy_spectrum, parse_ising,
                       potts_energy, unpack_droplets)
from kingspeps.oracle import exact_conditional
from kingspeps.potts import potts_energies
from kingspeps.peps import (bottom_environments, build_network,
                            conditional_distribution, contract_network)
from kingspeps.tensor_core import compress, svd_truncate
from conftest import droplet_distance, random_boundary_mps, random_potts

REFERENCE_PARAMS = ContractionParams(bond_dim=16, num_sweeps=1, beta=2.0)
REFERENCE_SEARCH = SearchParams(max_states=256, cut_off_prob=1e-4)
REFERENCE_DROPLETS = DropletParams(energy_cutoff=10.0, hamming_cutoff=5,
                                   mode="spin")


def _report(number, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {label}" +
          (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number} failed: {label} {detail}"


def _benchmark_instances():
    instances = []
    for topo_idx, (t, seeds) in enumerate((
            (1, range(100, 120)), (2, range(200, 220)))):
        for seed in seeds:
            graph = parse_ising(generate_instance(3, 3, t, seed=seed))
            instances.append((seed, cluster(graph, ClusterTopology(3, 3, t))))
    return instances


@pytest.fixture(scope="module")
def benchmark_solutions():
    """All-transform solutions of the 40 benchmark instances (shared by
    criteria 1 and 4), plus the wall time spent solving."""
    start = time.monotonic()
    results = []
    for seed, h in _benchmark_instances():
        per_transform = {
            tr.name: low_energy_spectrum(h, tr, REFERENCE_PARAMS,
                                         REFERENCE_SEARCH, REFERENCE_DROPLETS)
            for tr in ALL_TRANSFORMS}
        results.append((seed, h, per_transform))
    elapsed = time.monotonic() - start
    return results, elapsed


def test_criterion_1_oracle_ground_state(benchmark_solutions):
    results, elapsed = benchmark_solutions
    hits = 0
    for seed, h, per_transform in results:
        reference = exact_spectrum(h).min_energy
        found = per_transform["r0"].best_energy
        if abs(found - reference) <= 1e-9 * max(1.0, abs(reference)):
            hits += 1
    _report(1, "ground state equals enumeration on 40 instances",
            hits == 40 and elapsed < 300.0,
            f"{hits}/40 matched, {elapsed:.1f}s for all transforms")


def test_criterion_2_exact_conditionals():
    worst = 0.0
    checks = 0
    for rows, cols, dim, chi, seed in ((4, 4, 2, 16, 41), (3, 3, 4, 64, 42)):
        h = random_potts(rows, cols, dim, seed=seed)
        net = build_network(h, beta=1.0)
        params = ContractionParams(bond_dim=chi, num_sweeps=0, beta=1.0)
        envs = bottom_environments(net, params)
        rng = np.random.default_rng(seed)
        for _ in range(100):
            k = int(rng.integers(1, rows * cols + 1))
            partial = tuple(int(rng.integers(1, dim + 1))
                            for _ in range(k - 1))
            mine = conditional_distribution(net, envs, partial)
            reference = exact_conditional(h, 1.0, partial)
            worst = max(worst, float(np.max(np.abs(mine - reference))))
            checks += 1
    _report(2, "untruncated conditionals match enumeration",
            worst <= 1e-8 and checks == 200,
            f"worst entry error {worst:.2e} over {checks} partials")


def test_criterion_3_partition_function_identity():
    worst = 0.0
    for seed in range(10):
        dim = 2 + seed % 2
        h = random_potts(3, 3, dim, seed=300 + seed)
        spec = exact_spectrum(h)
        for beta in (0.5, 1.0, 2.0):
            net = build_network(h, beta=beta)
            value, log_scale = contract_network(net)
            z = value * math.exp(log_scale)
            reference = spec.partition(beta)
            worst = max(worst, abs(z - reference) / reference)
    _report(3, "network Z equals brute-force partition sum",
            worst <= 1e-8, f"worst relative error {worst:.2e}")


def test_criterion_4_transform_invariance(benchmark_solutions):
    results, _ = benchmark_solutions
    agreements = 0
    worst = 0.0
    for seed, h, per_transform in results:
        energies = [sol.best_energy for sol in per_transform.values()]
        scale = max(1.0, max(abs(e) for e in energies))
        spread = (max(energies) - min(energies)) / scale
        worst = max(worst, spread)
        if spread <= 1e-6:
            agreements += 1
    _report(4, "best energies agree across all 8 transforms",
            agreements == 40, f"{agreements}/40, worst spread {worst:.2e}")


def test_criterion_5_full_spectrum_recovery():
    ok = True
    for seed in range(5):
        graph = parse_ising(generate_instance(3, 3, 1, seed=500 + seed))
        h = cluster(graph, ClusterTopology(3, 3, 1))
        spec = exact_spectrum(h)
        params = ContractionParams(bond_dim=64, num_sweeps=0, beta=1.0)
        wide = SearchParams(max_states=512, cut_off_prob=0.0)
        merged = low_energy_spectrum(
            h, ALL_TRANSFORMS[0], params, wide,
            DropletParams(energy_cutoff=math.inf, hamming_cutoff=0,
                          mode="spin"))
        unpacked = unpack_droplets(merged, max_depth=None)
        plain = low_energy_spectrum(h, ALL_TRANSFORMS[0], params, wide, None)
        for sol in (unpacked, plain):
            ok = ok and len(sol.states) == 512
            ok = ok and np.allclose(np.sort(sol.energies), spec.energies,
                                    atol=1e-9)
    _report(5, "full spectrum recovered with exhaustive limits", ok,
            "merge+unpack and no-merge routes on 5 instances")


def test_criterion_6_droplet_consistency():
    energy_ok = True
    separation_ok = True
    checked_states = 0
    checked_pairs = 0
    for idx in range(10):
        # planted degeneracy: no fields makes the spectrum exactly
        # spin-flip symmetric; odd instances add one weak field that
        # splits the pair by far less than the coupling scale
        t = 1 if idx < 5 else 2
        rows = 3
        text = generate_instance(rows, 3, t, seed=600 + idx)
        if idx % 2:
            text += f"1 1 {1e-4 * (idx + 1)!r}\n"
        h = cluster(parse_ising(text), ClusterTopology(rows, 3, t))
        sol = low_energy_spectrum(h, ALL_TRANSFORMS[0], REFERENCE_PARAMS,
                                  REFERENCE_SEARCH, REFERENCE_DROPLETS)
        unpacked = unpack_droplets(sol, max_depth=None)
        for state, energy in zip(unpacked.states, unpacked.energies):
            direct = potts_energy(h, state)
            if abs(energy - direct) > 1e-9 * max(1.0, abs(direct)):
                energy_ok = False
            checked_states += 1
        for state, droplets in zip(sol.states, sol.droplets):
            for a, b in itertools.combinations(droplets, 2):
                checked_pairs += 1
                if droplet_distance(a, b, state, "spin") < 5:
                    separation_ok = False
    _report(6, "unpacked energies re-evaluate exactly and droplets stay apart",
            energy_ok and separation_ok,
            f"{checked_states} states, {checked_pairs} droplet pairs")


def test_criterion_7_compression_contract():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        rows, cols = rng.integers(2, 10, size=2)
        chi = int(rng.integers(1, 7))
        m = rng.standard_normal((rows, cols))
        u, s, v, dw = svd_truncate(m, chi)
        err = np.linalg.norm(m - u @ np.diag(s) @ v.T, "fro") ** 2
        scale = max(np.linalg.norm(m, "fro") ** 2, 1e-30)
        worst = max(worst, abs(err - dw) / scale)
    svd_ok = worst <= 1e-10

    sweep_ok = True
    for case in range(50):
        width = 3 + case % 4
        dims = [2 + (case + i) % 2 for i in range(width)]
        mps = random_boundary_mps(dims, 6, seed=700 + case)
        fidelities = [compress(mps, ContractionParams(bond_dim=2,
                                                      num_sweeps=k))[1]
                      for k in range(4)]
        for a, b in zip(fidelities, fidelities[1:]):
            if b < a - 1e-12:
                sweep_ok = False
    _report(7, "SVD discarded weight and monotone sweep fidelity",
            svd_ok and sweep_ok,
            f"worst SVD mismatch {worst:.2e} over 1000 matrices")


def test_criterion_8_scale_robustness():
    graph = parse_ising(generate_instance(16, 16, 1, seed=800))
    h = cluster(graph, ClusterTopology(16, 16, 1))
    params = ContractionParams(bond_dim=16, num_sweeps=1, beta=4.0)
    start = time.monotonic()
    sol = low_energy_spectrum(h, ALL_TRANSFORMS[0], params, REFERENCE_SEARCH,
                              DropletParams(energy_cutoff=1.0,
                                            hamming_cutoff=16, mode="spin"))
    elapsed = time.monotonic() - start
    finite = math.isfinite(sol.best_energy) and all(
        math.isfinite(lp) for lp in sol.log_probabilities[:1])

    rng = np.random.default_rng(801)
    best_random = math.inf
    for _ in range(5):
        configs = rng.integers(1, 3, size=(20000, 256), dtype=np.int8)
        best_random = min(best_random,
                          float(potts_energies(h, configs).min()))
    _report(8, "256-spin instance solves fast and beats random sampling",
            finite and elapsed < 60.0 and sol.best_energy <= best_random,
            f"{elapsed:.1f}s, found {sol.best_energy:.4f} vs "
            f"random {best_random:.4f}")
