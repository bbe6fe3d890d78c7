"""Golden regression of the search: fixed instances, pinned outputs.

States, energies and droplet trees must match the recorded run exactly
(droplets through a SHA-256 of their ``repr``); log-probabilities to
1e-10 absolute and the largest discarded probability to 1e-8 relative.
The cases prune, merge with ties in energy, record droplets, run all
eight transforms and use ragged native-Potts dimensions.

To re-record after an intended change of the search's output:

    PYTHONPATH=src python tests/test_golden_search.py
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from kingspeps import (ALL_TRANSFORMS, ClusterTopology, ContractionParams,
                       DropletParams, SearchParams, cluster,
                       generate_instance, low_energy_spectrum, merge_solutions,
                       parse_ising, unpack_droplets)
from kingspeps.potts import PottsHamiltonian

GOLDEN_PATH = Path(__file__).with_name("golden_search.json")


def _clustered(rows, cols, t, seed):
    graph = parse_ising(generate_instance(rows, cols, t, seed=seed))
    return cluster(graph, ClusterTopology(rows, cols, t))


def _ragged_potts(rows, cols, seed):
    rng = np.random.default_rng(seed)
    h = PottsHamiltonian(rows, cols)
    for site in h.sites():
        h.set_node(site, rng.uniform(-1, 1, size=int(rng.integers(2, 5))))
    for r in range(1, rows + 1):
        for c in range(1, cols + 1):
            for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):
                other = (r + dr, c + dc)
                if 1 <= other[0] <= rows and 1 <= other[1] <= cols:
                    shape = (h.dim((r, c)), h.dim(other))
                    h.set_edge((r, c), other, rng.uniform(-1, 1, size=shape))
    return h


def _case_solutions(name):
    """Named solutions of one case, in a fixed order."""
    if name == "ising8x8-b4":
        h = _clustered(8, 8, 1, seed=80)
        sol = low_energy_spectrum(
            h, ALL_TRANSFORMS[0],
            ContractionParams(bond_dim=8, num_sweeps=1, beta=4.0),
            SearchParams(max_states=64, cut_off_prob=1e-6),
            DropletParams(energy_cutoff=2.0, hamming_cutoff=4, mode="spin"))
        return {"r0": sol}
    if name == "cluster3x3x2-8tr":
        h = _clustered(3, 3, 2, seed=3300)
        out = {tr.name: low_energy_spectrum(
            h, tr, ContractionParams(bond_dim=16, num_sweeps=1, beta=2.0),
            SearchParams(max_states=256, cut_off_prob=1e-4),
            DropletParams(energy_cutoff=10.0, hamming_cutoff=5, mode="spin"))
            for tr in ALL_TRANSFORMS}
        merged = merge_solutions(list(out.values()))
        out["merged"] = merged
        out["unpacked"] = unpack_droplets(merged)
        return out
    if name == "ragged-potts3x4":
        h = _ragged_potts(3, 4, seed=31)
        params = ContractionParams(bond_dim=4, num_sweeps=1, beta=1.5)
        search = SearchParams(max_states=24, cut_off_prob=1e-3)
        merged = low_energy_spectrum(
            h, ALL_TRANSFORMS[5], params, search,
            DropletParams(energy_cutoff=1.5, hamming_cutoff=2, mode="potts"))
        plain = low_energy_spectrum(h, ALL_TRANSFORMS[3], params, search, None)
        return {"r90f": merged, "r270-no-merge": plain,
                "unpacked": unpack_droplets(merged, max_depth=None)}
    raise KeyError(name)


CASES = ("ising8x8-b4", "cluster3x3x2-8tr", "ragged-potts3x4")


def _summary(sol):
    return {
        "states": [list(s) for s in sol.states],
        "energies": list(sol.energies),
        "log_probabilities": list(sol.log_probabilities),
        "droplets_sha256": hashlib.sha256(
            repr(sol.droplets).encode()).hexdigest(),
        "droplet_count": sum(len(d) for d in sol.droplets),
        "largest_discarded_probability": sol.largest_discarded_probability,
    }


def _record():
    golden = {case: {key: _summary(sol)
                     for key, sol in _case_solutions(case).items()}
              for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(golden) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_cases_exercise_pruning_and_droplets(golden):
    assert golden["ising8x8-b4"]["r0"]["largest_discarded_probability"] > 0
    assert golden["ising8x8-b4"]["r0"]["droplet_count"] > 0
    assert golden["ragged-potts3x4"]["r90f"]["droplet_count"] > 0


@pytest.mark.parametrize("case", CASES)
def test_matches_recorded_output(golden, case):
    for key, sol in _case_solutions(case).items():
        want, got = golden[case][key], _summary(sol)
        assert got["states"] == want["states"], key
        assert got["energies"] == want["energies"], key
        assert got["droplets_sha256"] == want["droplets_sha256"], key
        assert np.allclose(got["log_probabilities"],
                           want["log_probabilities"], rtol=0, atol=1e-10), key
        assert math.isclose(got["largest_discarded_probability"],
                            want["largest_discarded_probability"],
                            rel_tol=1e-8, abs_tol=0.0), key


if __name__ == "__main__":
    _record()
