"""Shared helpers: dense reference contractions and random model builders.

The dense helpers deliberately use plain tensordot chains, independent
of the library's own contraction code, so they can serve as oracles.
"""

import math

import numpy as np
import pytest

from kingspeps import ClusterTopology, cluster, generate_instance, parse_ising
from kingspeps.ising import IsingGraph
from kingspeps.potts import PottsHamiltonian
from kingspeps.tensor_core import BoundaryMps


def dense_mps_vector(mps: BoundaryMps) -> np.ndarray:
    """Full vector represented by an MPS, including its scale factor."""
    acc = mps.tensors[0]
    for t in mps.tensors[1:]:
        acc = np.tensordot(acc, t, axes=(acc.ndim - 1, 0))
    vec = acc.reshape(-1)
    return vec * math.exp(mps.log_scale)


def random_boundary_mps(phys_dims, bond_dim, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    n = len(phys_dims)
    bonds = [1] + [bond_dim] * (n - 1) + [1]
    tensors = [rng.standard_normal((bonds[i], phys_dims[i], bonds[i + 1]))
               .astype(dtype) for i in range(n)]
    return BoundaryMps(tensors)


def random_potts(rows, cols, dim, seed, scale=1.0) -> PottsHamiltonian:
    """Native grid model with random tables on every king edge."""
    rng = np.random.default_rng(seed)
    h = PottsHamiltonian(rows, cols)
    for site in h.sites():
        h.set_node(site, rng.uniform(-scale, scale, size=dim))
    for r in range(1, rows + 1):
        for c in range(1, cols + 1):
            for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):
                rr, cc = r + dr, c + dc
                if 1 <= rr <= rows and 1 <= cc <= cols:
                    h.set_edge((r, c), (rr, cc),
                               rng.uniform(-scale, scale, size=(dim, dim)))
    return h


def ragged_potts(rows, cols, dims, seed):
    """Native grid model with site dimensions ``dims`` (row-major) and
    random tables on a random subset of the king edges."""
    rng = np.random.default_rng(seed)
    h = PottsHamiltonian(rows, cols)
    dim = dict(zip(h.sites(), dims))
    for site in h.sites():
        h.set_node(site, rng.uniform(-1, 1, size=dim[site]))
    for r, c in h.sites():
        for rr, cc in ((r, c + 1), (r + 1, c - 1), (r + 1, c), (r + 1, c + 1)):
            if (1 <= rr <= rows and 1 <= cc <= cols
                    and rng.random() < 0.7):
                h.set_edge((r, c), (rr, cc), rng.uniform(
                    -1, 1, size=(dim[(r, c)], dim[(rr, cc)])))
    return h


def random_clustered(rows, cols, t, seed):
    """(IsingGraph, clustered PottsHamiltonian) from a generated instance."""
    graph = parse_ising(generate_instance(rows, cols, t, seed=seed))
    return graph, cluster(graph, ClusterTopology(rows, cols, t))


@pytest.fixture
def chain_pair():
    """1x2 ferromagnetic spin pair (J = -1) as a clustered model."""
    graph = IsingGraph(2, {(1, 2): -1.0})
    return graph, cluster(graph, ClusterTopology(1, 2, 1))
