"""Shared helpers: dense reference contractions and random model builders.

The dense helpers deliberately use plain tensordot chains, independent
of the library's own contraction code, so they can serve as oracles.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from kingspeps import ClusterTopology, cluster, generate_instance, parse_ising
from kingspeps.errors import DimensionError
from kingspeps.ising import IsingGraph
from kingspeps.potts import PottsHamiltonian
from kingspeps.tensor_core import BoundaryMps


def ising_energy(graph: IsingGraph, spins) -> float:
    """Energy of a full spin assignment, each edge counted once: the
    reference the clustered models' energies are checked against.

    Raises:
        DimensionError: if the assignment length differs from the spin count.
    """
    s = np.asarray(spins, dtype=np.float64)
    if s.shape != (graph.n_spins,):
        raise DimensionError(
            f"assignment has length {s.shape}, expected ({graph.n_spins},)")
    energy = float(np.dot(graph.fields, s))
    for (i, j), coupling in graph.couplings.items():
        energy += coupling * s[i - 1] * s[j - 1]
    return energy


def serialize_ising(graph: IsingGraph) -> str:
    """Inverse of ``parse_ising``; parsing the output reproduces the graph.

    Couplings come first in sorted order, then nonzero fields. When the
    largest spin index would otherwise go unmentioned, its (possibly
    zero) field row is emitted to anchor the spin count.
    """
    rows = []
    mentioned = 0
    for (i, j), value in graph.edges():
        rows.append(f"{i} {j} {float(value)!r}")
        mentioned = max(mentioned, j)
    for i in range(1, graph.n_spins + 1):
        h = float(graph.fields[i - 1])
        if h != 0.0:
            rows.append(f"{i} {i} {h!r}")
            mentioned = max(mentioned, i)
    if graph.n_spins > 0 and mentioned < graph.n_spins:
        n = graph.n_spins
        rows.append(f"{n} {n} {float(graph.fields[n - 1])!r}")
    return "\n".join(rows) + ("\n" if rows else "")


def normalize_scale(mps: BoundaryMps) -> BoundaryMps:
    """``mps`` with each tensor divided by its largest magnitude, the logs
    folded into ``log_scale``. The represented vector is unchanged."""
    out = []
    log_scale = mps.log_scale
    for t in mps.tensors:
        mx = np.max(np.abs(t))
        if mx > 0 and mx != 1.0:
            out.append(t / mx)
            log_scale += math.log(mx)
        else:
            out.append(t)
    return BoundaryMps(out, log_scale)


def expanded(mps: BoundaryMps) -> BoundaryMps:
    """The dense expansion of ``mps``: each carried site's diagonal blocks
    written into its zero-padded ``(dl, d, d*r)`` tensor."""
    tensors = []
    for t, carried in zip(mps.tensors, mps.carried):
        if carried:
            dl, d, r = t.shape
            full = np.zeros((dl, d, d, r), dtype=t.dtype)
            for x in range(d):
                full[:, x, x] = t[:, x]
            t = full.reshape(dl, d, d * r)
        tensors.append(t)
    return BoundaryMps(tensors, mps.log_scale)


def dense_mps_vector(mps: BoundaryMps) -> np.ndarray:
    """Full vector represented by an MPS, including its scale factor."""
    mps = expanded(mps)
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


def droplet_distance(a, b, carrier, mode: str) -> int:
    """Hamming distance between the configurations two droplets produce
    on ``carrier``: differing grid variables ("potts") or differing
    source spins, a state's spins being the bits of its index minus one
    ("spin"). The per-pair loop reference for the merge's batched
    distances."""
    flips_a = dict(a.flips)
    flips_b = dict(b.flips)
    distance = 0
    for pos in set(flips_a) | set(flips_b):
        va = flips_a.get(pos, carrier[pos - 1])
        vb = flips_b.get(pos, carrier[pos - 1])
        if mode == "spin":
            distance += ((va - 1) ^ (vb - 1)).bit_count()
        elif va != vb:
            distance += 1
    return distance


@pytest.fixture
def chain_pair():
    """1x2 ferromagnetic spin pair (J = -1) as a clustered model."""
    graph = IsingGraph(2, {(1, 2): -1.0})
    return graph, cluster(graph, ClusterTopology(1, 2, 1))


def strict_json(text: str):
    """``text`` parsed as RFC 8259 JSON: ``Infinity``, ``-Infinity`` and
    ``NaN``, which ``json.loads`` accepts by default, raise ValueError."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


def peak_bytes(call):
    """``(call(), peak)``: the result and the most memory the call held at
    once, as tracemalloc counts it (numpy reports its array buffers)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_raises_exactly(call, error, message: str):
    """``call()`` raises ``error`` itself, not a subclass, whose text is
    ``message``."""
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
