"""Potts Hamiltonians on a king's graph.

A model lives on an m x n grid where every site holds a discrete
variable with its own dimension, sites carry energy tables, and
king-adjacent site pairs (Chebyshev distance 1, diagonals included)
carry pairwise energy tables:

    E(x) = sum_{<a,b>} E_ab(x_a, x_b) + sum_a E_a(x_a).

Models are built either directly (native grids) or by clustering an
Ising graph: consecutive blocks of t spins become one effective
variable with 2^t states, blocks placed row-major on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Mapping, Sequence, Tuple

import numpy as np

from .errors import (DimensionError, GeometryError, InvalidIndexError,
                     NumericError, UnsupportedError, check_count, check_size)
from .ising import IsingGraph

Site = Tuple[int, int]

# the most terms potts_energies gathers at once: 256 KiB of indices
_BLOCK_TERMS = 2 ** 15


@dataclass(frozen=True)
class ClusterTopology:
    """Grid shape for clustering: rows x cols clusters of t spins each."""

    rows: int
    cols: int
    spins_per_cluster: int

    def __post_init__(self):
        for name in ("rows", "cols", "spins_per_cluster"):
            check_count(name, getattr(self, name))
        if self.rows < 1 or self.cols < 1 or self.spins_per_cluster < 1:
            raise DimensionError(f"topology entries must be positive, got {self}")

    @property
    def n_spins(self) -> int:
        return self.rows * self.cols * self.spins_per_cluster


def king_adjacent(a: Site, b: Site) -> bool:
    """True when two distinct sites are a king's move apart."""
    dr, dc = abs(a[0] - b[0]), abs(a[1] - b[1])
    return max(dr, dc) == 1


def cluster_spin_values(t: int) -> np.ndarray:
    """Spin configurations of the 2^t cluster states.

    Row b (0-based, state index b+1) holds the t spin values of that
    state; bit q of b gives spin (-1)^bit for the q-th spin, least
    significant bit first. State 1 is therefore all spins up.
    """
    values = np.ones((2 ** t, t), dtype=np.int8)
    for q in range(t):
        # bit q of b is set in the upper half of each run of 2^(q+1) rows
        values.reshape(-1, 2, 2 ** q, t)[:, 1, :, q] = -1
    return values


class PottsHamiltonian:
    """Energy tables on a king's-graph grid.

    Sites are keyed by 1-based ``(row, col)`` tuples; states are
    1-based. Node tables are dense vectors, edge tables are dense
    matrices stored once per pair with the row-major-earlier site first.
    Stored tables are read-only copies; ``set_node``/``set_edge``
    replace them.
    ``topology`` is the :class:`ClusterTopology` of a model built by
    :func:`cluster`, and None for a native grid model. A grid of more
    than ``SIZE_GUARD`` sites raises TooLargeError.
    """

    def __init__(self, rows: int, cols: int):
        check_count("rows", rows)
        check_count("cols", cols)
        if rows < 1 or cols < 1:
            raise DimensionError(f"grid must be at least 1x1, got {rows}x{cols}")
        check_size(f"the node tables of a {rows}x{cols} grid", rows * cols)
        self.rows = rows
        self.cols = cols
        self._dims: dict[Site, int] = {}
        self._node: dict[Site, np.ndarray] = {}
        self._edge: dict[tuple[Site, Site], np.ndarray] = {}
        self._terms = None
        self.topology: ClusterTopology | None = None

    # -- construction -------------------------------------------------

    def _check_site(self, site: Site):
        r, c = site
        if not (1 <= r <= self.rows and 1 <= c <= self.cols):
            raise InvalidIndexError(
                f"site {site} outside {self.rows}x{self.cols} grid")

    def set_node(self, site: Site, table: Sequence[float]):
        self._check_site(site)
        arr = np.asarray(table, dtype=np.float64).copy()
        if arr.ndim != 1 or arr.size < 1:
            raise DimensionError(f"node table at {site} must be a non-empty vector")
        if np.isnan(arr).any():
            raise NumericError(f"node table at {site} contains NaN")
        old = self._dims.get(site)
        if old is not None and old != arr.size:
            raise DimensionError(
                f"site {site} dimension changed from {old} to {arr.size}")
        arr.flags.writeable = False
        self._dims[site] = arr.size
        self._node[site] = arr
        self._terms = None

    def set_edge(self, a: Site, b: Site, table):
        self._check_site(a)
        self._check_site(b)
        if a == b:
            raise GeometryError(f"edge endpoints coincide at {a}")
        if not king_adjacent(a, b):
            raise GeometryError(f"sites {a} and {b} are not king-adjacent")
        arr = np.asarray(table, dtype=np.float64).copy()
        if arr.ndim != 2:
            raise DimensionError(f"edge table for {a}-{b} must be a matrix")
        if np.isnan(arr).any():
            raise NumericError(f"edge table for {a}-{b} contains NaN")
        if b < a:
            a, b = b, a
            arr = arr.T
        for site, size in ((a, arr.shape[0]), (b, arr.shape[1])):
            old = self._dims.get(site)
            if old is None:
                self._dims[site] = size
            elif old != size:
                raise DimensionError(
                    f"edge table for {a}-{b} disagrees with dimension {old} at {site}")
        arr.flags.writeable = False
        self._edge[(a, b)] = arr
        self._terms = None

    # -- access --------------------------------------------------------

    def sites(self) -> Iterator[Site]:
        """All grid sites in row-major order."""
        for r in range(1, self.rows + 1):
            for c in range(1, self.cols + 1):
                yield (r, c)

    def dim(self, site: Site) -> int:
        self._check_site(site)
        return self._dims.get(site, 1)

    def node_table(self, site: Site) -> np.ndarray:
        self._check_site(site)
        table = self._node.get(site)
        if table is None:
            return np.zeros(self.dim(site), dtype=np.float64)
        return table

    def edge_table(self, a: Site, b: Site) -> np.ndarray | None:
        """Table oriented (state of a, state of b), or None if absent."""
        if b < a:
            table = self._edge.get((b, a))
            return None if table is None else table.T
        return self._edge.get((a, b))

    def edge_tables(self) -> Iterator[tuple[tuple[Site, Site], np.ndarray]]:
        for pair in sorted(self._edge):
            yield pair, self._edge[pair]

    def _positions(self, sites) -> np.ndarray:
        """0-based row-major positions of the ``(row, col)`` ``sites``."""
        rc = np.fromiter(chain.from_iterable(sites), np.intp).reshape(-1, 2)
        return (rc[:, 0] - 1) * self.cols + rc[:, 1] - 1

    def _entry_count(self) -> int:
        """The size of :meth:`_energy_terms`' ``flat``, counted without
        building it."""
        if self._terms is not None:
            return self._terms[0].size
        return max(self._dims.values(), default=1) + sum(
            map(np.size, chain(self._node.values(), self._edge.values())))

    def _energy_terms(self):
        """Every energy term as arrays, in summation order.

        Returns ``(flat, offset, first, second, stride, dims)``: term t
        is ``flat[offset[t] + x[first[t]] * stride[t] + x[second[t]]]``
        for 0-based row-major states x, and ``dims`` holds the site
        dimensions. ``flat`` starts with as many zeros as the largest
        dimension: ``flat[0]`` is the 0.0 a sum starts from, and the
        first d entries stand for the node table of a site of d states
        that has none. Node terms come in ``sites()`` order, naming
        their site twice with stride 0; edge terms follow in the order
        the edges were first set, with the later site's dimension as
        stride. Built once and dropped whenever a table is set.
        """
        if self._terms is None:
            dims = np.ones(self.rows * self.cols, dtype=np.intp)
            dims[self._positions(self._dims)] = np.fromiter(
                self._dims.values(), np.intp, len(self._dims))
            nodes = self._positions(self._node)
            order = np.argsort(nodes)
            tables = list(self._node.values())
            tables = [tables[i] for i in order.tolist()] + list(
                self._edge.values())
            ends = self._positions(chain.from_iterable(self._edge)).reshape(-1, 2)
            sizes = np.fromiter(map(np.size, tables), np.intp, len(tables))
            head = int(dims.max())
            self._terms = (
                np.concatenate([np.zeros(head)] + tables, axis=None),
                head + np.cumsum(sizes) - sizes,
                np.concatenate([nodes[order], ends[:, 0]]),
                np.concatenate([nodes[order], ends[:, 1]]),
                np.concatenate([np.zeros(len(nodes), np.intp), dims[ends[:, 1]]]),
                dims)
        return self._terms

    def __repr__(self):
        return f"PottsHamiltonian({self.rows}x{self.cols}, edges={len(self._edge)})"


def cluster(graph: IsingGraph, topology: ClusterTopology) -> PottsHamiltonian:
    """Group an Ising graph into effective grid variables.

    Spin with 1-based index l belongs to cluster k = (l-1) // t, and
    cluster k sits row-major at (k // cols + 1, k % cols + 1). Each
    cluster's 2^t states enumerate its spin configurations as in
    :func:`cluster_spin_values`. Node tables hold intra-cluster
    couplings plus fields; edge tables hold the inter-cluster couplings.

    Raises:
        DimensionError: spin count does not match the topology.
        GeometryError: a coupling connects clusters that are not
            king-adjacent, naming the offending spins.
        TooLargeError: a node table (2^t entries), an edge table (4^t)
            between coupled clusters, or all tables together would exceed
            ``SIZE_GUARD``; checked before any table is built.
    """
    m, n, t = topology.rows, topology.cols, topology.spins_per_cluster
    if graph.n_spins != topology.n_spins:
        raise DimensionError(
            f"graph has {graph.n_spins} spins, topology ({m},{n},{t}) "
            f"needs {topology.n_spins}")

    d = 2 ** int(t)
    sites = [(r + 1, c + 1) for r in range(m) for c in range(n)]
    spin = np.array(list(graph.couplings), dtype=np.intp).reshape(-1, 2) - 1
    coupling = np.fromiter(graph.couplings.values(), np.float64, len(spin))
    # each coupling's clusters and its spins in them, earlier cluster first
    k, q = np.divmod(np.sort(spin, axis=1), t)
    intra = k[:, 0] == k[:, 1]
    inter = np.flatnonzero(~intra)
    row, col = np.divmod(k[inter], n)
    far = (abs(row[:, 0] - row[:, 1]) > 1) | (abs(col[:, 0] - col[:, 1]) > 1)
    if far.any():
        i, j = spin[inter[np.argmax(far)]] + 1
        raise GeometryError(
            f"coupling between spins {i} and {j} connects clusters at "
            f"{sites[(i - 1) // t]} and {sites[(j - 1) // t]}, "
            f"which are not king-adjacent")
    check_size(f"node table of a cluster of {t} spins", d)
    if inter.size:
        check_size(f"edge table between clusters of {t} spins", d * d)
    pairs, first, slot = np.unique(k[inter] @ [m * n, 1], return_index=True,
                                   return_inverse=True)
    check_size(f"a model of {m * n} node and {len(pairs)} edge tables",
               m * n * d + len(pairs) * d * d)
    spins = cluster_spin_values(t).T

    # each table adds its terms in the order of the couplings, after the
    # fields for a node table
    node = np.zeros((m * n, d))
    for bit, field in enumerate(graph.fields.reshape(m * n, t).T):
        node += field[:, None] * spins[bit]
    cs, qa, qb = coupling[intra, None], q[intra, 0], q[intra, 1]
    _add_in_order(node, k[intra, 0],
                  lambda s: cs[s] * spins[qa[s]] * spins[qb[s]])
    order = np.argsort(first)  # the edges in order of their first coupling
    edge = np.zeros((len(pairs), d, d))
    cs, qa, qb = coupling[inter, None, None], q[inter, 0], q[inter, 1]
    _add_in_order(edge, np.argsort(order)[slot], lambda s: cs[s] * (
        spins[qa[s]][:, :, None] * spins[qb[s]][:, None, :]))
    ends = [(sites[a], sites[b]) for a, b in zip(
        *(c.tolist() for c in np.divmod(pairs[order], m * n)))]
    bad = np.isnan(node).any(axis=1)
    if bad.any():
        raise NumericError(f"node table at {sites[np.argmax(bad)]} contains NaN")
    bad = np.isnan(edge).any(axis=(1, 2))
    if bad.any():
        a, b = ends[np.argmax(bad)]
        raise NumericError(f"edge table for {a}-{b} contains NaN")

    h = PottsHamiltonian(m, n)
    node.flags.writeable = edge.flags.writeable = False
    h._dims = dict.fromkeys(sites, d)
    h._node = dict(zip(sites, node))
    h._edge = dict(zip(ends, edge))
    h.topology = topology
    return h


def _add_in_order(tables, at, terms):
    """``tables[at[i]] += terms(i)`` for every coupling i, in order.

    ``np.add.at`` adds at a repeated index in order, and so do batches
    taken in order; each batch holds at most ``len(tables)`` couplings,
    so its terms take no more memory than the tables they fill.
    """
    step = max(len(tables), 1)
    for start in range(0, len(at), step):
        s = slice(start, start + step)
        np.add.at(tables, at[s], terms(s))


def _as_states(h: PottsHamiltonian, assignment) -> np.ndarray:
    """A mapping site -> state or a row-major sequence of states as a
    checked ``(1, rows * cols)`` array."""
    if isinstance(assignment, Mapping):
        missing = [site for site in h.sites() if site not in assignment]
        if missing:
            raise InvalidIndexError(f"assignment missing site {missing[0]}")
        assignment = [assignment[site] for site in h.sites()]
    return _checked_states(h, [list(assignment)])


def _integer_states(values) -> np.ndarray:
    """``values`` as an array; InvalidIndexError unless it holds integers."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise InvalidIndexError(f"states must be integers, got {values.dtype}")
    return values


def _checked_states(h: PottsHamiltonian, values) -> np.ndarray:
    """``values`` as an array of row-major assignments, one per row,
    after the checks :func:`potts_energies` documents."""
    dims = h._energy_terms()[-1]
    values = np.asarray(values)
    if values.ndim != 2 or values.shape[1] != len(dims):
        raise DimensionError(
            f"assignments must be (B, {len(dims)}), got shape {values.shape}")
    values = _integer_states(values)
    # column extremes find a fault without a mask the size of values
    if ((values.min(axis=0, initial=1) < 1).any()
            or (values.max(axis=0, initial=1) > dims).any()):
        row, col = np.argwhere((values < 1) | (values > dims))[0]
        site = (int(col) // h.cols + 1, int(col) % h.cols + 1)
        raise InvalidIndexError(
            f"state {values[row, col]} at site {site} outside 1..{dims[col]}")
    return values


def potts_energies(h: PottsHamiltonian, values) -> np.ndarray:
    """Exact energies of full assignments, one per row of ``values``.

    ``values`` is a ``(B, N)`` integer array of 1-based states in
    row-major site order. Rows are summed in blocks of at most
    ``_BLOCK_TERMS`` terms (one row at least): a block gathers its terms
    through ``PottsHamiltonian._energy_terms`` as a ``(terms, rows)``
    array headed by ``flat[0] = 0.0`` and adds them down the terms with
    ``np.add.accumulate``, in order and never pairwise as a reduce may:
    node tables in ``h.sites()`` order, then edge tables in the order
    they were set. So each energy is bit-identical to a plain scalar
    loop from 0.0, whatever ``B`` and wherever a block ends.

    Raises:
        DimensionError: ``values`` is not ``(B, rows * cols)``.
        InvalidIndexError: a state is not an integer or lies outside its
            site's ``1..dim``; the first offending entry is named.
    """
    flat, offset, first, second, stride, _ = h._energy_terms()
    x = _checked_states(h, values)
    step = max(_BLOCK_TERMS // (len(offset) + 1), 1)
    energies = np.empty(len(x))
    for start in range(0, len(x), step):
        block = x[start:start + step].T.astype(np.intp) - 1
        at = np.zeros((len(offset) + 1, block.shape[1]), dtype=np.intp)
        np.multiply(block[first], stride[:, None], out=at[1:])  # no temporary
        at[1:] += block[second] + offset[:, None]
        energies[start:start + step] = np.add.accumulate(flat[at], axis=0)[-1]
    return energies


def potts_energy(h: PottsHamiltonian, assignment) -> float:
    """Exact energy of a full assignment: the one-row case of
    :func:`potts_energies`.

    Args:
        h: the model.
        assignment: either a mapping site -> state or a row-major
            sequence of 1-based states.
    """
    return float(potts_energies(h, _as_states(h, assignment))[0])


def decode(h: PottsHamiltonian, assignment) -> np.ndarray:
    """The +1/-1 spins (int8) a Potts assignment of a clustered model
    stands for: each state's row of :func:`cluster_spin_values`, in site
    order, as :func:`cluster` gives cluster k spins k*t+1 .. (k+1)*t."""
    if h.topology is None:
        raise UnsupportedError("decode needs the topology of a clustered model")
    t = h.topology.spins_per_cluster
    return cluster_spin_values(t)[_as_states(h, assignment)[0] - 1].reshape(-1)


def encode(h: PottsHamiltonian, spins: Sequence[int]) -> tuple[int, ...]:
    """The row-major Potts states of a clustered model's +1/-1 spins, the
    inverse of :func:`decode`. DimensionError unless ``spins`` has shape
    ``(n_spins,)``, InvalidIndexError for any other spin value."""
    if h.topology is None:
        raise UnsupportedError("encode needs the topology of a clustered model")
    n, t = h.topology.n_spins, h.topology.spins_per_cluster
    spins = np.asarray(spins)
    if spins.shape != (n,):
        raise DimensionError(f"spins must have shape ({n},), got {spins.shape}")
    valid = np.isin(spins, (-1, 1))
    if not valid.all():
        raise InvalidIndexError(f"spins must be +1 or -1, got {spins[~valid][0]}")
    down = spins.reshape(-1, t) < 0
    return tuple((down @ (1 << np.arange(t)) + 1).tolist())
