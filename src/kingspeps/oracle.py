"""Exact references for small and narrow instances.

Spectra, ground energies, partition functions and conditional
distributions are brute force on purpose: summed over every
configuration, guarded at ``SIZE_GUARD`` (2^24) configurations. Beyond
that guard, :func:`frontier_ground` finds a ground state by a min-sum
sweep along the grid's shorter side. Its cost grows with the number of
sites and exponentially only in the grid's width, so it reaches 8x8
grids of 4-state sites and 16x16 grids of spins in seconds.

Enumeration is lexicographic: position ``i`` of the enumeration is the
assignment whose row-major states, less one, are the mixed-radix digits
of ``i``. A spectrum walks it in blocks of ``BLOCK_ROWS`` positions. The
memory a block takes while it is evaluated does not grow with the
number of configurations: its assignments (one byte per site and row up
to 255 states per site) and a handful of 8-byte arrays of
``BLOCK_ROWS`` entries: a few MiB.

Every energy is :func:`~kingspeps.potts.potts_energies`, the solver's
own sum, also under the name ``config_energies``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import SIZE_GUARD, DimensionError, TooLargeError, check_size
from .potts import (PottsHamiltonian, _checked_states, _integer_states,
                    potts_energies)

BLOCK_ROWS = 2 ** 16


config_energies = potts_energies


def _enumeration_size(dims: list[int]) -> int:
    """Number of assignments of sites with dimensions ``dims``.

    Raises:
        TooLargeError: it exceeds ``SIZE_GUARD``.
    """
    total = math.prod(dims)
    check_size("the enumeration of all configurations", total)
    return total


def _state_dtype(dims: list[int]) -> np.dtype:
    return np.min_scalar_type(max(dims, default=1))


def _assignments(dims: list[int], index: np.ndarray) -> np.ndarray:
    """The assignments at enumeration positions ``index``, one per row.

    Row-major 1-based states, in the smallest unsigned dtype that holds
    the largest state (as ``Branches.root`` stores them).
    """
    configs = np.empty((len(index), len(dims)), dtype=_state_dtype(dims))
    for i in range(len(dims) - 1, -1, -1):
        configs[:, i] = index % dims[i] + 1
        index = index // dims[i]
    return configs


def _log_sum_exp(values: np.ndarray) -> float:
    peak = float(np.max(values))
    return peak + float(np.log(np.sum(np.exp(values - peak))))


def frontier_ground(h: PottsHamiltonian) -> tuple[float, tuple[int, ...]]:
    """A ground state of ``h`` by a min-sum sweep, and its energy.

    Sites are placed one at a time, line by line along the grid's
    shorter side (row-major unless the grid has more columns than
    rows). A table over the placed sites that still have an edge to an
    unplaced one holds, for each of their assignments, the lowest
    energy of the terms placed so far. Placing a site adds its node
    table and its edges to placed sites. A site whose last edge has been
    placed is minimised out, and the state that attains the minimum (the
    lowest one on a tie) is kept for each assignment of the rest, as a
    backpointer in the smallest unsigned dtype that holds a state. On a
    king's graph ``w`` sites wide the table spans at most ``w + 2``
    sites; the backpointers walked back from the last site give the
    state.

    Returns:
        ``(energy, state)``: ``state`` holds the 1-based row-major
        states, and ``energy`` is :func:`~kingspeps.potts.potts_energies`
        of it, summed in that function's order. The sweep sums in
        another order, so where two assignments' energies lie within
        its rounding it may pick the one whose energy is an ulp above
        the enumeration's minimum; and a site minimised out at ``-inf``
        before a ``+inf`` term is added gives NaN where the minimum is
        ``+inf``. ``ExactSpectrum.min_energy`` is the exact minimum.

    Raises:
        TooLargeError: a table would exceed ``SIZE_GUARD`` entries, or
            the backpointers together the guard's bytes (128 MiB);
            checked before any table is built.
    """
    sites = list(h.sites())
    order = sites
    if h.cols > h.rows:  # column by column, along the shorter side
        order = sorted(sites, key=lambda site: site[::-1])
    step = {site: k for k, site in enumerate(order)}
    dims = {site: h.dim(site) for site in sites}
    back = {site: [] for site in sites}  # edges to sites placed before
    last = dict(step)  # the step that places a site's last edge
    for (a, b), edge in h.edge_tables():
        if step[a] > step[b]:
            a, b, edge = b, a, edge.T
        back[b].append((a, edge))
        last[a] = max(last[a], step[b])

    dtype = _state_dtype(list(dims.values()))
    leaving = []  # the sites minimised out after each step
    live, size, largest, kept = [], 1, 1, 0
    for k, site in enumerate(order):
        live.append(site)
        size *= dims[site]
        largest = max(largest, size)
        leaving.append([s for s in live if last[s] == k])
        for gone in leaving[-1]:
            live.remove(gone)
            size //= dims[gone]
            kept += size
    check_size("the largest table of the frontier sweep", largest)
    if kept * dtype.itemsize > 8 * SIZE_GUARD:
        raise TooLargeError(
            f"the frontier sweep's backpointers take {kept * dtype.itemsize} "
            f"bytes, more than the size guard's {8 * SIZE_GUARD}")

    table = np.zeros(())  # over the sites in live, in the order placed
    trail = []  # (site, the live sites after it, backpointers)
    for k, site in enumerate(order):
        terms = h.node_table(site).reshape((1,) * len(live) + (-1,))
        for a, edge in back[site]:
            shape = [1] * (len(live) + 1)
            shape[live.index(a)], shape[-1] = edge.shape
            terms = terms + edge.reshape(shape)
        table = table[..., None] + terms
        live.append(site)
        for gone in leaving[k]:
            axis = live.index(gone)
            del live[axis]
            table, best = _min_out(table, axis, dtype)
            trail.append((gone, list(live), best))

    state = {}
    for gone, rest, best in reversed(trail):
        state[gone] = int(best[tuple(state[s] - 1 for s in rest)])
    ground = tuple(state[site] for site in sites)
    return float(potts_energies(h, [ground])[0]), ground


def _min_out(table: np.ndarray, axis: int,
             dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """``table``'s minimum over ``axis``, and the 1-based state along it
    that attains the minimum, the lowest on a tie. NaN (from infinite
    terms of both signs) counts as above every number, as the
    enumeration's sort puts it last."""
    slices = np.moveaxis(table, axis, 0)
    low = np.array(slices[0])
    best = np.ones(low.shape, dtype=dtype)
    for x in range(1, len(slices)):
        best[(slices[x] < low) | np.isnan(low)] = x + 1
        np.fmin(low, slices[x], out=low)
    return low, best


class ExactSpectrum:
    """Complete enumeration of a model, sorted ascending by energy.

    Construction only checks that the enumeration fits ``SIZE_GUARD``,
    and ``len()`` is the product of the site dimensions. ``min_energy``
    walks the enumeration in blocks of ``BLOCK_ROWS`` positions when
    first asked for and keeps a running ``np.fmin`` of their energies,
    so it holds one block at a time, not 8 bytes per configuration. It
    and the sorted arrays below read ``h`` as it stands when first
    asked for.

    The first read of ``states`` or ``energies`` (and so of the partition
    function, which reads the sorted energies) walks the enumeration in
    blocks of ``BLOCK_ROWS`` positions, keeping the float64 energy of
    each assignment, and sorts them by one stable ``argsort`` by energy.
    The enumeration is lexicographic, so ties are broken
    lexicographically by assignment and the ordering is reproducible.
    The unsorted energies are then dropped and the states rebuilt block
    by block from their enumeration positions. That read holds at most
    three arrays of 8 bytes per configuration (the energies unsorted and
    sorted, and the sort order), and then the states (one byte per site
    and configuration up to 255 states per site) besides the last two.

    Attributes:
        states: ``(n_configs, n_sites)`` 1-based states in row-major
            site order, in the smallest unsigned dtype that holds the
            largest site dimension (``np.min_scalar_type``; uint8 up to
            255 states per site).
        energies: float64 energies, ascending.
        min_energy: the lowest energy, bit-identical to ``energies[0]``
            (``fmin`` skips NaN as the sort puts it last).
    """

    def __init__(self, h: PottsHamiltonian):
        self._h = h
        self._dims = [h.dim(site) for site in h.sites()]
        _enumeration_size(self._dims)

    @functools.cached_property
    def min_energy(self) -> float:
        low = np.nan
        for block in self._blocks():
            low = np.fmin(low, np.fmin.reduce(block))
        return float(low)

    def _blocks(self):
        """The energies of the enumeration, block by block, in order."""
        total = len(self)
        for start in range(0, total, BLOCK_ROWS):
            index = np.arange(start, min(start + BLOCK_ROWS, total))
            yield potts_energies(self._h, _assignments(self._dims, index))

    @functools.cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        unsorted = np.concatenate(list(self._blocks()))
        order = np.argsort(unsorted, kind="stable")
        energies = unsorted[order]
        del unsorted
        states = np.empty((len(order), len(self._dims)),
                          dtype=_state_dtype(self._dims))
        for start in range(0, len(order), BLOCK_ROWS):
            block = order[start:start + BLOCK_ROWS]
            states[start:start + len(block)] = _assignments(self._dims, block)
        return states, energies

    @property
    def states(self) -> np.ndarray:
        return self._sorted[0]

    @property
    def energies(self) -> np.ndarray:
        return self._sorted[1]

    def __len__(self):
        return math.prod(self._dims)

    def log_partition(self, beta: float) -> float:
        return _log_sum_exp(-beta * self.energies)

    def partition(self, beta: float) -> float:
        return float(np.exp(self.log_partition(beta)))


def exact_spectrum(h: PottsHamiltonian) -> ExactSpectrum:
    """The spectrum of a small model, enumerated when first read
    (:class:`ExactSpectrum`).

    Raises:
        TooLargeError: the state space exceeds 2^24.
    """
    return ExactSpectrum(h)


def exact_conditional(h: PottsHamiltonian, beta: float, partial) -> np.ndarray:
    """Exact Boltzmann conditional of the site after its row-major
    predecessors ``partial``, by summation over all completions, walked
    in blocks of ``BLOCK_ROWS`` behind the prefix; only their float64
    weights are kept. A value that is not an integer in its site's 1..d
    raises InvalidIndexError; a prefix that assigns every site,
    DimensionError, as in :func:`kingspeps.peps.conditional_distribution`."""
    partial = _integer_states(tuple(partial)).astype(np.int64)
    sites = list(h.sites())
    k = len(partial) + 1
    if k > len(sites):
        raise DimensionError(f"site position {k} outside 1..{len(sites)}")
    # checked first: the blocks' small dtype would wrap a bad state round
    _checked_states(h, [partial.tolist() + [1] * (len(sites) - k + 1)])

    dims = [h.dim(site) for site in sites]
    total = _enumeration_size(dims[k - 1:])
    log_weights = np.empty(total)
    configs = np.empty((min(total, BLOCK_ROWS), len(dims)),
                       dtype=_state_dtype(dims))
    configs[:, :k - 1] = partial
    for start in range(0, total, BLOCK_ROWS):
        block = configs[:min(BLOCK_ROWS, total - start)]
        block[:, k - 1:] = _assignments(
            dims[k - 1:], np.arange(start, start + len(block)))
        log_weights[start:start + len(block)] = potts_energies(h, block)
    log_weights *= -beta
    # completions come ordered by the site's state first
    log_mass = np.array([_log_sum_exp(weights) for weights
                         in log_weights.reshape(dims[k - 1], -1)])
    return np.exp(log_mass - _log_sum_exp(log_mass))
