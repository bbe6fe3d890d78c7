"""Exhaustive-enumeration reference for small instances.

Everything here is brute force on purpose: exact spectra, partition
functions, and conditional distributions computed by summation over all
completions. Guarded at ``SIZE_GUARD`` (2^24) configurations.

Enumeration is lexicographic: position ``i`` of the enumeration is the
assignment whose row-major states, less one, are the mixed-radix digits
of ``i``. A spectrum walks it in blocks of ``BLOCK_ROWS`` positions. The
memory a block takes while it is evaluated does not grow with the
number of configurations: its assignments (one byte per site and row up
to 255 states per site) and a handful of 8-byte arrays of
``BLOCK_ROWS`` entries: a few MiB.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DimensionError, check_size
from .potts import PottsHamiltonian, _checked_states, _integer_states

BLOCK_ROWS = 2 ** 16


def config_energies(h: PottsHamiltonian, configs: np.ndarray) -> np.ndarray:
    """Energies of many assignments at once.

    The terms are added one at a time, in the order
    :func:`~kingspeps.potts.potts_energies` adds them (node tables in
    site order, then edge tables in the order they were set), so the
    energies are bit-identical to that function's and memory stays
    linear in rows.

    Args:
        h: the model.
        configs: integer array (n_configs, n_sites) of 1-based states in
            row-major site order.

    Raises as :func:`~kingspeps.potts.potts_energies` does.
    """
    configs = _checked_states(h, configs)
    flat, offset, first, second, stride, _ = h._energy_terms()
    energies = np.zeros(configs.shape[0], dtype=np.float64)
    for at, a, b, step in zip(offset, first, second, stride):
        # flat[at + x_a * step + x_b] for the 0-based states x
        index = (configs[:, a].astype(np.intp) - 1) * step + at - 1
        index += configs[:, b].astype(np.intp)
        energies += flat[index]
    return energies


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


class ExactSpectrum:
    """Complete enumeration of a model, sorted ascending by energy.

    Construction walks the enumeration in blocks of ``BLOCK_ROWS``
    positions and keeps only the float64 energy of each assignment, in
    enumeration order: 8 bytes per configuration. ``min_energy`` and
    ``len()`` are answered from those.

    The first read of ``states`` or ``energies`` (and so of the partition
    function, which reads the sorted energies) sorts them by one stable
    ``argsort`` by energy. The enumeration is lexicographic, so ties are
    broken lexicographically by assignment and the ordering is
    reproducible. The unsorted energies are then dropped and the states
    rebuilt block by block from their enumeration positions. That read
    holds the sort order and the sorted energies (8 bytes per
    configuration each) besides the states (one byte per site and
    configuration up to 255 states per site).

    Attributes:
        states: ``(n_configs, n_sites)`` 1-based states in row-major
            site order, in the smallest unsigned dtype that holds the
            largest site dimension (``np.min_scalar_type``; uint8 up to
            255 states per site).
        energies: float64 energies, ascending.
        min_energy: the lowest energy.
    """

    def __init__(self, h: PottsHamiltonian):
        self._dims = [h.dim(site) for site in h.sites()]
        total = _enumeration_size(self._dims)
        unsorted = np.empty(total, dtype=np.float64)
        for start in range(0, total, BLOCK_ROWS):
            index = np.arange(start, min(start + BLOCK_ROWS, total))
            unsorted[start:start + len(index)] = config_energies(
                h, _assignments(self._dims, index))
        # fmin skips NaN as the sort does, which puts NaN last
        self.min_energy = float(np.fmin.reduce(unsorted))
        self._unsorted = unsorted

    @functools.cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(self._unsorted, kind="stable")
        energies = self._unsorted[order]
        self._unsorted = None
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
    """Enumerate all assignments of a small model.

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
        log_weights[start:start + len(block)] = config_energies(h, block)
    log_weights *= -beta
    # completions come ordered by the site's state first
    log_mass = np.array([_log_sum_exp(weights) for weights
                         in log_weights.reshape(dims[k - 1], -1)])
    return np.exp(log_mass - _log_sum_exp(log_mass))
