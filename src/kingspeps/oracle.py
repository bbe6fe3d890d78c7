"""Exhaustive-enumeration reference for small instances.

Everything here is brute force on purpose: exact spectra, partition
functions, and conditional distributions computed by summation over all
completions. Guarded at 2^24 configurations.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, TooLargeError
from .potts import PottsHamiltonian, _checked_states, _integer_states

ENUMERATION_GUARD = 2 ** 24


def config_energies(h: PottsHamiltonian, configs: np.ndarray) -> np.ndarray:
    """Energies of many assignments at once.

    Args:
        h: the model.
        configs: integer array (n_configs, n_sites) of 1-based states in
            row-major site order.

    Raises as :func:`~kingspeps.potts.potts_energies` does.
    """
    configs = _checked_states(h, configs)
    index_of = {site: i for i, site in enumerate(h.sites())}
    energies = np.zeros(configs.shape[0], dtype=np.float64)
    for site, i in index_of.items():
        table = h.node_table(site)
        energies += table[configs[:, i] - 1]
    for (a, b), table in h.edge_tables():
        energies += table[configs[:, index_of[a]] - 1,
                          configs[:, index_of[b]] - 1]
    return energies


def _enumerate_configs(dims: list[int]) -> np.ndarray:
    total = 1
    for d in dims:
        total *= d
    if total > ENUMERATION_GUARD:
        raise TooLargeError(
            f"{total} configurations exceed the enumeration guard "
            f"({ENUMERATION_GUARD})")
    # column by column, in row-major order, in the smallest unsigned
    # dtype that holds the largest state (as Branches.root stores them)
    configs = np.empty((total, len(dims)),
                       dtype=np.min_scalar_type(max(dims, default=1)))
    inner = total
    for i, d in enumerate(dims):
        inner //= d
        configs.reshape(total // (d * inner), d, inner, len(dims))[..., i] = (
            np.arange(1, d + 1, dtype=configs.dtype)[:, None])
    return configs


def _log_sum_exp(values: np.ndarray) -> float:
    peak = float(np.max(values))
    return peak + float(np.log(np.sum(np.exp(values - peak))))


class ExactSpectrum:
    """Complete enumeration of a model, sorted ascending by energy.

    Ties are broken lexicographically by assignment, so the ordering is
    reproducible. The partition function is available on demand.

    Attributes:
        states: ``(n_configs, n_sites)`` 1-based states in row-major
            site order, in the smallest unsigned dtype that holds the
            largest site dimension (``np.min_scalar_type``; uint8 up to
            255 states per site).
        energies: float64 energies, ascending.
    """

    def __init__(self, h: PottsHamiltonian):
        dims = [h.dim(site) for site in h.sites()]
        configs = _enumerate_configs(dims)
        energies = config_energies(h, configs)
        # energy primary, assignment columns as tie breakers
        keys = tuple(configs[:, i] for i in range(configs.shape[1] - 1, -1, -1))
        order = np.lexsort(keys + (energies,))
        self.states = configs[order]
        self.energies = energies[order]

    @property
    def min_energy(self) -> float:
        return float(self.energies[0])

    def __len__(self):
        return len(self.states)

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
    predecessors ``partial``, by summation over all completions. A value
    that is not an integer in its site's 1..d raises InvalidIndexError."""
    partial = _integer_states(tuple(partial)).astype(np.int64)
    sites = list(h.sites())
    k = len(partial) + 1
    if k > len(sites):
        raise DimensionError(f"site position {k} outside 1..{len(sites)}")

    free_dims = [h.dim(site) for site in sites[k - 1:]]
    completions = _enumerate_configs(free_dims)
    prefix = np.tile(partial, (completions.shape[0], 1))
    configs = np.concatenate([prefix, completions], axis=1)
    log_weights = -beta * config_energies(h, configs)

    d = h.dim(sites[k - 1])
    log_mass = np.empty(d)
    for state in range(1, d + 1):
        mask = completions[:, 0] == state
        log_mass[state - 1] = (_log_sum_exp(log_weights[mask])
                               if mask.any() else -np.inf)
    total = _log_sum_exp(log_mass)
    return np.exp(log_mass - total)
