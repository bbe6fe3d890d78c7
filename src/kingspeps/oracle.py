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
of ``i``. Every reference walks it in blocks of ``BLOCK_ROWS``
positions (:func:`_energy_blocks`), behind a fixed prefix of states
where it conditions on one. A block takes the same memory however many
configurations there are: its assignments (one byte per site and row
up to 255 states per site), a handful of 8-byte arrays of
``BLOCK_ROWS`` entries and the gathered terms of
:func:`~kingspeps.potts.potts_energies`, under 1.5 MiB on a 3x3 grid of
4-state sites. Between blocks the minimum energy keeps one running
minimum and every other reference one running log-sum-exp per walk
(:func:`_log_sum_exp`): the partition function walks the enumeration
once, and a conditional walks the completions of each state of its
site, one walk per state. Only the sorted ``states`` and ``energies``
of a spectrum hold a value per configuration.

Every energy is :func:`~kingspeps.potts.potts_energies`, the solver's
own sum.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (SIZE_GUARD, ContractionDegenerateError, DimensionError,
                     TooLargeError, check_beta, check_size)
from .peps import Frame, LatticeTransform
from .potts import (PottsHamiltonian, _checked_states, _integer_states,
                    potts_energies)

BLOCK_ROWS = 2 ** 12


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


def _energy_blocks(h: PottsHamiltonian, dims: list[int], prefix=()):
    """The energies of the enumeration of the sites after ``prefix``, the
    first sites held at the states ``prefix``, in blocks of at most
    ``BLOCK_ROWS`` assignments, in order.

    Raises:
        TooLargeError: the enumeration exceeds ``SIZE_GUARD``.
    """
    k = len(prefix)
    total = _enumeration_size(dims[k:])
    configs = np.empty((min(total, BLOCK_ROWS), len(dims)),
                       dtype=_state_dtype(dims))
    configs[:, :k] = prefix
    for start in range(0, total, BLOCK_ROWS):
        block = configs[:min(BLOCK_ROWS, total - start)]
        block[:, k:] = _assignments(
            dims[k:], np.arange(start, start + len(block)))
        yield potts_energies(h, block)


def _log_sum_exp(blocks) -> float:
    """``log(sum(exp(v)))`` over every value of the arrays ``blocks``
    yields, folded into one running peak (the largest value yet) and one
    sum of ``exp(v - peak)``, so it holds one block at a time: -inf when
    every value is -inf or there is none, +inf when one is +inf, NaN
    when one is NaN."""
    peak, scale = -np.inf, 0.0
    for values in blocks:
        high = np.maximum(peak, np.max(values, initial=-np.inf))
        shift = high if np.isfinite(high) else 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            scale = scale * np.exp(peak - shift) + np.exp(values - shift).sum()
        peak = high
    return float(peak + np.log(scale) if np.isfinite(peak) else peak)


def frontier_ground(h: PottsHamiltonian) -> tuple[float, tuple[int, ...]]:
    """A ground state of ``h`` by a min-sum sweep, and its energy.

    Sites are placed one at a time, line by line along the grid's
    shorter side: row-major in a :class:`~kingspeps.peps.Frame` of the
    grid, transposed (r270f) when it has more columns than rows, whose
    int arrays locate each site's node table and back edges in the
    model's flat buffer. A table over the placed sites that still have
    an edge to an unplaced one holds, for each of their assignments, the
    lowest energy of the terms placed so far. Placing a site adds its
    node table and its edges to placed sites. A site whose last edge has
    been placed is minimised out, and the state that attains the minimum
    (the lowest one on a tie) is kept for each assignment of the rest, as
    a backpointer in the smallest unsigned dtype that holds a state. On
    a king's graph ``w`` sites wide the table spans at most ``w + 2``
    sites. The backpointers fill one buffer, read by replaying the sweep
    backwards; beside them and the frame it holds about 10 bytes a site.

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
        TooLargeError: the frame's arrays, or the backpointers together,
            would take more than the guard's bytes (128 MiB), or a table
            more than ``SIZE_GUARD`` entries; checked before any table
            is built.
    """
    ground = tuple(_frontier_state(h).tolist())
    return float(potts_energies(h, [ground])[0]), ground


def _frontier_state(h: PottsHamiltonian) -> np.ndarray:
    """The sweep of :func:`frontier_ground`: its state, as an array."""
    # r270f transposes the grid: its row-major order is column by column
    frame = Frame(h, LatticeTransform(7 if h.cols > h.rows else 0),
                  "the frontier sweep's layout")
    total, dims = frame.dim_grid.size, frame.dim_grid.reshape(-1)
    last = np.arange(total)  # the step that places a site's last edge
    for k, step in enumerate(frame.step):
        later = np.flatnonzero(frame.edge[:, k] >= 0)
        last[later + step] = np.maximum(last[later + step], later)

    def gone_at(k: int) -> list[int]:  # ascending: k or a back neighbour
        return [s for s in sorted({k, *(k + step for step in frame.step)})
                if s >= 0 and last.item(s) == k]

    dtype = np.min_scalar_type(int(dims.max()))
    size, largest, kept = 1, 1, 0
    for k in range(total):
        size *= dims.item(k)
        largest = max(largest, size)
        for gone in gone_at(k):
            size //= dims.item(gone)
            kept += size
    check_size("the largest table of the frontier sweep", largest)
    if kept * dtype.itemsize > 8 * SIZE_GUARD:
        raise TooLargeError(
            f"the frontier sweep's backpointers take {kept * dtype.itemsize} "
            f"bytes, more than the size guard's {8 * SIZE_GUARD}")

    table, live = np.zeros(()), []  # table is over live, in placing order
    best, end = np.empty(kept, dtype=dtype), 0  # backpointers, in turn
    for k in range(total):
        terms = frame.table(frame.energy, k).reshape((1,) * len(live) + (-1,))
        # the edges to placed sites, summed in the model's sorted order
        # of pairs: by the neighbour's original position
        back = []
        for direction, step in enumerate(frame.step):
            edge = frame.table(frame.energy, k, direction)
            if edge is not None:
                back.append((frame.position_map[k + step], k + step, edge))
        for _, other, edge in sorted(back, key=lambda entry: entry[0]):
            shape = [1] * (len(live) + 1)
            shape[live.index(other)], shape[-1] = edge.shape
            terms = terms + edge.reshape(shape)
        table = table[..., None] + terms
        live.append(k)
        for gone in gone_at(k):
            axis = live.index(gone)
            del live[axis]
            table, pointers = _min_out(table, axis, dtype)
            best[end:end + pointers.size] = pointers.reshape(-1)
            end += pointers.size

    # the sweep replayed backwards rebuilds each live list
    state = np.zeros(total, dtype=dtype)  # by position in the frame
    for k in range(total - 1, -1, -1):
        for gone in reversed(gone_at(k)):
            shape = dims[live]
            at = end - math.prod(shape)
            state[gone] = best[at:end].reshape(shape)[tuple(state[live] - 1)]
            end = at
            live = sorted([*live, gone])
        live.pop()  # k, the latest placed
    ground = np.empty_like(state)
    ground[frame.position_map] = state
    return ground


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
    and ``len()`` is the product of the site dimensions. Every reference
    reads ``h`` as it stands when it is computed. ``min_energy`` and
    ``log_partition`` walk the enumeration in blocks of ``BLOCK_ROWS``
    positions (:func:`_energy_blocks`) and hold one block at a time, not
    8 bytes per configuration: ``min_energy``, computed when first asked
    for and kept, is a running ``np.fmin`` of the blocks' energies;
    ``log_partition`` one running log-sum-exp (:func:`_log_sum_exp`) of
    their ``-beta * energy``, walked again at each call.

    The first read of ``states`` or ``energies`` walks the same blocks
    into one array of the float64 energy of each assignment, and sorts
    them by one stable ``argsort`` by energy. The enumeration is
    lexicographic, so ties are broken lexicographically by assignment
    and the ordering is reproducible. The unsorted energies are then
    dropped and the states rebuilt block by block from their enumeration
    positions. That read holds at most three arrays of 8 bytes per
    configuration (the energies unsorted and sorted, and the sort
    order), and then the states (one byte per site and configuration up
    to 255 states per site) besides the last two.

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
        self._dims = h._energy_terms()[-1].tolist()
        _enumeration_size(self._dims)

    @functools.cached_property
    def min_energy(self) -> float:
        low = np.nan
        for block in _energy_blocks(self._h, self._dims):
            low = np.fmin(low, np.fmin.reduce(block))
        return float(low)

    @functools.cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        unsorted = np.empty(len(self))
        start = 0
        for block in _energy_blocks(self._h, self._dims):
            unsorted[start:start + len(block)] = block
            start += len(block)
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
        """``log Z``, the log of the sum over every configuration of
        ``exp(-beta * energy)``: -inf when every energy is +inf.

        Raises:
            NumericError: ``beta`` is not positive and finite.
        """
        check_beta(beta)
        return _log_sum_exp(-beta * block
                            for block in _energy_blocks(self._h, self._dims))

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
    predecessors ``partial``, by summation over all completions.

    Each state s of the site takes one walk, in blocks of
    ``BLOCK_ROWS``, over the completions behind the prefix ``(*partial,
    s)`` (:func:`_energy_blocks`), folded into one running log-sum-exp
    of ``-beta * energy`` (:func:`_log_sum_exp`): the log mass of s. One
    more fold over the ``d`` log masses normalizes them. A walk holds
    one block, so the conditional holds one block and a float per
    state, not one float per completion. A state whose every completion
    has infinite energy gets probability 0.

    Raises:
        ContractionDegenerateError: every completion has infinite
            energy, as :func:`kingspeps.peps.conditional_distribution`
            raises when every weight vanished.
        NumericError: ``beta`` is not positive and finite.
        InvalidIndexError: a value of ``partial`` is not an integer in
            its site's 1..d.
        DimensionError: ``partial`` assigns every site, as in
            :func:`kingspeps.peps.conditional_distribution`.
    """
    check_beta(beta)
    partial = _integer_states(tuple(partial)).astype(np.int64)
    dims = h._energy_terms()[-1].tolist()
    k = len(partial) + 1
    if k > len(dims):
        raise DimensionError(f"site position {k} outside 1..{len(dims)}")
    # checked first: the blocks' small dtype would wrap a bad state round
    _checked_states(h, [partial.tolist() + [1] * (len(dims) - k + 1)])

    _enumeration_size(dims[k - 1:])  # the d walks together, before any
    log_mass = np.array([
        _log_sum_exp(-beta * block
                     for block in _energy_blocks(h, dims, (*partial, s)))
        for s in range(1, dims[k - 1] + 1)])
    total = _log_sum_exp([log_mass])
    if total == -np.inf:
        raise ContractionDegenerateError(
            "conditional weights vanished",
            position=((k - 1) // h.cols + 1, (k - 1) % h.cols + 1))
    return np.exp(log_mass - total)
