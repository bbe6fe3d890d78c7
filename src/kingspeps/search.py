"""Branch-and-bound search in probability space.

The solver sweeps the grid row-major in the transformed frame, adding
one variable at a time to all branches at once; the population is one
struct of arrays, :class:`Branches`. Every branch spawns one child per
state of the new site. Branches that agree on the *boundary* (the
assigned sites still adjacent to unexplored ones) are grouped, keeping
the lowest-energy one; the survivors are pruned to the most probable
``max_states``; then droplets are collected on the branches kept. A
droplet records a discarded branch on its survivor: the bulk sites
where the two differed, plus the energy gap. Unpacking droplets
afterwards reconstructs the low-energy configurations the merges
absorbed. Steps where no site leaves the boundary only prune. Every
step prunes through :func:`prune`; the solve keeps the running maximum
of the log probabilities it discards. After k placements the boundary
is the positions p < k whose ``reach``, the network's largest later
king neighbour of p, is at least k.

The lower half is contracted once per solve, into one bottom
environment per row. One contraction per step then gives all
conditionals: each branch carries its left vector along the row, and a
row's right tables are built once, at its first column, one row of
tables per branch.

Every population is kept sorted lexicographically by its values, so a
branch's index is its rank. Sorted parents give sorted children, since
children come parent-major with their states ascending; prune and merge
emit their survivors in index order, and the stable sorts they rank by
break ties by index, that is, by values.

Merging is batched as well. A merge ranks the branches by one stable
lexsort of their boundary values, then energy (:func:`_ranked`); each
run of equal boundary values is a group. Every distance a droplet
candidate must be checked against is counted over whole configurations;
Python only makes the sequential keep-or-evict decisions. The droplets
a solve records go into one append-only :class:`DropletTable`, a dense
row of flipped states each, and each branch holds the tuple of its
droplets' ids in an object array gathered by index like the other
columns. :class:`Droplet` objects are built once, at the end, for the
droplets the final branches carry.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from itertools import chain, compress
from typing import Sequence

import numpy as np

from .errors import (DimensionError, InvalidIndexError, UnsupportedError,
                     check_count)
from .peps import (ALL_TRANSFORMS, LatticeTransform, PepsNetwork,
                   bottom_environments, build_network, conditionals,
                   right_tables, step_energies)
from .tensor_core import BoundaryMps, ContractionParams
from .potts import PottsHamiltonian, potts_energies

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SearchParams:
    """Branch population limits.

    ``cut_off_prob`` drops branches whose probability falls below that
    fraction of the current best branch; 0 disables the threshold.
    """

    max_states: int = 256
    cut_off_prob: float = 1e-4

    def __post_init__(self):
        check_count("max_states", self.max_states, 1)
        if not 0.0 <= self.cut_off_prob <= 1.0:
            raise DimensionError(
                f"cut_off_prob must lie in [0, 1], got {self.cut_off_prob}")


@dataclass(frozen=True)
class DropletParams:
    """Filters for recorded excitations.

    ``energy_cutoff`` bounds the energy gap above the surviving branch;
    ``hamming_cutoff`` is the minimal distance between excitations kept
    on the same branch. ``mode`` selects the distance: "spin" counts
    differing source spins (needs a cluster map), "potts" counts
    differing grid variables.
    """

    energy_cutoff: float = 0.0
    hamming_cutoff: int = 0
    mode: str = "potts"

    def __post_init__(self):
        if not self.energy_cutoff >= 0:
            raise DimensionError(
                f"energy_cutoff must be >= 0, got {self.energy_cutoff}")
        check_count("hamming_cutoff", self.hamming_cutoff, 0)
        if self.mode not in ("spin", "potts"):
            raise UnsupportedError(f"unknown droplet mode {self.mode!r}")


@dataclass(frozen=True)
class Droplet:
    """A localized excitation relative to its carrier configuration.

    ``flips`` maps 1-based row-major positions to the alternative state;
    ``sub_droplets`` are the excitations that were attached to the
    discarded branch when it merged, valid within this droplet's
    context. Droplets form a DAG, not a tree: a sub-droplet is one
    object shared by every droplet and state that carries it. The
    dataclass ``==``, ``hash()`` and ``repr()`` walk every path of the
    DAG, not every object: a 16x16 solve's 652 droplet objects can span
    28.8 million tree nodes. Work that should visit each object once can
    memoize by ``id``, as :func:`kingspeps.instance_io.droplet_table`
    does.
    """

    flips: tuple[tuple[int, int], ...]
    delta_energy: float
    sub_droplets: tuple["Droplet", ...] = ()


def _put(buffer: np.ndarray, at: int, new) -> np.ndarray:
    """``buffer`` with ``new`` written into its rows from ``at`` on, and
    into their leading columns; doubled, with zeros, until it fits."""
    while at + len(new) > len(buffer):
        buffer = np.concatenate((buffer, np.zeros_like(buffer)))
    buffer[(slice(at, at + len(new)),) + tuple(map(slice, np.shape(new)[1:]))] = new
    return buffer


class DropletTable:
    """A solve's droplets, append-only, each named by its row, its id.

    Row ``i`` of ``flip`` holds droplet ``i``'s alternative states at
    the 0-based row-major positions, in the transformed frame, where it
    differs from its carrier, and 0 at every other position; ``gap[i]``
    is its energy above its carrier and ``subs[i]`` its sub-droplets'
    ids, all smaller than ``i``.
    """

    def __init__(self, sites: int, dtype):
        self.flip = np.zeros((1, sites), dtype=dtype)
        self.gap = np.zeros(1)
        self.subs: list[tuple[int, ...]] = []

    def append(self, flip, gaps, subs):
        """Add droplets, numbered on from ``len(self.subs)``, the j-th
        flipping as ``flip[j]`` says for the leading positions."""
        n = len(self.subs)
        self.flip = _put(self.flip, n, flip)
        self.gap = _put(self.gap, n, gaps)
        self.subs.extend(subs)

    def materialize(self, per_branch: list, position_map: np.ndarray) -> list:
        """Each tuple of ids in ``per_branch`` as a tuple of
        :class:`Droplet`, with every position p moved to the 1-based
        original position ``position_map[p] + 1`` and the flips sorted
        by it.

        One object is built per id reachable from ``per_branch``,
        children first, so a shared sub-droplet stays one shared object.
        """
        reached, stack = set(), list(chain.from_iterable(per_branch))
        while stack:
            i = stack.pop()
            if i not in reached:
                reached.add(i)
                stack.extend(self.subs[i])
        ids = np.array(sorted(reached), dtype=np.intp)
        rows = self.flip[ids]
        run, at = rows.nonzero()
        positions = position_map[at] + 1
        order = np.lexsort((positions, run))
        flips = list(zip(positions[order].tolist(),
                         rows[run, at][order].tolist()))
        built, start = {}, 0
        # gaps stay numpy floats, as the energies they come from
        for i, stop, gap in zip(ids.tolist(), np.bincount(
                run, minlength=len(ids)).cumsum().tolist(), self.gap[ids]):
            built[i] = Droplet(tuple(flips[start:stop]), gap,
                               tuple(map(built.__getitem__, self.subs[i])))
            start = stop
        return [tuple(map(built.__getitem__, t)) for t in per_branch]


@dataclass
class Branches:
    """The branch population, one row per branch, the rows distinct and
    sorted lexicographically by ``values``, so that a branch's index is
    its rank.

    ``values`` (B, k): assigned states in row-major transformed order;
    ``log_probability`` (B,): summed log conditionals; ``energy`` (B,):
    exact energy of the terms determined so far; ``left``: left vectors
    in the current row, as :func:`conditionals` returns them (it
    normalizes them where it reads them); ``above``: the index of the
    branch's ancestor at the row start, its row in ``right``, the
    current row's right tables (None between rows);
    ``droplets`` (B,): an object array holding each branch's tuple of
    droplet ids in ``table``, the solve's :class:`DropletTable`, so that
    it is gathered by index like the other columns.
    """

    values: np.ndarray
    log_probability: np.ndarray
    energy: np.ndarray
    left: np.ndarray
    above: np.ndarray
    droplets: np.ndarray
    right: list | None = None
    table: DropletTable | None = None

    @classmethod
    def root(cls, net: PepsNetwork) -> "Branches":
        """The empty branch every search starts from, and its table."""
        value_dtype = np.min_scalar_type(int(net.dim_grid.max()))
        return cls(np.zeros((1, 0), dtype=value_dtype), np.zeros(1),
                   np.zeros(1), np.ones((1, 1), dtype=net.dtype),
                   np.zeros(1, dtype=np.intp),
                   np.fromiter([()], dtype=object, count=1),
                   table=DropletTable(net.dim_grid.size, value_dtype))

    def __len__(self):
        return len(self.values)

    def take(self, index: np.ndarray) -> "Branches":
        """The branches at ``index``, in that order. The 2-D columns are
        gathered with ``take``, several times faster than fancy indexing
        on them; fancy indexing is the faster on the 1-D ones."""
        return Branches(self.values.take(index, axis=0),
                        self.log_probability[index], self.energy[index],
                        self.left.take(index, axis=0), self.above[index],
                        self.droplets[index], self.right, self.table)


@dataclass
class Solution:
    """Ranked full configurations in original coordinates.

    ``repr()`` leaves out ``droplets``: a droplet's ``repr()`` walks
    every path of the droplet DAG, which can run to gigabytes.
    """

    states: list[tuple[int, ...]]
    energies: list[float]
    log_probabilities: list[float]
    droplets: list[tuple[Droplet, ...]] = field(repr=False)
    largest_discarded_probability: float
    beta: float
    parameters: dict = field(default_factory=dict)

    @property
    def best_energy(self) -> float:
        return self.energies[0]


def _boundary(reach: np.ndarray, k: int) -> np.ndarray:
    """The 0-based boundary positions after ``k`` placements, ascending."""
    return np.flatnonzero(reach[:k] >= k)


def _ranked(block: np.ndarray, tie: np.ndarray):
    """The order that ranks the rows of ``block`` lexicographically, ties
    broken by ``tie``, then by index; and, for each ranked row, whether
    its ``block`` values differ from the row before."""
    # the last lexsort key is the primary one
    order = np.lexsort((tie,) + tuple(block.T[::-1]))
    ranked = block.take(order, axis=0)
    new = np.ones(len(block), dtype=bool)
    # row sums as a product: numpy reduces short rows one at a time
    new[1:] = (ranked[1:] != ranked[:-1]) @ np.ones(block.shape[1]) > 0
    return order, new


def branch(states: Branches, net: PepsNetwork,
           envs: list[BoundaryMps]) -> Branches:
    """Extend every branch by all states of the next unassigned site.

    ``envs`` holds the solve's bottom environments, one per row, from
    :func:`bottom_environments`. Children come parent-major with their
    states ascending, so sorted parents give sorted children, and pick
    up the log conditional and the exact energy of the newly determined
    terms (:func:`step_energies`: the site's own table plus its edges to
    already-assigned neighbors, which also weigh the conditionals).
    """
    k, total = states.values.shape[1] + 1, net.rows * net.cols
    if k > total:
        raise InvalidIndexError(f"position {k} outside 1..{total}")
    row, col = net.site_of(k)
    bottom = envs[row - 1]
    if col == 1:
        states = replace(states, left=np.ones((len(states), 1), dtype=net.dtype),
                         above=np.arange(len(states)),
                         right=right_tables(net, bottom, row, states.values))
    terms = step_energies(net, row, col, states.values)
    probabilities, lefts = conditionals(
        net, bottom, row, col, states.left, states.right[col - 1],
        states.above, terms)
    n, d = probabilities.shape

    with np.errstate(divide="ignore"):
        log_p = states.log_probability[:, None] + np.log(probabilities)
    energy = states.energy[:, None] + terms

    values = np.empty((n, d, k), dtype=states.values.dtype)
    values[:, :, :-1] = states.values[:, None, :]
    values[:, :, -1] = np.arange(1, d + 1)
    parents = np.repeat(np.arange(n), d)
    return Branches(values.reshape(n * d, k), log_p.reshape(-1),
                    energy.reshape(-1), lefts.reshape(n * d, -1),
                    states.above[parents], states.droplets[parents],
                    None if col == net.cols else states.right, states.table)


def _elementwise_distance(a: np.ndarray, b: np.ndarray, mode: str) -> np.ndarray:
    """Distance between each value of ``a`` and the matching one of
    ``b``: 1 where they differ ("potts"), or the number of spins their
    states set differently ("spin", a state's spins being the bits of
    its index minus one)."""
    if mode == "potts":
        return (a != b).astype(np.intp)
    return np.bitwise_count((a - 1) ^ (b - 1))


def _clashes(values, others, carriers, run, run_start, counts, held, mode,
             cutoff):
    """Candidate-reference pairs closer than ``cutoff``, by candidate.

    Candidate ``i`` is the branch ``others[i]``, discarded onto
    ``carriers[i]``. Candidates of one carrier form run ``run[i]``, which
    starts at ``run_start[run[i]]``. A candidate's references are the
    ``counts[run[i]]`` droplets already on its carrier, whose table rows
    ``held`` holds run by run, numbered first, then the earlier
    candidates of its run, numbered after them in candidate order; a
    candidate's pairs come with their references ascending. A held
    droplet's configuration is its carrier's values with its flips in.
    """
    own, first = counts[run], run_start[run]
    spans = own + np.arange(len(others)) - first
    pair_cand = np.arange(len(others)).repeat(spans)
    slot = np.arange(len(pair_cand)) - (spans.cumsum() - spans)[pair_cand]
    if not len(pair_cand):
        return pair_cand, pair_cand
    own, total = own[pair_cand], counts.sum()
    held_before = (counts.cumsum() - counts)[run]
    pair_ref = np.where(slot < own, held_before[pair_cand] + slot,
                        total + first[pair_cand] + slot - own)

    carried = values.take(carriers[run_start].repeat(counts), axis=0)
    configs = np.concatenate((np.where(held != 0, held, carried),
                              values.take(others, axis=0)))
    # row sums as a product: numpy reduces short rows one at a time
    distance = _elementwise_distance(configs.take(total + pair_cand, axis=0),
                                     configs.take(pair_ref, axis=0),
                                     mode) @ np.ones(configs.shape[1])
    hit = distance < cutoff
    return pair_cand[hit], pair_ref[hit]


def merge_and_collect(states: Branches, positions: np.ndarray,
                      dp: DropletParams, sp: SearchParams):
    """Merge branches with identical boundary values, prune the
    survivors through :func:`prune`, and collect droplets on those kept.

    Within a group the lowest-energy branch survives (ties broken by
    index, which is lexicographic). A discarded branch within
    ``energy_cutoff`` becomes a droplet on the survivor, carrying its own
    droplets as sub-droplets, unless it comes closer than
    ``hamming_cutoff`` to an already-attached droplet; of such a clashing
    pair only the lower excitation energy is kept. Candidates are taken
    per survivor in (energy, values) order.

    A branch's group is its values at ``positions``, the 0-based
    row-major positions of the boundary (:func:`_boundary` of the
    network's ``reach``, which :func:`low_energy_spectrum` passes).
    :func:`_ranked` sorts the branches by those values, then energy, then
    index, so each group's first branch survives. Survivors are pruned
    before any droplet work, since a droplet dies with its carrier and
    merging changes no probability or value. The states where each
    candidate differs from its survivor make its table row. Every
    distance a candidate needs (to the droplets its survivor carries and
    to its survivor's earlier candidates) is computed in one batch, over
    full configurations. Python walks each candidate's slice of the
    clashing pairs: one still standing with a gap no larger rejects it,
    as every earlier candidate kept does (gaps ascend within a
    survivor); else it evicts the rest. Returns the survivors in index
    order and what :func:`prune` discarded of them.
    """
    table, values = states.table, states.values
    k = values.shape[1]
    order, first = _ranked(values[:, positions], states.energy)
    survivors = order[first]
    survivor = survivors[first.cumsum() - 1]
    survivors.sort()
    kept, discarded = prune(states.log_probability[survivors], sp)
    survivors = survivors[kept]
    merged = states.take(survivors)
    alive = np.zeros(len(states), dtype=bool)
    alive[survivors] = True
    gap = states.energy[order] - states.energy[survivor]
    pick = (~first & (gap <= dp.energy_cutoff) & alive[survivor]).nonzero()[0]
    if not len(pick):
        return merged, discarded

    others, carriers, gaps = order[pick], survivor[pick], gap[pick]
    mine = values.take(others, axis=0)
    flip = np.where(mine != values.take(carriers, axis=0), mine, 0)
    new_run = carriers != np.concatenate(([-1], carriers[:-1]))
    run, run_start = new_run.cumsum() - 1, new_run.nonzero()[0]
    owners = carriers[run_start]
    attached = states.droplets[owners].tolist()
    counts = np.fromiter(map(len, attached), dtype=np.intp, count=len(attached))
    held = np.fromiter(chain.from_iterable(attached), dtype=np.intp,
                       count=counts.sum())

    # kept[r]: whether reference r still stands; references are the
    # attached droplets, run by run, then the candidates
    kept = bytearray(b"\x01") * (len(held) + len(others))
    if dp.hamming_cutoff > 0:
        cand, ref = _clashes(values, others, carriers, run, run_start, counts,
                             table.flip[held, :k], dp.mode, dp.hamming_cutoff)
        strong = np.concatenate((table.gap[held], gaps))[ref] <= gaps[cand]
        every = np.arange(len(others) + 1)
        at_strong = cand[strong].searchsorted(every).tolist()
        at_weak = cand[~strong].searchsorted(every).tolist()
        rejecting, evicted = ref[strong].tolist(), ref[~strong].tolist()
        for me, s0, s1, w0, w1 in zip(range(len(held), len(kept)), at_strong,
                                      at_strong[1:], at_weak, at_weak[1:]):
            if any(map(kept.__getitem__, rejecting[s0:s1])):
                kept[me] = 0
            else:
                for r in evicted[w0:w1]:
                    kept[r] = 0

    new, start = np.frombuffer(kept, dtype=bool)[len(held):], len(table.subs)
    table.append(flip[new], gaps[new], states.droplets[others[new]].tolist())
    # each run's kept candidates took the next ids, in candidate order
    for slot, old, at, gained in zip(
            survivors.searchsorted(owners).tolist(), attached,
            (counts.cumsum() - counts).tolist(),
            np.bincount(run[new], minlength=len(attached)).tolist()):
        stays = kept[at:at + len(old)]
        if gained or not all(stays):  # else its tuple stays as it is
            merged.droplets[slot] = (tuple(compress(old, stays))
                                     + tuple(range(start, start + gained)))
            start += gained
    return merged, discarded


def prune(log_probability: np.ndarray, sp: SearchParams):
    """Indices of the ``max_states`` most probable branches within
    ``cut_off_prob`` of the best, in index order, and the largest log
    probability discarded (-inf if none).

    Ties go to the lower index, the lexicographically first: a stable
    sort. Every search step prunes through here, a merge step inside
    :func:`merge_and_collect`; :func:`low_energy_spectrum` keeps the
    running maximum of what the steps discard.
    """
    order = (-log_probability).argsort(kind="stable")
    ranked = log_probability[order]
    keep = len(order)
    if sp.cut_off_prob > 0.0 and keep:
        threshold = ranked[0] + math.log(sp.cut_off_prob)
        keep = max(1, int(np.count_nonzero(ranked >= threshold)))
    keep = min(keep, sp.max_states)
    discarded = float(ranked[keep]) if keep < len(order) else -math.inf
    order[:keep].sort()
    return order[:keep], discarded


def _sheds_boundary(reach: np.ndarray, k: int) -> bool:
    """Whether placing site ``k`` removes a site from the boundary: one
    whose reach is ``k - 1``, the 0-based position just placed."""
    return bool((reach == k - 1).any())


def low_energy_spectrum(h: PottsHamiltonian,
                        transform: LatticeTransform = ALL_TRANSFORMS[0],
                        params: ContractionParams | None = None,
                        search_params: SearchParams | None = None,
                        droplet_params: DropletParams | None = None,
                        dtype=np.float64) -> Solution:
    """Run the full branch-merge-prune sweep over the grid.

    With ``droplet_params=None`` branches are never merged (pure
    branch-and-bound). Otherwise :func:`merge_and_collect` runs at each
    site that removes a site from the boundary, except the last, where
    merging would collapse the spectrum into one configuration; at the
    other sites every child's boundary is already distinct.

    Returns:
        A :class:`Solution` with complete assignments mapped back to
        original coordinates, exact energies sorted ascending, chain
        log-probabilities, per-state droplets, the largest discarded
        probability seen anywhere in the search, and the run's settings
        under ``parameters``.
    """
    params = params or ContractionParams()
    search_params = search_params or SearchParams()
    if (droplet_params is not None and droplet_params.mode == "spin"
            and h.topology is None):
        raise UnsupportedError(
            "spin-mode droplet distances need a clustered model; "
            "use mode='potts' for native grid models")

    net = build_network(h, transform, params.beta, dtype)
    envs = bottom_environments(net, params)
    total = net.rows * net.cols

    states = Branches.root(net)
    largest_discarded = -math.inf
    merges = 0
    for k in range(1, total + 1):
        states = branch(states, net, envs)
        if (droplet_params is not None and k < total
                and _sheds_boundary(net.reach, k)):
            states, discarded = merge_and_collect(
                states, _boundary(net.reach, k), droplet_params,
                search_params)
            merges += 1
        else:
            kept, discarded = prune(states.log_probability, search_params)
            states = states.take(kept)
        largest_discarded = max(largest_discarded, discarded)
        if k % net.cols == 0:
            logger.debug("row %d/%d: %d branches, merged at %d of %d steps",
                         k // net.cols, net.rows, len(states), merges, net.cols)
            merges = 0

    original = np.empty_like(states.values)
    original[:, net.position_map] = states.values
    energies = potts_energies(h, original)
    # by energy, then values: the last lexsort key is the primary one
    order = np.lexsort(tuple(original.T[::-1]) + (energies,))

    return Solution(
        states=list(map(tuple, original[order].tolist())),
        energies=energies[order].tolist(),
        log_probabilities=states.log_probability[order].tolist(),
        droplets=states.table.materialize(states.droplets[order].tolist(),
                                          net.position_map),
        largest_discarded_probability=math.exp(largest_discarded),
        beta=params.beta,
        parameters={
            "beta": params.beta,
            "bond_dim": params.bond_dim,
            "num_sweeps": params.num_sweeps,
            "max_states": search_params.max_states,
            "cut_off_prob": search_params.cut_off_prob,
            "transform": transform.name,
            "energy_cutoff": droplet_params.energy_cutoff if droplet_params else None,
            "hamming_cutoff": droplet_params.hamming_cutoff if droplet_params else None,
            "droplet_mode": droplet_params.mode if droplet_params else None,
            "precision": np.dtype(dtype).name,
        },
    )


def _apply_flips(values: tuple[int, ...], flips) -> tuple[int, ...]:
    out = list(values)
    for pos, value in flips:
        out[pos - 1] = value
    return tuple(out)


def _sorted_unique(entries, largest_discarded: float, beta: float,
                   parameters: dict) -> Solution:
    """Solution of ``(energy, values, log_p, droplets)`` entries, sorted
    by (energy, values) and keeping the first entry of each values."""
    kept = {}
    for entry in sorted(entries, key=lambda item: (item[0], item[1])):
        kept.setdefault(entry[1], entry)
    energies, states, log_ps, droplets = (
        [list(column) for column in zip(*kept.values())] or [[], [], [], []])
    return Solution(states, energies, log_ps, droplets, largest_discarded,
                    beta, dict(parameters))


def unpack_droplets(solution: Solution, max_depth: int | None = 2) -> Solution:
    """Expand droplets into explicit configurations.

    Each droplet applied to its carrier yields an extra state at
    ``carrier energy + delta_energy``; sub-droplets apply within their
    parent's context, down to ``max_depth`` levels. The walk is depth
    first: a state, then each of its droplets followed by that droplet's
    sub-droplets, before the next sibling. The result is re-sorted
    ascending and deduplicated by assignment, so of equal states the
    first walked at the lowest energy keeps its log-probability and
    droplets.

    ``max_depth=None`` expands every path of the droplet DAG, once per
    path: a sub-droplet shared by several droplets is expanded under each
    of them, so the work can grow exponentially with the DAG's depth (a
    16x16 solve's 652 droplet objects can span tens of millions of
    paths).
    """
    if max_depth is not None:
        check_count("max_depth", max_depth, 0)
    levels = math.inf if max_depth is None else max_depth
    beta, entries = solution.beta, []
    for entry in zip(solution.energies, solution.states,
                     solution.log_probabilities, map(tuple, solution.droplets)):
        entries.append(entry)
        # one (carrier, its droplets still to walk) per level open
        stack = [(entry, iter(entry[3]))] if levels else []
        while stack:
            (energy, values, log_p, _), rest = stack[-1]
            for droplet in rest:
                entries.append((energy + droplet.delta_energy,
                                _apply_flips(values, droplet.flips),
                                log_p - beta * droplet.delta_energy,
                                tuple(droplet.sub_droplets)))
                if len(stack) < levels:  # descend before the next sibling
                    stack.append((entries[-1], iter(droplet.sub_droplets)))
                    break
            else:
                stack.pop()
    return _sorted_unique(entries, solution.largest_discarded_probability,
                          beta, solution.parameters)


def merge_solutions(solutions: Sequence[Solution]) -> Solution:
    """Combine per-transform runs: sort by energy, deduplicate by state.
    The first run's parameters name every run's transform, in order,
    and map each transform's name to its run's best energy. Every run
    must share one beta, the one droplet unpacking scales by."""
    if not solutions:
        raise DimensionError("nothing to merge")
    betas = sorted({s.beta for s in solutions})
    if len(betas) > 1:
        raise UnsupportedError(f"cannot merge runs at different beta: {betas}")
    entries = []
    for sol in solutions:
        entries.extend(zip(sol.energies, sol.states, sol.log_probabilities,
                           sol.droplets))
    names = [s.parameters.get("transform") for s in solutions]
    parameters = dict(solutions[0].parameters, transforms=names,
                      transform_best_energies={
                          name: s.best_energy
                          for name, s in zip(names, solutions)})
    parameters.pop("transform", None)
    return _sorted_unique(entries,
                          max(s.largest_discarded_probability for s in solutions),
                          solutions[0].beta, parameters)
