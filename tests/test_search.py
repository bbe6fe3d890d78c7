"""Branch-and-bound: boundaries, merging, droplets, pruning, full runs."""

import gc
import itertools
import logging
import math
import re
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kingspeps import (ALL_TRANSFORMS, ClusterTopology, ContractionParams,
                       DropletParams, SearchParams, cluster, exact_spectrum,
                       generate_instance, low_energy_spectrum,
                       merge_solutions, parse_ising, potts_energy,
                       unpack_droplets)
from kingspeps.instance_io import parse_potts
from kingspeps.ising import IsingGraph
from kingspeps.oracle import frontier_ground
from kingspeps.peps import _reach, bottom_environments, build_network
from kingspeps.potts import PottsHamiltonian, decode, encode
from kingspeps.search import (Branches, Droplet, DropletTable,
                              _sheds_boundary, branch, merge_and_collect,
                              prune)
from kingspeps import search as search_module
from kingspeps.errors import (DimensionError, InvalidIndexError,
                              UnsupportedError)
from conftest import (assert_raises_exactly, droplet_distance,
                      random_clustered, random_potts)
from test_golden_search import _ragged_potts


class TestParams:
    @pytest.mark.parametrize("cutoff", [math.nan, -1.0, -math.inf])
    def test_invalid_energy_cutoff_rejected(self, cutoff):
        with pytest.raises(DimensionError, match="energy_cutoff must be >= 0"):
            DropletParams(energy_cutoff=cutoff)

    @pytest.mark.parametrize("cutoff", [0.0, 2.5, math.inf])
    def test_energy_cutoff_accepted(self, cutoff):
        assert DropletParams(energy_cutoff=cutoff).energy_cutoff == cutoff

    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf, "256"])
    def test_non_integral_max_states_rejected(self, value):
        with pytest.raises(DimensionError,
                           match="max_states must be an integer"):
            SearchParams(max_states=value)
        assert SearchParams(max_states=np.uint8(3)).max_states == 3

    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf, "5"])
    def test_non_integral_hamming_cutoff_rejected(self, value):
        with pytest.raises(DimensionError,
                           match="hamming_cutoff must be an integer"):
            DropletParams(hamming_cutoff=value)
        assert DropletParams(hamming_cutoff=np.int64(5)).hamming_cutoff == 5


def _one_droplet_solution():
    """A one-state solution carrying one droplet."""
    return search_module.Solution(
        states=[(1, 1)], energies=[0.0], log_probabilities=[-1.0],
        droplets=[(Droplet(flips=((2, 2),), delta_energy=0.5),)],
        largest_discarded_probability=0.0, beta=1.0)


def _branch_past_last_site():
    net = build_network(random_potts(1, 2, 2, seed=16), beta=1.0)
    envs = bottom_environments(net, ContractionParams(beta=1.0))
    states = branch(branch(Branches.root(net), net, envs), net, envs)
    return branch(states, net, envs)


@pytest.mark.parametrize("call, error, message", [
    (lambda: SearchParams(cut_off_prob=1.5), DimensionError,
     "cut_off_prob must lie in [0, 1], got 1.5"),
    (lambda: DropletParams(mode="ising"), UnsupportedError,
     "unknown droplet mode 'ising'"),
    (_branch_past_last_site, InvalidIndexError, "position 3 outside 1..2"),
    (lambda: merge_solutions([]), DimensionError, "nothing to merge"),
    (lambda: merge_solutions([_one_droplet_solution(),
                              replace(_one_droplet_solution(), beta=2.0)]),
     UnsupportedError, "cannot merge runs at different beta: [1.0, 2.0]"),
    (lambda: unpack_droplets(_one_droplet_solution(), max_depth=-1),
     DimensionError, "max_depth must be >= 0, got -1"),
    (lambda: unpack_droplets(_one_droplet_solution(), max_depth=1.5),
     DimensionError, "max_depth must be an integer, got 1.5"),
])
def test_rejection_class_and_message(call, error, message):
    assert_raises_exactly(call, error, message)


def test_solution_repr_leaves_out_droplets():
    # a droplet's repr walks every path of the droplet DAG
    text = repr(_one_droplet_solution())
    assert "Droplet(" not in text
    assert "states=[(1, 1)]" in text


def _adjacent_unassigned(m, n, k):
    """Brute force: the 0-based positions p < k of an ``m x n`` grid with
    a king neighbour at a position of at least ``k``."""
    return {p for p in range(k)
            if any(0 <= p // n + dr < m and 0 <= p % n + dc < n
                   and (p // n + dr) * n + p % n + dc >= k
                   for dr, dc in itertools.product((-1, 0, 1), repeat=2))}


class TestBoundary:
    def test_first_row_mid(self):
        assert _boundary((3, 3), 2) == [0, 1]

    def test_second_row_mid(self):
        assert _boundary((3, 3), 5) == [1, 2, 3, 4]

    def test_everything_assigned(self):
        assert _boundary((3, 3), 9) == []

    def test_matches_adjacency_definition(self):
        for m, n in itertools.product(range(1, 9), repeat=2):
            reach = _reach((m, n))
            for k in range(1, m * n + 1):
                assert search_module._boundary(reach, k).tolist() == \
                    sorted(_adjacent_unassigned(m, n, k)), (m, n, k)


class TestShedsBoundary:
    def test_matches_boundary_difference(self):
        for m, n in itertools.product(range(1, 9), repeat=2):
            reach = _reach((m, n))
            for k in range(1, m * n + 1):
                left = (_adjacent_unassigned(m, n, k - 1)
                        - _adjacent_unassigned(m, n, k))
                assert _sheds_boundary(reach, k) == bool(left), (m, n, k)


# One branch as the tests state it; populations are built from and read
# back into lists of these.
_Row = namedtuple("_Row", "values log_probability energy droplets")


def _load(table, droplet, ids):
    """``droplet``'s id in ``table``, appended (sub-droplets first) when
    ``ids``, a dict by object ``id``, does not hold it yet."""
    if id(droplet) not in ids:
        subs = tuple(_load(table, sub, ids) for sub in droplet.sub_droplets)
        positions, values = zip(*droplet.flips)
        ids[id(droplet)] = len(table.subs)
        flip = np.zeros((1, max(positions)), dtype=table.flip.dtype)
        flip[0, np.array(positions) - 1] = values
        table.append(flip, [droplet.delta_energy], [subs])
    return ids[id(droplet)]


def _population(rows):
    """A population of the given branches (no environment attached),
    sorted by values as the search keeps it, their droplets loaded into
    a new table."""
    rows = sorted(rows, key=lambda r: r.values)
    values = np.array([r.values for r in rows], dtype=np.int64)
    values = values.reshape(len(rows), -1)
    table = DropletTable(values.shape[1], values.dtype)
    ids = {}
    return Branches(values, np.array([r.log_probability for r in rows], float),
                    np.array([r.energy for r in rows], float),
                    np.ones((len(rows), 1)),
                    np.zeros(len(rows), dtype=np.intp),
                    np.fromiter((tuple(_load(table, d, ids) for d in r.droplets)
                                 for r in rows), dtype=object, count=len(rows)),
                    table=table)


def _boundary(grid, k):
    """The 0-based row-major positions of the boundary after site ``k``
    of a ``grid``, as a merge takes them."""
    return search_module._boundary(_reach(grid), k).tolist()


def _materialized(branches):
    """Each branch's droplets built from its table, positions as stored."""
    return branches.table.materialize(branches.droplets.tolist(),
                                   np.arange(branches.values.shape[1]))


def _rows(branches):
    return [_Row(tuple(v), lp, e, d) for v, lp, e, d in zip(
        branches.values.tolist(), branches.log_probability.tolist(),
        branches.energy.tolist(), _materialized(branches))]


def _grown(net, envs, row):
    """A population holding ``row``, grown from the root by branching so
    that it carries its environment."""
    states = Branches.root(net)
    for value in row.values:
        states = branch(states, net, envs)
        states = states.take(np.flatnonzero(states.values[:, -1] == value))
    return replace(states, log_probability=np.array([row.log_probability]),
                   energy=np.array([row.energy]))


# prunes nothing, so a merge's survivors all come back, in value order
_KEEP_ALL = SearchParams(max_states=10**6, cut_off_prob=0.0)


def _merge(rows, k, grid, dp):
    return _rows(merge_and_collect(_population(rows), _boundary(grid, k), dp,
                                   _KEEP_ALL)[0])


def _prune(rows, sp):
    states = _population(rows)
    kept, discarded = prune(states.log_probability, sp)
    return _rows(states.take(kept)), discarded


class TestMergeKeys:
    """A merge groups the branches by their values at the boundary and
    keeps the lowest-energy branch of each group, ties by index."""

    @staticmethod
    def _check(grid, k, dims, seed, top=False):
        """A population of distinct rows on few boundary patterns, with
        tied energies, merged at ``k`` against a brute-force grouping;
        with ``top``, one pattern sets its first boundary site to its
        largest state."""
        rng = np.random.default_rng(seed)
        positions = _boundary(grid, k)
        high = np.array(dims) + 1
        patterns = rng.integers(1, high, size=(3, k))
        if top:
            patterns[0, positions[0]] = dims[positions[0]]
        values = rng.integers(1, high, size=(30, k))
        values[:, positions] = patterns[rng.integers(3, size=30)][:, positions]
        values = np.unique(values, axis=0)
        energies = rng.choice([-1.0, -0.5, 0.0], size=len(values))
        states = _population([_Row(tuple(v), 0.0, e, ()) for v, e in
                              zip(values.tolist(), energies.tolist())])

        best = {}
        for i, (v, e) in enumerate(zip(states.values.tolist(),
                                       states.energy.tolist())):
            key = tuple(v[p] for p in positions)
            if key not in best or e < best[key][0]:
                best[key] = (e, i)
        kept = sorted(i for _, i in best.values())
        merged, _ = merge_and_collect(states, positions, DropletParams(),
                                      _KEEP_ALL)
        assert merged.values.tolist() == states.values[kept].tolist(), k
        assert merged.energy.tolist() == states.energy[kept].tolist(), k

    @pytest.mark.parametrize("grid", [(1, 5), (5, 1), (2, 2), (3, 4), (4, 3)])
    def test_keeps_lowest_energy_per_boundary_at_every_position(self, grid):
        # every k, whether or not site k sheds a boundary site
        m, n = grid
        for k in range(1, m * n):
            self._check(grid, k, [2 + p % 3 for p in range(k)], seed=k)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_large_states_group_by_values(self, k):
        # states up to 2**21, one boundary site at the largest, on a
        # boundary of three or four sites
        self._check((2, 3), k, [2**21] * k, seed=k, top=True)


def _run_branch_chain(h, beta=1.0, bond_dim=64):
    net = build_network(h, beta=beta)
    params = ContractionParams(bond_dim=bond_dim, num_sweeps=0, beta=beta)
    envs = bottom_environments(net, params)
    states = Branches.root(net)
    history = [_rows(states)]
    for _ in range(net.rows * net.cols):
        states = branch(states, net, envs)
        history.append(_rows(states))
    return net, history


class TestBranch:
    def test_children_probabilities_sum_to_parent(self):
        h = random_potts(2, 2, 2, seed=1)
        net = build_network(h, beta=1.0)
        params = ContractionParams(bond_dim=16, num_sweeps=0, beta=1.0)
        envs = bottom_environments(net, params)
        parent = _Row((1,), -0.3, 0.55, ())
        children = _rows(branch(_grown(net, envs, parent), net, envs))
        assert len(children) == 2
        total = sum(math.exp(c.log_probability) for c in children)
        assert total == pytest.approx(math.exp(parent.log_probability), rel=1e-10)

    def test_zero_coupling_equiprobable(self):
        h = PottsHamiltonian(2, 2)
        for site in h.sites():
            h.set_node(site, [0.0, 0.0])
        net = build_network(h, beta=1.0)
        params = ContractionParams(bond_dim=4, num_sweeps=0, beta=1.0)
        envs = bottom_environments(net, params)
        children = _rows(branch(Branches.root(net), net, envs))
        assert all(c.log_probability == pytest.approx(math.log(0.5))
                   for c in children)

    def test_position_past_last_site_rejected(self):
        h = random_potts(2, 2, 2, seed=3)
        net = build_network(h, beta=1.0)
        envs = bottom_environments(net, ContractionParams(beta=1.0))
        states = Branches.root(net)
        for _ in range(4):
            states = branch(states, net, envs)
        with pytest.raises(InvalidIndexError):
            branch(states, net, envs)

    @pytest.mark.parametrize("model, mode", [
        (lambda: random_clustered(4, 4, 2, seed=4200)[1], "spin"),
        (lambda: _ragged_potts(3, 4, seed=34), "potts"),
    ], ids=["clustered4x4x2", "ragged3x4"])
    def test_populations_distinct_and_sorted_along_a_solve(self, model, mode,
                                                           monkeypatch):
        # a branch's index is its rank: every population the search makes
        # holds distinct rows in lexicographic order of their values, and
        # prune keeps indices ascending, so a population taken at them
        # stays sorted
        seen = {"branch": 0, "prune": 0, "merge_and_collect": 0}

        def checked(name):
            real = getattr(search_module, name)

            def step(*args, **kwargs):
                out = real(*args, **kwargs)
                if name == "prune":  # the kept indices
                    rows = out[0].tolist()
                else:
                    rows = (out if name == "branch" else out[0]).values.tolist()
                assert all(a < b for a, b in zip(rows, rows[1:])), name
                seen[name] += 1
                return out
            return step

        for name in seen:
            monkeypatch.setattr(search_module, name, checked(name))
        h = model()
        sol = _solve(h, max_states=64, dp=DropletParams(
            energy_cutoff=10.0, hamming_cutoff=5, mode=mode))
        total = h.rows * h.cols
        assert seen["branch"] == seen["prune"] == total
        assert seen["merge_and_collect"]
        assert any(sol.droplets)

    def test_incremental_energy_matches_oracle(self):
        h = random_potts(3, 3, 2, seed=2)
        _, history = _run_branch_chain(h)
        for config in history[-1]:
            assert config.energy == pytest.approx(
                potts_energy(h, config.values), rel=1e-12, abs=1e-12)

    def test_partial_energy_matches_restricted_terms(self):
        h = random_potts(3, 3, 2, seed=3)
        net, history = _run_branch_chain(h)
        k = 5
        for config in history[k]:
            assigned = {net.site_of(p + 1): v
                        for p, v in enumerate(config.values)}
            expected = 0.0
            for site, value in assigned.items():
                expected += h.node_table(site)[value - 1]
            for (a, b), table in h.edge_tables():
                if a in assigned and b in assigned:
                    expected += table[assigned[a] - 1, assigned[b] - 1]
            assert config.energy == pytest.approx(expected, rel=1e-12, abs=1e-12)


def _mk(values, energy, log_p=0.0, droplets=()):
    return _Row(tuple(values), log_p, energy, tuple(droplets))


class TestMergeAndCollect:
    def test_bulk_difference_recorded(self):
        # 3x3 grid at k=5: boundary is {(1,2),(1,3),(2,1),(2,2)} -> bulk = (1,1)
        dp = DropletParams(energy_cutoff=5.0, hamming_cutoff=0)
        low = _mk((1, 1, 2, 1, 1), -2.0)
        high = _mk((2, 1, 2, 1, 1), -1.5)
        merged = _merge([low, high], 5, (3, 3), dp)
        assert len(merged) == 1
        survivor = merged[0]
        assert survivor.values == low.values
        assert len(survivor.droplets) == 1
        droplet = survivor.droplets[0]
        assert droplet.delta_energy == pytest.approx(0.5)
        assert droplet.flips == ((1, 2),)

    def test_cutoff_suppresses_droplet(self):
        dp = DropletParams(energy_cutoff=0.25, hamming_cutoff=0)
        low = _mk((1, 1, 2, 1, 1), -2.0)
        high = _mk((2, 1, 2, 1, 1), -1.5)
        merged = _merge([low, high], 5, (3, 3), dp)
        assert len(merged) == 1
        assert merged[0].droplets == ()

    def test_different_boundaries_not_merged(self):
        a = _mk((1, 1), -1.0)
        b = _mk((1, 2), -0.5)
        merged = _merge([a, b], 2, (3, 3), DropletParams())
        assert len(merged) == 2

    def test_tie_broken_lexicographically(self):
        a = _mk((2, 1, 1, 1, 1), -1.0)
        b = _mk((1, 1, 1, 1, 1), -1.0)
        merged = _merge([a, b], 5, (3, 3),
                        DropletParams(energy_cutoff=5.0))
        assert merged[0].values == b.values

    def test_hamming_filter_keeps_lower_gap(self):
        dp = DropletParams(energy_cutoff=5.0, hamming_cutoff=2)
        base = _mk((1, 1, 1, 1, 1, 1, 1), -2.0)
        first = _mk((2, 1, 1, 1, 1, 1, 1), -1.0)   # gap 1.0
        second = _mk((2, 2, 1, 1, 1, 1, 1), -1.75)  # gap 0.25, distance 1 to first
        merged = _merge([base, first, second], 7, (3, 3), dp)
        (survivor,) = merged
        assert len(survivor.droplets) == 1
        assert survivor.droplets[0].delta_energy == pytest.approx(0.25)

    def test_hamming_filter_drops_higher_gap_candidate(self):
        dp = DropletParams(energy_cutoff=5.0, hamming_cutoff=2)
        base = _mk((1, 1, 1, 1, 1, 1, 1), -2.0)
        first = _mk((2, 2, 1, 1, 1, 1, 1), -1.75)  # gap 0.25 recorded first
        second = _mk((2, 1, 1, 1, 1, 1, 1), -1.0)  # gap 1.0, clashes
        merged = _merge([base, first, second], 7, (3, 3), dp)
        (survivor,) = merged
        assert len(survivor.droplets) == 1
        assert survivor.droplets[0].delta_energy == pytest.approx(0.25)

    def test_sub_droplets_reanchored(self):
        inner = Droplet(flips=((1, 2),), delta_energy=0.125)
        discarded = _mk((2, 1, 1, 1, 1), -1.5, droplets=(inner,))
        survivor = _mk((1, 1, 1, 1, 1), -2.0)
        merged = _merge([survivor, discarded], 5, (3, 3),
                        DropletParams(energy_cutoff=5.0))
        droplet = merged[0].droplets[0]
        assert droplet.sub_droplets == (inner,)

    def test_spin_mode_distance_uses_bits(self):
        # states 1 and 4 of a 2-spin cluster differ in both spins
        dp_wide = DropletParams(energy_cutoff=5.0, hamming_cutoff=3, mode="spin")
        base = _mk((1, 1, 1, 1, 1), -2.0)
        both_flipped = _mk((4, 1, 1, 1, 1), -1.5)
        one_flipped = _mk((2, 1, 1, 1, 1), -1.0)
        merged = _merge([base, both_flipped, one_flipped], 5,
                        (3, 3), dp_wide)
        # distance(candidate2, droplet1) = popcount(3 ^ 1) = 1 < 3: clash,
        # existing droplet has the lower gap and wins
        assert len(merged[0].droplets) == 1
        assert merged[0].droplets[0].flips == ((1, 4),)

    @pytest.mark.parametrize("mode, distance", [("potts", 2), ("spin", 3)])
    def test_held_and_candidate_flip_one_site_differently(self, mode,
                                                          distance):
        # 3x3 at k=7, row 1 is bulk. The carrier's droplet sets sites 1
        # and 2 to 3 and 4, the candidate sets site 1 to 4: two differing
        # variables, or three differing spins (0b10 against 0b11 at site
        # 1, 0b11 against 0b00 at site 2)
        held = Droplet(((1, 3), (2, 4)), 0.5)
        carrier = _mk((1,) * 7, -2.0, droplets=(held,))
        candidate = _mk((4,) + (1,) * 6, -1.0)
        for cutoff, clash in ((distance, False), (distance + 1, True)):
            dp = DropletParams(energy_cutoff=5.0, hamming_cutoff=cutoff,
                               mode=mode)
            (survivor,) = _merge([carrier, candidate], 7, (3, 3), dp)
            # on a clash the held droplet's lower gap evicts the candidate
            assert [d.flips for d in survivor.droplets] == \
                [held.flips] + ([] if clash else [((1, 4),)])


def _reference_merge(states, k, dims, dp):
    """The per-candidate merge loop the batched one replaced: groups
    sorted by boundary values, ties by energy, then values, then input
    order; every clash tested on full carrier configurations through
    ``droplet_distance``. Returns the survivors' indices and their
    droplets."""
    positions = _boundary(dims, k)
    values = states.values.tolist()

    def boundary(i):
        return [values[i][p] for p in positions]

    order = sorted(range(len(values)), key=lambda i: (
        boundary(i), states.energy[i], values[i]))
    droplets = list(states.droplets)
    survivors = []
    for _, members in itertools.groupby(order, key=boundary):
        carrier, *rest = members
        survivors.append(carrier)
        carrier_values = tuple(values[carrier])
        for other in rest:
            delta = states.energy[other] - states.energy[carrier]
            if not delta <= dp.energy_cutoff:
                continue
            flips = tuple((p + 1, v) for p, (v, c) in enumerate(
                zip(values[other], carrier_values)) if v != c)
            candidate = Droplet(flips, delta, states.droplets[other])
            attached = droplets[carrier]
            if dp.hamming_cutoff > 0 and attached:
                clash = [droplet_distance(candidate, d, carrier_values, dp.mode)
                         < dp.hamming_cutoff for d in attached]
                if any(d.delta_energy <= delta
                       for d, c in zip(attached, clash) if c):
                    continue
                attached = tuple(d for d, c in zip(attached, clash) if not c)
            droplets[carrier] = attached + (candidate,)
    return survivors, [droplets[i] for i in survivors]


def _reference_prune(states, survivors, sp):
    """Python form of the prune rule over ``survivors``: the kept ones,
    most probable first with ties by values then by input order, and the
    largest log probability among the rest."""
    log_p, values = states.log_probability.tolist(), states.values.tolist()
    ranked = sorted(survivors, key=lambda i: (-log_p[i], values[i]))
    keep = len(ranked)
    if sp.cut_off_prob > 0.0:
        threshold = log_p[ranked[0]] + math.log(sp.cut_off_prob)
        keep = max(1, sum(log_p[i] >= threshold for i in ranked))
    keep = min(keep, sp.max_states)
    return ranked[:keep], max((log_p[i] for i in ranked[keep:]),
                              default=-math.inf)


@st.composite
def _merge_cases(draw):
    """A population at step ``k`` of a small grid: few boundary patterns
    (several candidates per survivor), bulk values near a shared base
    (small distances), tied energies, droplets with sub-droplets. Its
    rows are distinct, as in every population a search makes."""
    mode = draw(st.sampled_from(["potts", "spin"]))
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    k = draw(st.integers(cols + 1, rows * cols - 1))
    wide = draw(st.booleans())  # some columns need uint16
    dims = [draw(st.integers(256, 3000) if wide and draw(st.booleans())
                 else st.integers(2, 9)) for _ in range(k)]
    dtype = draw(st.sampled_from([np.min_scalar_type(max(dims)), np.int64]))
    boundary = set(_boundary((rows, cols), k))

    def value(p, base):
        return draw(st.just(base[p]) | st.integers(1, dims[p]))

    base = [draw(st.integers(1, d)) for d in dims]
    patterns = [[value(p, base) for p in range(k)]
                for _ in range(draw(st.integers(1, 3)))]
    energies = st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.5])

    def droplet(depth):
        positions = sorted(draw(st.sets(st.integers(1, k), min_size=1,
                                        max_size=4)))
        subs = (tuple(droplet(depth + 1)
                      for _ in range(draw(st.integers(0, 2))))
                if depth < 1 else ())
        return Droplet(tuple((p, draw(st.integers(1, dims[p - 1])))
                             for p in positions), draw(energies) + 1.0, subs)

    branches = {}
    for _ in range(draw(st.integers(2, 16))):
        pattern = draw(st.sampled_from(patterns))
        values = tuple(pattern[p] if p in boundary else value(p, base)
                       for p in range(k))
        branches.setdefault(values, _Row(
            values, draw(st.floats(-5, 0)), draw(energies),
            tuple(droplet(0) for _ in range(draw(st.integers(0, 3))))))
    states = _population(branches.values())
    states = replace(states, values=states.values.astype(dtype))
    dp = DropletParams(
        energy_cutoff=draw(st.sampled_from([0.0, 0.5, 1.0, math.inf])),
        hamming_cutoff=draw(st.sampled_from([3, 0, 1, 2, 5, 8, 12])),
        mode=mode)
    return states, k, (rows, cols), dp


class TestMergeEquivalence:
    @staticmethod
    def _check(states, k, dims, dp, sp):
        """``merge_and_collect`` equals the per-candidate merge loop
        followed by the prune rule, the survivors in index order. The
        loop runs on the input's droplets as the table builds them, and
        the droplets of both are compared as the table builds them."""
        inputs = np.fromiter(_materialized(states), dtype=object,
                             count=len(states))
        merged, discarded = merge_and_collect(states, _boundary(dims, k), dp,
                                              sp)
        survivors, droplets = _reference_merge(
            replace(states, droplets=inputs), k, dims, dp)
        kept, reference_discarded = _reference_prune(states, survivors, sp)
        kept = sorted(kept)
        droplets_of = dict(zip(survivors, droplets))
        assert merged.values.dtype == states.values.dtype
        assert merged.values.tolist() == states.values[kept].tolist()
        assert merged.energy.tolist() == states.energy[kept].tolist()
        assert merged.log_probability.tolist() == \
            states.log_probability[kept].tolist()
        assert repr(_materialized(merged)) == \
            repr([droplets_of[i] for i in kept])
        assert discarded == reference_discarded

    @settings(max_examples=200, deadline=None)
    @given(_merge_cases())
    def test_matches_per_candidate_loop(self, case):
        self._check(*case, _KEEP_ALL)

    @settings(max_examples=200, deadline=None)
    @given(_merge_cases(), st.data())
    def test_matches_per_candidate_loop_then_prune(self, case, data):
        states = case[0]
        sp = SearchParams(
            max_states=data.draw(st.integers(1, len(states))),
            cut_off_prob=data.draw(st.sampled_from([0.0, 1e-4, 0.5])))
        self._check(*case, sp)

    def test_tied_gaps_and_a_clash_chain(self):
        # 3x3 at k=7: row 1 is bulk. The carrier holds H (site 1 set to
        # 2, gap 1.0); X and Y tie at gap 0.5, X first by values. X is 1
        # from H and evicts it, Y is 1 from X and 2 from H, so X, kept
        # with the same gap, rejects Y
        held = Droplet(((1, 2),), 1.0)
        carrier = _mk((1,) * 7, -2.0, droplets=(held,))
        x = _mk((2, 2) + (1,) * 5, -1.5)
        y = _mk((3, 2) + (1,) * 5, -1.5)
        states = _population([carrier, x, y])
        dp = DropletParams(energy_cutoff=5.0, hamming_cutoff=2)
        self._check(states, 7, (3, 3), dp, _KEEP_ALL)
        (survivor,) = _rows(merge_and_collect(states, _boundary((3, 3), 7),
                                              dp, _KEEP_ALL)[0])
        assert survivor.droplets == (Droplet(((1, 2), (2, 2)), 0.5),)

    def test_pruned_carrier_collects_nothing(self, monkeypatch):
        batches = []
        clashes = search_module._clashes

        def counted_clashes(values, others, *args):
            batches.append(others.tolist())
            return clashes(values, others, *args)

        monkeypatch.setattr(search_module, "_clashes", counted_clashes)
        built = _count_droplets(monkeypatch)
        # 3x3 at k=5: site 1 is bulk, so each pair below forms one group;
        # sorted, the candidate (2, 1, 1, 1, 1) is branch 2
        states = _population([
            _mk((1, 1, 1, 1, 1), -2.0, log_p=-0.1),  # kept carrier
            _mk((2, 1, 1, 1, 1), -1.5, log_p=-0.2),  # its candidate
            _mk((1, 2, 1, 1, 1), -2.0, log_p=-3.0),  # pruned carrier
            _mk((2, 2, 1, 1, 1), -1.0, log_p=-0.3),  # its candidate
        ])
        merged, discarded = merge_and_collect(
            states, _boundary((3, 3), 5),
            DropletParams(energy_cutoff=5.0, hamming_cutoff=2),
            SearchParams(max_states=1, cut_off_prob=0.0))
        assert merged.values.tolist() == [[1, 1, 1, 1, 1]]
        assert discarded == -3.0
        assert batches == [[2]]
        # one row appended to the table, no object built
        assert len(states.table.subs) == 1
        assert merged.droplets.tolist() == [(0,)]
        assert built == []

    def test_pruned_carriers_droplet_never_materialized(self, monkeypatch):
        built = _count_droplets(monkeypatch)
        # as above, both carriers kept by the merge and one pruned after
        states = _population([
            _mk((1, 1, 1, 1, 1), -2.0, log_p=-0.1),
            _mk((2, 1, 1, 1, 1), -1.5, log_p=-0.2),
            _mk((1, 2, 1, 1, 1), -2.0, log_p=-3.0),
            _mk((2, 2, 1, 1, 1), -1.0, log_p=-0.3),
        ])
        merged, _ = merge_and_collect(states, _boundary((3, 3), 5),
                                      DropletParams(energy_cutoff=5.0),
                                      _KEEP_ALL)
        assert len(states.table.subs) == 2
        assert sorted(merged.droplets.tolist()) == [(0,), (1,)]
        kept, _ = prune(merged.log_probability,
                        SearchParams(max_states=1, cut_off_prob=0.0))
        assert built == []
        (droplets,) = _materialized(merged.take(kept))
        assert len(built) == 1
        assert droplets == (Droplet(((1, 2),), 0.5),)


def _count_droplets(monkeypatch) -> list:
    """The argument tuples of every :class:`Droplet` the search module
    builds from now on."""
    built, droplet = [], search_module.Droplet

    def counted(*args):
        built.append(args)
        return droplet(*args)

    monkeypatch.setattr(search_module, "Droplet", counted)
    return built


class TestDistances:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(2, 9) | st.integers(256, 70000),
           st.data())
    def test_array_distances_match_loop_reference(self, n, d, data):
        from kingspeps.search import _apply_flips, _elementwise_distance
        carrier = tuple(data.draw(st.lists(st.integers(1, d), min_size=n,
                                           max_size=n)))

        def droplet():
            positions = data.draw(st.sets(st.integers(1, n)))
            return Droplet(tuple(sorted(
                (p, data.draw(st.integers(1, d).filter(
                    lambda v, p=p: v != carrier[p - 1]))) for p in positions)),
                0.0)

        # values in the smallest dtype the search stores them in (uint16
        # or uint32 above 255), flips as the intp arrays of the table
        dtype = np.min_scalar_type(d)
        others = [droplet() for _ in range(3)]
        mine = droplet()
        configs = np.array([_apply_flips(carrier, o.flips) for o in others],
                           dtype=dtype)
        config = np.array(_apply_flips(carrier, mine.flips), dtype=dtype)
        for mode in ("spin", "potts"):
            expected = [droplet_distance(mine, o, carrier, mode)
                        for o in others]
            assert _elementwise_distance(config[None, :], configs, mode).sum(
                axis=1).tolist() == expected


def _distinct_rows(block):
    """The first index of each distinct row of ``block`` and every row's
    group, groups numbered in the rows' lexicographic order, as
    :func:`_ranked` ranks them under an all-equal tie."""
    from kingspeps.search import _ranked
    order, new = _ranked(block, np.zeros(len(block)))
    group = np.empty(len(block), dtype=np.intp)
    group[order] = new.cumsum() - 1
    return order[new], group


def _assert_ranks_match_unique(block):
    """:func:`_ranked` of ``block`` groups and orders its rows as
    ``np.unique(block, axis=0)`` does."""
    first, group = _distinct_rows(block)
    _, unique_first, unique_group = np.unique(
        block, axis=0, return_index=True, return_inverse=True)
    assert first.tolist() == unique_first.tolist()
    assert group.tolist() == unique_group.reshape(-1).tolist()


class TestDistinctRows:
    def test_wide_rows_match_row_tuples(self):
        rng = np.random.default_rng(5)
        # 70 binary columns, half the rows repeats of the other half
        block = rng.integers(1, 3, size=(120, 70))
        block[60:] = block[rng.integers(0, 60, size=60)]
        first, group = _distinct_rows(block.astype(np.uint8))
        rows = [tuple(r) for r in block.tolist()]
        first_seen = {}
        for i, row in enumerate(rows):
            first_seen.setdefault(row, i)
        ordered = sorted(first_seen)
        assert first.tolist() == [first_seen[r] for r in ordered]
        assert group.tolist() == [ordered.index(r) for r in rows]
        _assert_ranks_match_unique(block.astype(np.uint8))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_ragged_rows_match_unique(self, data):
        # ragged site dimensions, some past uint8, rows up to 60 wide, and
        # rows of no columns, which all fall in one group
        dims = data.draw(st.lists(st.integers(1, 9) | st.integers(256, 70000),
                                  max_size=60))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        rng = np.random.default_rng(seed)
        n = data.draw(st.integers(1, 80))
        block = np.zeros((n, len(dims)),
                         dtype=np.min_scalar_type(max(dims, default=1)))
        for column, d in enumerate(dims):
            block[:, column] = rng.integers(1, d + 1, size=n)
        # repeat some rows and vary others in a few columns, so that
        # groups have several members and differ late in the row
        block[n // 2:] = block[rng.integers(0, n // 2 + 1, size=n - n // 2)]
        if dims:
            column = data.draw(st.integers(0, len(dims) - 1))
            block[::3, column] = rng.integers(1, dims[column] + 1,
                                              size=len(block[::3]))
        _assert_ranks_match_unique(block)


class TestPrune:
    def test_unchanged_when_under_limits(self):
        states = [_mk((1,), 0.0, log_p=-0.5), _mk((2,), 0.0, log_p=-0.7)]
        kept, ldp = _prune(states, SearchParams(max_states=4, cut_off_prob=1e-4))
        assert len(kept) == 2
        assert ldp == -math.inf

    def test_uniform_counting(self):
        log_p = math.log(1 / 512)
        states = [_mk((v,), 0.0, log_p=log_p) for v in range(512)]
        kept, ldp = _prune(states, SearchParams(max_states=256, cut_off_prob=1e-4))
        assert len(kept) == 256
        assert math.exp(ldp) == pytest.approx(1 / 512)

    def test_relative_threshold(self):
        states = [_mk((1,), 0.0, log_p=0.0),
                  _mk((2,), 0.0, log_p=math.log(1e-5))]
        kept, ldp = _prune(states, SearchParams(max_states=16, cut_off_prob=1e-4))
        assert len(kept) == 1
        assert math.exp(ldp) == pytest.approx(1e-5)

    def test_keeps_most_probable_in_value_order(self):
        states = [_mk((v,), 0.0, log_p=lp)
                  for v, lp in ((3, -1.0), (1, -3.0), (2, -2.0))]
        kept, _ = _prune(states, SearchParams(max_states=2, cut_off_prob=0.0))
        assert [s.values for s in kept] == [(2,), (3,)]
        assert [s.log_probability for s in kept] == [-2.0, -1.0]

    def test_equal_probabilities_keep_lexicographically_first(self):
        states = [_mk((v,), 0.0, log_p=-1.0) for v in (3, 1, 4, 2)]
        kept, ldp = _prune(states,
                           SearchParams(max_states=2, cut_off_prob=0.0))
        assert [s.values for s in kept] == [(1,), (2,)]
        assert ldp == -1.0

    @pytest.mark.parametrize("dp", [
        None, DropletParams(energy_cutoff=10.0, hamming_cutoff=2, mode="spin"),
    ], ids=["no-droplets", "droplets"])
    def test_every_step_prunes_through_prune(self, dp, monkeypatch):
        # one prune call per site, merge steps included, and the solve
        # reports the largest probability those calls discarded
        calls, merging = [], []
        real_prune = search_module.prune
        real_merge = search_module.merge_and_collect

        def counted_prune(*args):
            kept, discarded = real_prune(*args)
            calls.append((bool(merging), discarded))
            return kept, discarded

        def counted_merge(*args):
            merging.append(True)
            try:
                return real_merge(*args)
            finally:
                merging.pop()

        monkeypatch.setattr(search_module, "prune", counted_prune)
        monkeypatch.setattr(search_module, "merge_and_collect", counted_merge)
        _, h = random_clustered(3, 3, 2, seed=17)
        sol = _solve(h, max_states=4, dp=dp)
        assert len(calls) == h.rows * h.cols
        largest = max(discarded for _, discarded in calls)
        assert sol.largest_discarded_probability == math.exp(largest) > 0
        if dp is not None:
            # merge steps prune, and what they discard counts
            assert any(inside and discarded > -math.inf
                       for inside, discarded in calls)


def _solve(h, transform=ALL_TRANSFORMS[0], beta=2.0, bond_dim=16,
           max_states=256, cut_off=1e-4, dp=DropletParams(
               energy_cutoff=10.0, hamming_cutoff=0, mode="potts")):
    return low_energy_spectrum(
        h, transform,
        ContractionParams(bond_dim=bond_dim, num_sweeps=1, beta=beta),
        SearchParams(max_states=max_states, cut_off_prob=cut_off), dp)


class TestLowEnergySpectrum:
    def test_zero_coupling_grid_full_population(self):
        h = PottsHamiltonian(2, 2)
        for site in h.sites():
            h.set_node(site, [0.0, 0.0])
        sol = _solve(h, beta=1.0, max_states=16, cut_off=0.0,
                     dp=DropletParams(energy_cutoff=math.inf,
                                      hamming_cutoff=0, mode="potts"))
        assert len(sol.states) == 16
        assert all(e == pytest.approx(0.0, abs=1e-12) for e in sol.energies)
        assert sorted(sol.states) == sorted(itertools.product((1, 2), repeat=4))

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_ground_state_matches_enumeration(self, seed):
        _, h = random_clustered(3, 3, 1, seed=seed)
        spec = exact_spectrum(h)
        sol = _solve(h, dp=DropletParams(energy_cutoff=10.0, hamming_cutoff=5,
                                         mode="spin"))
        assert sol.best_energy == pytest.approx(spec.min_energy, rel=1e-9)

    def test_site_dimensions_past_uint8_reach_exact_ground(self):
        # states of 300 and 260 are stored as uint16; exact environments
        # make every transform's best energy the exact minimum
        rng = np.random.default_rng(3)
        h = PottsHamiltonian(2, 3)
        for site, dim in zip(h.sites(), (300, 2, 3, 2, 260, 2)):
            h.set_node(site, rng.uniform(-1, 1, size=dim))
        for r, c in h.sites():
            for other in ((r, c + 1), (r + 1, c - 1), (r + 1, c),
                          (r + 1, c + 1)):
                if 1 <= other[0] <= 2 and 1 <= other[1] <= 3:
                    h.set_edge((r, c), other, rng.uniform(
                        -1, 1, size=(h.dim((r, c)), h.dim(other))))
        exact = exact_spectrum(h).min_energy
        for tr in ALL_TRANSFORMS:
            sol = low_energy_spectrum(
                h, tr, ContractionParams(bond_dim=2**20, beta=1.0),
                SearchParams(), DropletParams(2.0, 2, "potts"))
            assert sol.best_energy == exact, tr.name
            assert any(sol.droplets), tr.name

    def test_best_energy_identical_across_transforms(self):
        _, h = random_clustered(3, 3, 2, seed=8)
        energies = [
            _solve(h, tr, dp=DropletParams(energy_cutoff=10.0,
                                           hamming_cutoff=5,
                                           mode="spin")).best_energy
            for tr in ALL_TRANSFORMS]
        assert max(energies) - min(energies) <= 1e-6 * max(1.0, abs(energies[0]))

    def test_full_spectrum_no_merge(self):
        h = random_potts(2, 3, 2, seed=9)
        spec = exact_spectrum(h)
        sol = low_energy_spectrum(
            h, ALL_TRANSFORMS[0],
            ContractionParams(bond_dim=64, num_sweeps=0, beta=1.0),
            SearchParams(max_states=64, cut_off_prob=0.0), None)
        assert len(sol.states) == 64
        assert np.allclose(sorted(sol.energies), spec.energies, atol=1e-9)
        assert {tuple(s) for s in sol.states} == \
            {tuple(int(v) for v in s) for s in spec.states}

    def test_full_spectrum_through_droplets(self):
        h = random_potts(2, 3, 2, seed=10)
        spec = exact_spectrum(h)
        sol = low_energy_spectrum(
            h, ALL_TRANSFORMS[0],
            ContractionParams(bond_dim=64, num_sweeps=0, beta=1.0),
            SearchParams(max_states=64, cut_off_prob=0.0),
            DropletParams(energy_cutoff=math.inf, hamming_cutoff=0,
                          mode="potts"))
        full = unpack_droplets(sol, max_depth=None)
        assert len(full.states) == 64
        assert np.allclose(sorted(full.energies), spec.energies, atol=1e-9)

    def test_energy_consistency(self):
        _, h = random_clustered(3, 3, 2, seed=11)
        sol = _solve(h, dp=DropletParams(energy_cutoff=10.0, hamming_cutoff=0,
                                         mode="spin"))
        for state, energy in zip(sol.states, sol.energies):
            assert energy == pytest.approx(potts_energy(h, state), rel=1e-9)

    def test_probability_consistency(self):
        h = random_potts(3, 3, 2, seed=12)
        beta = 1.0
        spec = exact_spectrum(h)
        z = spec.partition(beta)
        sol = low_energy_spectrum(
            h, ALL_TRANSFORMS[0],
            ContractionParams(bond_dim=64, num_sweeps=0, beta=beta),
            SearchParams(max_states=512, cut_off_prob=0.0), None)
        for state, energy, log_p in zip(sol.states, sol.energies,
                                        sol.log_probabilities):
            expected = math.exp(-beta * energy) / z
            assert math.exp(log_p) == pytest.approx(expected, rel=1e-6)

    def test_best_energy_monotone_in_max_states(self):
        _, h = random_clustered(3, 3, 2, seed=13)
        best = [
            _solve(h, max_states=m,
                   dp=DropletParams(energy_cutoff=0.0, hamming_cutoff=0,
                                    mode="spin")).best_energy
            for m in (2, 8, 64, 256)]
        for worse, better in zip(best, best[1:]):
            assert better <= worse + 1e-12

    def test_merge_does_not_change_minimum(self):
        _, h = random_clustered(3, 3, 1, seed=14)
        merged = _solve(h, dp=DropletParams(energy_cutoff=5.0,
                                            hamming_cutoff=0, mode="spin"))
        plain = low_energy_spectrum(
            h, ALL_TRANSFORMS[0],
            ContractionParams(bond_dim=16, num_sweeps=1, beta=2.0),
            SearchParams(max_states=256, cut_off_prob=1e-4), None)
        assert merged.best_energy == pytest.approx(plain.best_energy, rel=1e-9)

    def test_droplet_separation_invariant(self):
        _, h = random_clustered(3, 3, 2, seed=15)
        sol = _solve(h, dp=DropletParams(energy_cutoff=10.0, hamming_cutoff=5,
                                         mode="spin"))
        for state, droplets in zip(sol.states, sol.droplets):
            for a, b in itertools.combinations(droplets, 2):
                assert droplet_distance(a, b, state, "spin") >= 5

    def test_spin_mode_requires_topology(self):
        h = random_potts(2, 2, 2, seed=16)
        with pytest.raises(UnsupportedError):
            _solve(h, dp=DropletParams(mode="spin"))

    def test_largest_discarded_probability_reported(self):
        _, h = random_clustered(3, 3, 2, seed=17)
        sol = _solve(h, max_states=4,
                     dp=DropletParams(energy_cutoff=0.0, hamming_cutoff=0,
                                      mode="spin"))
        assert 0.0 < sol.largest_discarded_probability < 1.0

    def test_transform_runs_map_back_to_original_frame(self):
        _, h = random_clustered(2, 3, 1, seed=18)
        spec = exact_spectrum(h)
        reference = {tuple(int(v) for v in s): e
                     for s, e in zip(spec.states, spec.energies)}
        for tr in ALL_TRANSFORMS:
            sol = _solve(h, tr, dp=DropletParams(energy_cutoff=10.0,
                                                 hamming_cutoff=0,
                                                 mode="spin"))
            for state, energy in zip(sol.states, sol.energies):
                assert energy == pytest.approx(reference[state], rel=1e-9)


def _distinct(droplets) -> dict:
    """Every droplet object reachable from ``droplets``, by ``id``."""
    seen, stack = {}, list(droplets)
    while stack:
        droplet = stack.pop()
        if id(droplet) not in seen:
            seen[id(droplet)] = droplet
            stack.extend(droplet.sub_droplets)
    return seen


class TestExactAtScale:
    """The best energy at 128 and 256 spins is the exact ground energy
    of the frontier sweep."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_8x8x2(self, seed):
        _, h = random_clustered(8, 8, 2, seed=seed)
        exact, _ = frontier_ground(h)
        assert _solve(h).best_energy == pytest.approx(exact, rel=1e-9)

    @pytest.fixture(scope="class")
    def spins16x16(self):
        _, h = random_clustered(16, 16, 1, seed=7)
        return h, frontier_ground(h)[0]

    @pytest.mark.parametrize("code", [0, 1], ids=["r0", "r90"])
    def test_16x16x1_beta4(self, spins16x16, code):
        h, exact = spins16x16
        sol = _solve(h, ALL_TRANSFORMS[code], beta=4.0)
        assert sol.best_energy == pytest.approx(exact, rel=1e-9)


class TestMergeSkip:
    """Merging only where a site leaves the boundary changes nothing."""

    @pytest.mark.parametrize("case", [
        ("1x5", lambda: random_clustered(1, 5, 2, seed=51)[1], "spin"),
        ("5x1", lambda: random_clustered(5, 1, 2, seed=15)[1], "spin"),
        ("3x3x2", lambda: random_clustered(3, 3, 2, seed=33)[1], "spin"),
        ("4x4x2", lambda: random_clustered(4, 4, 2, seed=44)[1], "spin"),
        ("ragged3x4", lambda: _ragged_potts(3, 4, seed=34), "potts"),
    ], ids=lambda case: case[0])
    def test_equals_merging_at_every_step(self, case, monkeypatch):
        _, model, mode = case
        h = model()

        def solve():
            return low_energy_spectrum(
                h, ALL_TRANSFORMS[0],
                ContractionParams(bond_dim=8, num_sweeps=1, beta=2.0),
                SearchParams(max_states=12, cut_off_prob=1e-4),
                DropletParams(energy_cutoff=4.0, hamming_cutoff=2, mode=mode))

        skipping = solve()
        monkeypatch.setattr(search_module, "_sheds_boundary",
                            lambda reach, k: True)
        every = solve()
        assert skipping.states == every.states
        assert skipping.energies == every.energies
        assert skipping.log_probabilities == every.log_probabilities
        assert repr(skipping.droplets) == repr(every.droplets)
        assert skipping.largest_discarded_probability == \
            every.largest_discarded_probability
        assert any(skipping.droplets)
        assert skipping.largest_discarded_probability > 0

    def test_row_log_counts_merge_steps(self, caplog):
        _, h = random_clustered(3, 3, 2, seed=33)
        with caplog.at_level(logging.DEBUG, logger="kingspeps.search"):
            _solve(h)
        counts = [re.search(r"^row (\d)/3: (\d+) branches, "
                            r"merged at (\d) of 3 steps$",
                            r.getMessage()) for r in caplog.records
                  if r.getMessage().startswith("row ")]
        # row 1 sheds no site; row 2 sheds at columns 2, 3; row 3 at
        # column 2, its last step never merges
        assert [m.group(1, 3) for m in counts] == [("1", "0"), ("2", "2"),
                                                   ("3", "1")]

    @pytest.mark.parametrize("transform", ALL_TRANSFORMS, ids=lambda t: t.name)
    @pytest.mark.parametrize("case", [
        ("5x1", lambda: random_clustered(5, 1, 2, seed=15)[1], "spin"),
        ("4x2", lambda: random_clustered(4, 2, 2, seed=42)[1], "spin"),
        ("3x3x2", lambda: random_clustered(3, 3, 2, seed=33)[1], "spin"),
        ("ragged3x4", lambda: _ragged_potts(3, 4, seed=34), "potts"),
    ], ids=lambda case: case[0])
    def test_row_starts_are_distinct_on_the_row_above(self, case, transform,
                                                       monkeypatch):
        # the step before a row start merges on the row above (or, at
        # row 2, the population holds only row 1), so each branch at a
        # row start builds its own right tables without repeating one
        _, model, mode = case
        starts, rows = [], set()

        def checked(states, net, envs):
            k = states.values.shape[1] + 1
            if net.site_of(k)[1] == 1:
                above = states.values[:, max(k - 1 - net.cols, 0):k - 1]
                assert len(np.unique(above, axis=0)) == len(states), k
                starts.append(len(states))
                rows.add(net.rows)
            return branch(states, net, envs)

        monkeypatch.setattr(search_module, "branch", checked)
        _solve(model(), transform, bond_dim=8, max_states=12,
               dp=DropletParams(energy_cutoff=4.0, hamming_cutoff=2,
                                mode=mode))
        assert [len(starts)] == list(rows)
        # past row 1 every row start checks more than one branch
        assert all(n > 1 for n in starts[1:])


class TestGaugeFlip:
    """A spin gauge s_i -> sigma_i s_i maps J_ij to J_ij sigma_i sigma_j
    and h_i to h_i sigma_i and leaves every energy as it was, so the
    gauged model's best energy is the original's, at 128 and 256 spins."""

    @pytest.mark.parametrize("transform", ALL_TRANSFORMS[:2],
                             ids=lambda t: t.name)
    @pytest.mark.parametrize("rows, cols, spins, beta, seed", [
        (8, 8, 2, 2.0, 0), (8, 8, 2, 2.0, 1), (16, 16, 1, 4.0, 0)],
        ids=["8x8x2-s0", "8x8x2-s1", "16x16x1-s0"])
    def test_best_energy_is_gauge_invariant(self, rows, cols, spins, beta,
                                            seed, transform):
        graph = parse_ising(generate_instance(rows, cols, spins, seed=seed,
                                              with_fields=True))
        flip = np.where(np.random.default_rng(seed).random(graph.n_spins)
                        < 0.5, -1, 1)
        gauged = IsingGraph(graph.n_spins, {
            (i, j): value * flip[i - 1] * flip[j - 1]
            for (i, j), value in graph.edges()}, graph.fields * flip)
        topology = ClusterTopology(rows, cols, spins)
        h, h_gauged = cluster(graph, topology), cluster(gauged, topology)
        dp = DropletParams(energy_cutoff=10, hamming_cutoff=5, mode="spin")
        best, best_gauged = (_solve(model, transform, beta=beta, dp=dp)
                             for model in (h, h_gauged))
        assert best_gauged.best_energy == best.best_energy
        state = encode(h, decode(h_gauged, best_gauged.states[0]) * flip)
        assert potts_energy(h, state) == best_gauged.best_energy


def _relabelled(h, rng):
    """``h`` with every site's states relabelled by a random permutation,
    and the permutations by site: 0-based state j of a relabelled site is
    state ``perm[site][j]`` of the original."""
    perm = {site: rng.permutation(h.dim(site)) for site in h.sites()}
    out = PottsHamiltonian(h.rows, h.cols)
    for site in h.sites():
        out.set_node(site, h.node_table(site)[perm[site]])
    for (a, b), table in h.edge_tables():
        out.set_edge(a, b, table[np.ix_(perm[a], perm[b])])
    return out, perm


class TestStatePermutation:
    """Relabelling each site's states, its node table and both axes of
    its edge tables to match, leaves every energy as it was, so the
    relabelled model's best energy is the original's, at 128 spins of
    d=4 clusters and on a ragged 10x10 grid with d from 2 to 4. The
    relabelled model has no cluster map, so distances count in "potts"
    mode."""

    @pytest.mark.parametrize("transform", ALL_TRANSFORMS[:2],
                             ids=lambda t: t.name)
    @pytest.mark.parametrize("model", [
        lambda: cluster(parse_ising(generate_instance(
            8, 8, 2, seed=0, with_fields=True)), ClusterTopology(8, 8, 2)),
        lambda: _ragged_potts(10, 10, seed=0)],
        ids=["8x8x2-s0", "ragged10x10"])
    def test_best_energy_is_label_invariant(self, model, transform):
        h = model()
        relabelled, perm = _relabelled(h, np.random.default_rng(1))
        dp = DropletParams(energy_cutoff=10, hamming_cutoff=5, mode="potts")
        best, best_relabelled = (_solve(m, transform, beta=2.0, dp=dp)
                                 for m in (h, relabelled))
        assert best_relabelled.best_energy == best.best_energy
        state = tuple(int(perm[site][s - 1]) + 1 for site, s in
                      zip(h.sites(), best_relabelled.states[0]))
        assert potts_energy(h, state) == best_relabelled.best_energy


class TestDegenerateGrids:
    """Grids whose boundary is empty or whose sites have one state are
    solved exactly under every transform."""

    @pytest.mark.parametrize("case", [
        ("1x1 field", lambda: cluster(parse_ising("1 1 0.5\n"),
                                      ClusterTopology(1, 1, 1)), "spin"),
        ("1x1x3", lambda: cluster(parse_ising(generate_instance(
            1, 1, 3, seed=2, with_fields=True)), ClusterTopology(1, 1, 3)),
         "spin"),
        ("2x3 of d=1", lambda: parse_potts("P 2 3\n"), "potts"),
        ("1x4 ragged", lambda: parse_potts(
            "P 1 4\nn 1 2 3 -1.0\ne 1 3 1 4 2 2 -0.5\n"), "potts"),
    ], ids=lambda case: case[0])
    def test_every_transform_finds_the_ground_energy(self, case):
        _, model, mode = case
        h = model()
        exact = exact_spectrum(h).min_energy
        for transform in ALL_TRANSFORMS:
            sol = _solve(h, transform, dp=DropletParams(
                energy_cutoff=10.0, hamming_cutoff=1, mode=mode))
            assert sol.best_energy == exact, transform.name


def _reachable(table, per_branch) -> set:
    """Every table id reachable from the tuples of ids ``per_branch``."""
    seen, stack = set(), [i for ids in per_branch for i in ids]
    while stack:
        i = stack.pop()
        if i not in seen:
            seen.add(i)
            stack.extend(table.subs[i])
    return seen


class TestFinalize:
    @staticmethod
    def _solve_keeping_last(monkeypatch):
        """The 4x4x2 (seed 4200, r90) solve and its last pruned branches:
        its last step does not merge, so they are the last branched ones
        at the indices the last prune kept."""
        last = {}

        def keep_branched(*args):
            last["branched"] = branch(*args)
            return last["branched"]

        def keep_kept(*args):
            last["kept"], discarded = prune(*args)
            return last["kept"], discarded

        monkeypatch.setattr(search_module, "branch", keep_branched)
        monkeypatch.setattr(search_module, "prune", keep_kept)
        _, h = random_clustered(4, 4, 2, seed=4200)
        sol = _solve(h, transform=ALL_TRANSFORMS[1], dp=DropletParams(
            energy_cutoff=10.0, hamming_cutoff=5, mode="spin"))
        return sol, last["branched"].take(last["kept"])

    def test_remaps_each_shared_droplet_once(self, monkeypatch):
        sol, last = self._solve_keeping_last(monkeypatch)
        found = last.droplets.tolist()
        before = _reachable(last.table, found)
        after = _distinct(d for per_state in sol.droplets for d in per_state)
        assert len(after) == len(before)

        def tree(ids):
            return sum(1 + tree(last.table.subs[i]) for i in ids)

        # the case shares sub-droplets
        assert tree(i for ids in found for i in ids) > 2 * len(before)

    def test_builds_each_reachable_id_once(self, monkeypatch):
        built = _count_droplets(monkeypatch)
        sol, last = self._solve_keeping_last(monkeypatch)
        reachable = _reachable(last.table, last.droplets.tolist())
        # what the merges recorded on branches pruned later is never built
        assert len(built) == len(reachable) < len(last.table.subs)
        objects = _distinct(d for per_state in sol.droplets for d in per_state)
        assert len(objects) == len(reachable)

        def paths(droplets):
            return sum(1 + paths(d.sub_droplets) for d in droplets)

        # shared: many more paths lead to the objects than there are objects
        assert paths(d for per_state in sol.droplets
                     for d in per_state) > 2 * len(objects)


class TestUnpackDroplets:
    def test_no_droplets_unchanged(self):
        _, h = random_clustered(2, 2, 1, seed=19)
        sol = low_energy_spectrum(
            h, ALL_TRANSFORMS[0], ContractionParams(beta=2.0),
            SearchParams(max_states=4, cut_off_prob=0.0), None)
        unpacked = unpack_droplets(sol)
        assert unpacked.states == sol.states
        assert unpacked.energies == sol.energies

    def test_unpacked_energy_matches_reevaluation(self):
        _, h = random_clustered(3, 3, 1, seed=20)
        sol = _solve(h, dp=DropletParams(energy_cutoff=10.0, hamming_cutoff=0,
                                         mode="spin"))
        unpacked = unpack_droplets(sol, max_depth=None)
        assert len(unpacked.states) > len(sol.states)
        for state, energy in zip(unpacked.states, unpacked.energies):
            assert energy == pytest.approx(potts_energy(h, state), rel=1e-9)

    def test_leaves_no_reference_cycle(self):
        # the expanded entries must be freed on return, not at the next
        # cyclic collection
        inner = Droplet(flips=((1, 2),), delta_energy=0.25)
        d = Droplet(flips=((2, 2),), delta_energy=0.5, sub_droplets=(inner,))
        sol = search_module.Solution(
            states=[(1, 1)], energies=[0.0], log_probabilities=[-1.0],
            droplets=[(d,)], largest_discarded_probability=0.0, beta=1.0)
        gc.collect()
        gc.disable()
        try:
            unpacked = unpack_droplets(sol, max_depth=None)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert unpacked.states == [(1, 1), (1, 2), (2, 2)]

    def test_deduplicates(self):
        base = (1, 1, 1, 1)
        d = Droplet(flips=((2, 2),), delta_energy=0.0)
        from kingspeps.search import Solution
        sol = Solution(states=[base, (1, 2, 1, 1)], energies=[0.0, 0.0],
                       log_probabilities=[-1.0, -1.0],
                       droplets=[(d,), ()],
                       largest_discarded_probability=0.0, beta=1.0)
        unpacked = unpack_droplets(sol)
        assert len(unpacked.states) == 2

    def test_depth_cap(self):
        inner = Droplet(flips=((1, 2),), delta_energy=0.25)
        outer = Droplet(flips=((2, 2),), delta_energy=0.5,
                        sub_droplets=(inner,))
        from kingspeps.search import Solution
        sol = Solution(states=[(1, 1)], energies=[0.0],
                       log_probabilities=[0.0], droplets=[(outer,)],
                       largest_discarded_probability=0.0, beta=1.0)
        assert len(unpack_droplets(sol, max_depth=0).states) == 1
        assert len(unpack_droplets(sol, max_depth=1).states) == 2
        assert len(unpack_droplets(sol, max_depth=2).states) == 3

    def test_equal_states_keep_the_depth_first_entry(self):
        # outer then its sub-droplet reach (2, 2, 1) at the energy that
        # other reaches it at; walked depth first, the sub-droplet's
        # entry comes first and keeps its own sub-droplets
        third = Droplet(flips=((3, 2),), delta_energy=1.0)
        inner = Droplet(flips=((2, 2),), delta_energy=0.25,
                        sub_droplets=(third,))
        outer = Droplet(flips=((1, 2),), delta_energy=0.5,
                        sub_droplets=(inner,))
        other = Droplet(flips=((1, 2), (2, 2)), delta_energy=0.75)
        sol = search_module.Solution(
            states=[(1, 1, 1)], energies=[0.0], log_probabilities=[-1.0],
            droplets=[(outer, other)], largest_discarded_probability=0.0,
            beta=1.0)
        unpacked = unpack_droplets(sol)
        at = unpacked.states.index((2, 2, 1))
        assert unpacked.energies[at] == 0.75
        assert unpacked.log_probabilities[at] == -1.75
        assert unpacked.droplets[at] == (third,)

    def test_sorted_ascending(self):
        _, h = random_clustered(3, 3, 2, seed=21)
        sol = _solve(h, dp=DropletParams(energy_cutoff=10.0, hamming_cutoff=0,
                                         mode="spin"))
        unpacked = unpack_droplets(sol, max_depth=None)
        assert unpacked.energies == sorted(unpacked.energies)


class TestMergeSolutions:
    def test_merges_and_dedupes(self):
        _, h = random_clustered(2, 2, 1, seed=22)
        sols = [_solve(h, tr, dp=DropletParams(energy_cutoff=5.0,
                                               hamming_cutoff=0, mode="spin"))
                for tr in ALL_TRANSFORMS[:3]]
        merged = merge_solutions(sols)
        assert merged.energies == sorted(merged.energies)
        assert len(set(merged.states)) == len(merged.states)
        assert merged.best_energy == min(s.best_energy for s in sols)

    def test_parameters_name_every_transform(self):
        _, h = random_clustered(2, 2, 1, seed=22)
        sols = [_solve(h, tr) for tr in ALL_TRANSFORMS[:2]]
        parameters = merge_solutions(sols).parameters
        assert parameters["transforms"] == ["r0", "r90"]
        assert "transform" not in parameters
        assert sols[0].parameters["transform"] == "r0"
