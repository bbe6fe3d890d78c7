"""Clustering, Potts energies, and spin decoding."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kingspeps import (ClusterTopology, cluster, generate_instance,
                       parse_ising, potts_energy)
from kingspeps.ising import IsingGraph
from kingspeps.potts import (PottsHamiltonian, cluster_spin_values, decode,
                             encode)
from kingspeps.errors import (SIZE_GUARD, DimensionError, GeometryError,
                              InvalidIndexError, NumericError, TooLargeError,
                              UnsupportedError, check_size)
from kingspeps.potts import _BLOCK_TERMS, _add_in_order, potts_energies
from conftest import (assert_raises_exactly, ising_energy, peak_bytes,
                      ragged_potts, random_clustered)


class TestClusterMapping:
    def test_grid_and_dims(self):
        g = IsingGraph(18)
        h = cluster(g, ClusterTopology(3, 3, 2))
        assert (h.rows, h.cols) == (3, 3)
        assert all(h.dim(site) == 4 for site in h.sites())
        assert len(list(h.sites())) == 9

    def test_spin_five_lands_at_row2_col1(self):
        g = IsingGraph(8)
        h = cluster(g, ClusterTopology(2, 2, 2))
        assert list(decode(h, (1, 1, 2, 1))) == [1, 1, 1, 1, -1, 1, 1, 1]

    def test_pair_cluster_node_table(self):
        # states ordered (up,up), (down,up), (up,down), (down,down)
        g = IsingGraph(2, {(1, 2): -1.0})
        h = cluster(g, ClusterTopology(1, 1, 2))
        assert np.array_equal(h.node_table((1, 1)), [-1.0, 1.0, 1.0, -1.0])

    def test_spin_count_mismatch(self):
        with pytest.raises(DimensionError):
            cluster(IsingGraph(7), ClusterTopology(2, 2, 2))

    def test_non_adjacent_clusters_rejected_naming_spins(self):
        g = IsingGraph(3, {(1, 3): 1.0})
        with pytest.raises(GeometryError) as err:
            cluster(g, ClusterTopology(1, 3, 1))
        assert "1" in str(err.value) and "3" in str(err.value)

    def test_diagonal_cluster_coupling_accepted(self):
        g = IsingGraph(4, {(1, 4): 1.0})
        h = cluster(g, ClusterTopology(2, 2, 1))
        assert h.edge_table((1, 1), (2, 2)) is not None


def _reference_cluster(graph, topology):
    """The per-coupling clustering loop the array form replaced: every
    table summed term by term, fields first, couplings in the order the
    graph holds them, and stored through ``set_node``/``set_edge``."""
    m, n, t = topology.rows, topology.cols, topology.spins_per_cluster
    d = 2 ** t
    spins = cluster_spin_values(t).astype(np.float64)

    def site_of(k):
        return (k // n + 1, k % n + 1)

    node = [np.zeros(d) for _ in range(m * n)]
    inter = {}
    for k in range(m * n):
        for q in range(t):
            node[k] += graph.fields[k * t + q] * spins[:, q]
    for (i, j), coupling in graph.couplings.items():
        ki, kj = (i - 1) // t, (j - 1) // t
        qi, qj = (i - 1) % t, (j - 1) % t
        if ki == kj:
            node[ki] += coupling * spins[:, qi] * spins[:, qj]
            continue
        if ki > kj:
            ki, kj, qi, qj = kj, ki, qj, qi
        if max(abs(ki // n - kj // n), abs(ki % n - kj % n)) > 1:
            raise GeometryError(
                f"coupling between spins {i} and {j} connects clusters at "
                f"{site_of((i - 1) // t)} and {site_of((j - 1) // t)}, "
                f"which are not king-adjacent")
        table = inter.setdefault((ki, kj), np.zeros((d, d)))
        table += coupling * np.outer(spins[:, qi], spins[:, qj])
    h = PottsHamiltonian(m, n)
    for k in range(m * n):
        h.set_node(site_of(k), node[k])
    for (ki, kj), table in inter.items():
        h.set_edge(site_of(ki), site_of(kj), table)
    return h


def _error(call):
    """The type and message of the error ``call()`` raises; infinite
    terms of opposite signs may warn on their way to a NaN."""
    with pytest.raises(Exception) as err, np.errstate(invalid="ignore"):
        call()
    return type(err.value), str(err.value)


class TestClusterMatchesLoop:
    @pytest.mark.parametrize("rows, cols, t, seed, fields", [
        (16, 16, 1, 1600, False), (4, 4, 2, 4200, False),
        (3, 3, 2, 3300, False), (3, 4, 3, 5, True), (4, 4, 4, 44, False),
        (2, 2, 8, 28, False)],
        ids=["16x16x1", "4x4x2", "3x3x2", "3x4x3-fields", "4x4x4", "2x2x8"])
    def test_tables_bitwise_equal(self, rows, cols, t, seed, fields):
        graph = parse_ising(generate_instance(rows, cols, t, seed=seed,
                                              with_fields=fields))
        assert graph.fields.any() == fields
        topology = ClusterTopology(rows, cols, t)
        h, expected = cluster(graph, topology), _reference_cluster(graph,
                                                                   topology)
        for site in expected.sites():
            assert h.dim(site) == expected.dim(site)
            assert h.node_table(site).tobytes() == \
                expected.node_table(site).tobytes()
        # the same edges, set in the same order: energies sum alike
        assert list(h._edge) == list(expected._edge)
        for (pair, table), (_, reference) in zip(h.edge_tables(),
                                                expected.edge_tables()):
            assert table.tobytes() == reference.tobytes(), pair
        assert not h.node_table((1, 1)).flags.writeable

    def test_first_far_coupling_named(self):
        g = IsingGraph(9, {(1, 2): 1.0, (4, 9): 0.5, (1, 3): 2.0})
        topology = ClusterTopology(3, 3, 1)
        error = _error(lambda: cluster(g, topology))
        assert error == _error(lambda: _reference_cluster(g, topology))
        assert error[0] is GeometryError and "spins 4 and 9" in error[1]

    @pytest.mark.parametrize("couplings, fields, where", [
        ({(1, 2): np.inf}, [0, 0, np.inf, 0], "node table at (1, 2)"),
        ({(1, 3): np.inf, (2, 3): -np.inf}, [0, 0, 0, 0],
         "edge table for (1, 1)-(1, 2)"),
    ])
    def test_first_nan_table_named(self, couplings, fields, where):
        g = IsingGraph(4, {(3, 4): np.inf, **couplings}, fields)
        topology = ClusterTopology(1, 2, 2)
        error = _error(lambda: cluster(g, topology))
        assert error == _error(lambda: _reference_cluster(g, topology))
        assert error == (NumericError, f"{where} contains NaN")


class TestPottsEnergy:
    def test_zero_tables(self):
        h = PottsHamiltonian(2, 2)
        for site in h.sites():
            h.set_node(site, [0.0, 0.0])
        for x in itertools.product((1, 2), repeat=4):
            assert potts_energy(h, x) == 0.0

    def test_single_site(self):
        h = PottsHamiltonian(1, 1)
        h.set_node((1, 1), [0.0, 3.0])
        assert potts_energy(h, (2,)) == 3.0

    def test_out_of_range_state(self):
        h = PottsHamiltonian(1, 1)
        h.set_node((1, 1), [0.0, 3.0])
        with pytest.raises(InvalidIndexError):
            potts_energy(h, (3,))

    def test_mapping_input(self):
        h = PottsHamiltonian(1, 2)
        h.set_node((1, 1), [1.0, 0.0])
        h.set_edge((1, 1), (1, 2), [[0.0, 2.0], [0.0, 0.0]])
        assert potts_energy(h, {(1, 1): 1, (1, 2): 2}) == 3.0

    def test_bad_mapping_or_sequence_rejected(self):
        h = PottsHamiltonian(1, 2)
        h.set_edge((1, 1), (1, 2), np.zeros((2, 3)))
        with pytest.raises(InvalidIndexError, match=r"missing site \(1, 2\)"):
            potts_energy(h, {(1, 1): 1})
        with pytest.raises(InvalidIndexError, match=r"state 3 at site \(1, 1\)"):
            potts_energy(h, {(1, 1): 3, (1, 2): 3})
        with pytest.raises(DimensionError):
            potts_energy(h, (1, 2, 3))
        with pytest.raises(InvalidIndexError):
            potts_energy(h, (1.0, 2.0))


def _scalar_energy(h, assignment):
    """The plain loop over the terms that ``potts_energies`` must match
    bit for bit: node tables row-major, then edges as they were set."""
    values = dict(zip(h.sites(), assignment))
    energy = 0.0
    for site in h.sites():
        table = h._node.get(site)
        if table is not None:
            energy += float(table[values[site] - 1])
    for (a, b), table in h._edge.items():
        energy += float(table[values[a] - 1, values[b] - 1])
    return energy


def _bits(energies):
    return np.asarray(energies, dtype=np.float64).view(np.int64).tolist()


def _spins_16x16():
    return cluster(parse_ising(generate_instance(
        16, 16, 1, seed=16, with_fields=True)), ClusterTopology(16, 16, 1))


class TestPottsEnergies:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.booleans(), st.data())
    def test_bit_identical_to_scalar_sum(self, rows, cols, clustered, data):
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        if clustered:
            t = data.draw(st.integers(1, 3))
            h = cluster(parse_ising(generate_instance(
                rows, cols, t, seed=seed, with_fields=True)),
                ClusterTopology(rows, cols, t))
        else:
            h = ragged_potts(rows, cols, data.draw(st.lists(
                st.integers(1, 4), min_size=rows * cols,
                max_size=rows * cols)), seed)
        dims = [h.dim(site) for site in h.sites()]
        batch = data.draw(st.integers(1, 8))
        values = np.random.default_rng(seed).integers(
            1, np.array(dims) + 1, size=(batch, len(dims)))
        energies = _bits(potts_energies(h, values))
        assignments = values.tolist()
        assert energies == _bits([_scalar_energy(h, x) for x in assignments])
        assert energies == _bits([potts_energy(h, x) for x in assignments])
        assert energies == _bits(potts_energies(h, values.astype(np.uint8)))

    def test_bit_identical_across_block_edges(self):
        # a block holds _BLOCK_TERMS // (terms + 1) rows, 27 of this
        # model's 1,186 terms and the 0.0 a sum starts from
        h = _spins_16x16()
        step = _BLOCK_TERMS // (len(h._energy_terms()[1]) + 1)
        assert step == 27
        rng = np.random.default_rng(27)
        for batch in (0, 1, step - 1, step, step + 1, 2 * step + 1):
            values = rng.integers(1, 3, size=(batch, 256), dtype=np.uint8)
            energies = potts_energies(h, values)
            assert energies.shape == (batch,)
            assert energies.dtype == np.float64
            assert _bits(energies) == _bits(
                [_scalar_energy(h, x) for x in values.tolist()])

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_over_sixteen_decades(self, seed):
        # entries from 1e-8 to 1e8 round apart when summed pairwise, as
        # a reduce down one row's terms would; 300 batches of 1-8 rows,
        # each of them within one block
        rng = np.random.default_rng(seed)
        h = ragged_potts(3, 3, rng.integers(1, 5, size=9).tolist(), seed)
        for site in h.sites():
            table = h.node_table(site)
            h.set_node(site, table * 10.0 ** rng.uniform(-8, 8, table.shape))
        for (a, b), table in list(h.edge_tables()):
            h.set_edge(a, b, table * 10.0 ** rng.uniform(-8, 8, table.shape))
        dims = np.array([h.dim(site) for site in h.sites()])
        for batch in rng.integers(1, 9, size=300):
            values = rng.integers(1, dims + 1, size=(batch, 9))
            assert _bits(potts_energies(h, values)) == _bits(
                [_scalar_energy(h, x) for x in values.tolist()])

    def test_infinities_of_both_signs_sum_to_nan(self):
        h = PottsHamiltonian(2, 2)
        h.set_node((1, 1), [0.0, np.inf])
        h.set_node((2, 2), [-np.inf, 1.0])
        h.set_edge((1, 1), (1, 2), [[1.0, -np.inf], [2.0, 3.0]])
        h.set_edge((2, 1), (2, 2), [[np.inf, 0.5], [-1.0, 2.0]])
        values = np.array(list(itertools.product((1, 2), repeat=4)))
        with np.errstate(invalid="ignore"):  # inf - inf, as the loop adds
            energies = potts_energies(h, values)
        assert np.isnan(energies).any() and np.isinf(energies).any()
        assert np.isfinite(energies).any()
        assert _bits(energies) == _bits(
            [_scalar_energy(h, x) for x in values.tolist()])

    @pytest.mark.parametrize("rows, cols, t, batch, limit", [
        (16, 16, 1, 20_000, 4 * 2**20),  # 582 MiB gathered at once
        (3, 3, 2, 2**16, 1.5 * 2**20)])  # one enumeration block
    def test_memory_stays_in_blocks(self, rows, cols, t, batch, limit):
        h = cluster(parse_ising(generate_instance(
            rows, cols, t, seed=batch, with_fields=True)),
            ClusterTopology(rows, cols, t))
        values = np.random.default_rng(0).integers(
            1, 2 ** t + 1, size=(batch, rows * cols), dtype=np.uint8)
        energies, peak = peak_bytes(lambda: potts_energies(h, values))
        assert energies.shape == (batch,)
        assert peak <= limit, peak

    @pytest.mark.parametrize("state", ["zero", "above"])
    @pytest.mark.parametrize("position", [0, 4, 5])
    def test_state_outside_site_range(self, state, position):
        h = ragged_potts(2, 3, [1, 2, 3, 4, 2, 3], seed=0)
        values = np.ones((3, 6), dtype=np.uint8)
        site = (position // 3 + 1, position % 3 + 1)
        values[1, position] = 0 if state == "zero" else h.dim(site) + 1
        with pytest.raises(InvalidIndexError, match=rf"at site \({site[0]}, "
                                                   rf"{site[1]}\) outside"):
            potts_energies(h, values)
        with pytest.raises(InvalidIndexError):
            potts_energy(h, values[1].tolist())

    def test_shape_checked(self):
        h = ragged_potts(2, 2, [2, 2, 2, 2], seed=1)
        with pytest.raises(DimensionError):
            potts_energies(h, np.ones((2, 3), dtype=int))
        with pytest.raises(DimensionError):
            potts_energy(h, (1, 1, 1))

    def test_follows_table_changes(self):
        h = PottsHamiltonian(1, 2)
        h.set_node((1, 1), [0.0, 1.0])
        assert potts_energy(h, (2, 1)) == 1.0
        h.set_edge((1, 1), (1, 2), [[0.0, 0.0], [0.5, 0.0]])
        h.set_node((1, 1), [0.0, 2.0])
        assert potts_energy(h, (2, 1)) == 2.5
        with pytest.raises(ValueError):
            h.node_table((1, 1))[1] = 7.0


class TestDecode:
    def test_t1_states(self):
        _, h = random_clustered(1, 2, 1, seed=0)
        assert list(decode(h, (1, 2))) == [1, -1]

    def test_t2_state_one_all_up(self):
        g = IsingGraph(4)
        h = cluster(g, ClusterTopology(1, 2, 2))
        assert list(decode(h, (1, 1))) == [1, 1, 1, 1]

    def test_decode_encode_identity(self):
        g = IsingGraph(8)
        h = cluster(g, ClusterTopology(2, 2, 2))
        for x in itertools.product(range(1, 5), repeat=4):
            assert encode(h, decode(h, x)) == x

    def test_state_checked(self):
        h = cluster(IsingGraph(4), ClusterTopology(1, 2, 2))
        for bad in ((1, 5), (0, 1), {(1, 1): 1}, (1,)):
            with pytest.raises((InvalidIndexError, DimensionError)):
                decode(h, bad)

    @pytest.mark.parametrize("spins, error, message", [
        ([1, 1, -1], DimensionError, "spins must have shape (8,), got (3,)"),
        ([1] * 20, DimensionError, "spins must have shape (8,), got (20,)"),
        ([[1] * 4] * 2, DimensionError,
         "spins must have shape (8,), got (2, 4)"),
        ([1, -1, 0, 5, -3, 1, 1, 1], InvalidIndexError,
         "spins must be +1 or -1, got 0"),
        ([1, -1, 1, 1, 1, 1, 1, 0.5], InvalidIndexError,
         "spins must be +1 or -1, got 0.5"),
    ])
    def test_encode_rejection_class_and_message(self, spins, error, message):
        h = cluster(IsingGraph(8), ClusterTopology(2, 2, 2))
        assert_raises_exactly(lambda: encode(h, spins), error, message)

    def test_requires_topology(self):
        h = PottsHamiltonian(1, 1)
        h.set_node((1, 1), [0.0])
        with pytest.raises(UnsupportedError):
            decode(h, (1,))

    def test_enumeration_convention(self):
        # bit q of (state - 1) encodes the q-th spin, LSB first
        s = cluster_spin_values(3)
        assert list(s[0]) == [1, 1, 1]
        assert list(s[1]) == [-1, 1, 1]
        assert list(s[4]) == [1, 1, -1]
        for t in range(1, 11):
            bits = (np.arange(2**t)[:, None] >> np.arange(t)) & 1
            assert np.array_equal(cluster_spin_values(t), 1 - 2 * bits)


class TestEnergyEquivalence:
    @pytest.mark.parametrize("dims,t,seed", [((2, 2), 2, 11), ((3, 3), 1, 12),
                                             ((2, 3), 2, 13)])
    def test_exhaustive_agreement(self, dims, t, seed):
        graph, h = random_clustered(dims[0], dims[1], t, seed=seed)
        n = graph.n_spins
        assert n <= 16
        site_dims = [h.dim(site) for site in h.sites()]
        for x in itertools.product(*[range(1, d + 1) for d in site_dims]):
            ep = potts_energy(h, x)
            ei = ising_energy(graph, decode(h, x))
            assert abs(ep - ei) <= 1e-12 * (1.0 + abs(ep))

    def test_minimum_preserved(self):
        graph, h = random_clustered(2, 2, 2, seed=21)
        site_dims = [h.dim(site) for site in h.sites()]
        potts_min = min(potts_energy(h, x) for x in
                        itertools.product(*[range(1, d + 1) for d in site_dims]))
        spin_min = min(ising_energy(graph, s) for s in
                       itertools.product((-1, 1), repeat=graph.n_spins))
        assert potts_min == pytest.approx(spin_min, rel=1e-12)

    def test_random_decode_energy_match(self):
        graph, h = random_clustered(2, 2, 2, seed=5)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = tuple(rng.integers(1, 5, size=4))
            assert potts_energy(h, x) == pytest.approx(
                ising_energy(graph, decode(h, x)), rel=1e-12, abs=1e-12)


class TestEdgeValidation:
    def test_set_edge_rejects_far_pair(self):
        h = PottsHamiltonian(3, 3)
        with pytest.raises(GeometryError):
            h.set_edge((1, 1), (3, 3), np.zeros((2, 2)))

    def test_set_edge_canonicalizes_orientation(self):
        h = PottsHamiltonian(1, 2)
        table = np.array([[1.0, 2.0], [3.0, 4.0]])
        h.set_edge((1, 2), (1, 1), table)
        assert np.array_equal(h.edge_table((1, 1), (1, 2)), table.T)
        assert np.array_equal(h.edge_table((1, 2), (1, 1)), table)


def _two_by_two():
    """A 2x2 grid whose site (1, 1) has dimension 2."""
    h = PottsHamiltonian(2, 2)
    h.set_node((1, 1), [0.0, 0.0])
    return h


@pytest.mark.parametrize("call, error, message", [
    (lambda: ClusterTopology(0, 1, 1), DimensionError,
     "topology entries must be positive, got "
     "ClusterTopology(rows=0, cols=1, spins_per_cluster=1)"),
    (lambda: ClusterTopology(2.5, 2, 1), DimensionError,
     "rows must be an integer, got 2.5"),
    (lambda: PottsHamiltonian(0, 2), DimensionError,
     "grid must be at least 1x1, got 0x2"),
    (lambda: PottsHamiltonian(2.0, 2), DimensionError,
     "rows must be an integer, got 2.0"),
    (lambda: PottsHamiltonian(100_000, 100_000), TooLargeError,
     "the node tables of a 100000x100000 grid has 10000000000 entries, "
     "more than the size guard of 16777216"),
    (lambda: _two_by_two().set_node((3, 1), [0.0]), InvalidIndexError,
     "site (3, 1) outside 2x2 grid"),
    (lambda: _two_by_two().set_node((1, 2), []), DimensionError,
     "node table at (1, 2) must be a non-empty vector"),
    (lambda: _two_by_two().set_node((1, 1), [0.0] * 3), DimensionError,
     "site (1, 1) dimension changed from 2 to 3"),
    (lambda: _two_by_two().set_edge((1, 1), (1, 1), np.zeros((2, 2))),
     GeometryError, "edge endpoints coincide at (1, 1)"),
    (lambda: _two_by_two().set_edge((1, 1), (1, 2), [0.0, 1.0]),
     DimensionError, "edge table for (1, 1)-(1, 2) must be a matrix"),
    (lambda: _two_by_two().set_edge((1, 1), (1, 2), np.zeros((3, 2))),
     DimensionError,
     "edge table for (1, 1)-(1, 2) disagrees with dimension 2 at (1, 1)"),
])
def test_construction_rejection_class_and_message(call, error, message):
    assert_raises_exactly(call, error, message)


@pytest.mark.parametrize("graph, topology, message", [
    (IsingGraph(25), ClusterTopology(1, 1, 25),
     "node table of a cluster of 25 spins has 33554432 entries, more than "
     "the size guard of 16777216"),
    (IsingGraph(26, {(1, 14): 1.0}), ClusterTopology(1, 2, 13),
     "edge table between clusters of 13 spins has 67108864 entries, more "
     "than the size guard of 16777216"),
    # 2**64 entries, whatever integer type holds the cluster size
    (IsingGraph(64), ClusterTopology(1, 1, np.int64(64)),
     "node table of a cluster of 64 spins has 18446744073709551616 entries, "
     "more than the size guard of 16777216"),
])
def test_oversized_cluster_rejected_before_building(graph, topology, message):
    assert_raises_exactly(lambda: cluster(graph, topology), TooLargeError,
                          message)


def test_cluster_tables_refused_together_before_building():
    # each edge table holds exactly 2^24 entries; the six of a 2x2 grid
    # and its four node tables would take 768 MiB
    graph = parse_ising(generate_instance(2, 2, 12, seed=1))
    _, peak = peak_bytes(lambda: assert_raises_exactly(
        lambda: cluster(graph, ClusterTopology(2, 2, 12)), TooLargeError,
        "a model of 4 node and 6 edge tables has 100679680 entries, more "
        "than the size guard of 16777216"))
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("rows, cols", [(2, 2), (4, 4)])
def test_cluster_memory_stays_near_its_tables(rows, cols):
    # every coupling's term is as large as its table; summing a table's
    # terms in batches keeps the peak near the tables themselves
    graph = parse_ising(generate_instance(rows, cols, 8, seed=rows))
    h, peak = peak_bytes(lambda: cluster(graph,
                                         ClusterTopology(rows, cols, 8)))
    tables = (sum(h.node_table(site).nbytes for site in h.sites())
              + sum(table.nbytes for _, table in h.edge_tables()))
    assert peak < 3 * tables, (peak, tables)


@pytest.mark.parametrize("n_tables, n_terms, shape", [
    (1, 40, (3, 4)), (2, 40, (3, 4)), (5, 40, (3, 4)),
    (5, 12, (2**17,))])  # 1 MiB tables, batches of five that repeat a table
def test_add_in_order_matches_scalar_loop(n_tables, n_terms, shape):
    # uneven and interleaved counts per table, terms of mixed magnitude
    rng = np.random.default_rng(n_tables)
    at = rng.integers(0, n_tables, size=n_terms)
    values = rng.standard_normal((n_terms, *shape)) * 10.0 ** rng.integers(
        -8, 8, size=(n_terms,) + (1,) * len(shape))
    tables = rng.standard_normal((n_tables, *shape))
    expected = tables.copy()
    for i, k in enumerate(at):
        expected[k] += values[i]
    _add_in_order(tables, at, lambda s: values[s])
    assert tables.tobytes() == expected.tobytes()


def test_cluster_spin_values_memory_is_its_output():
    values, peak = peak_bytes(lambda: cluster_spin_values(20))
    assert values.dtype == np.int8 and values.shape == (2**20, 20)
    assert peak < values.nbytes + 2**20, peak


def test_size_guard_admits_its_own_size():
    check_size("table", SIZE_GUARD)
    assert_raises_exactly(lambda: check_size("table", SIZE_GUARD + 1),
                          TooLargeError, "table has 16777217 entries, more "
                          "than the size guard of 16777216")


class TestNanTables:
    def test_nan_node_rejected_naming_site(self):
        h = PottsHamiltonian(2, 2)
        with pytest.raises(NumericError, match=r"\(1, 2\)"):
            h.set_node((1, 2), [0.0, np.nan])
        assert h.dim((1, 2)) == 1  # nothing was stored

    def test_nan_edge_rejected_naming_edge(self):
        h = PottsHamiltonian(2, 2)
        with pytest.raises(NumericError, match=r"\(2, 1\)-\(1, 2\)"):
            h.set_edge((2, 1), (1, 2), [[0.0, 1.0], [np.nan, 2.0]])
        assert h.edge_table((1, 2), (2, 1)) is None

    def test_infinite_entries_still_stored(self):
        h = PottsHamiltonian(1, 2)
        h.set_node((1, 1), [0.0, np.inf])
        h.set_edge((1, 1), (1, 2), [[0.0, -np.inf], [1.0, 2.0]])
        assert potts_energy(h, (1, 1)) == 0.0
