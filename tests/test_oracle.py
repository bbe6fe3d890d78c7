"""Exact references: the frontier sweep, and spectra, partition functions
and conditionals by enumeration."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from kingspeps import (ALL_TRANSFORMS, ClusterTopology, ContractionParams,
                       SearchParams, cluster, exact_spectrum,
                       low_energy_spectrum, potts_energy)
from kingspeps.instance_io import parse_potts
from kingspeps.ising import IsingGraph
from kingspeps.oracle import (BLOCK_ROWS, exact_conditional, frontier_ground,
                              _assignments, _enumeration_size, _log_sum_exp)
from kingspeps.potts import PottsHamiltonian, potts_energies
from kingspeps.errors import (ContractionDegenerateError, DimensionError,
                              InvalidIndexError, NumericError, TooLargeError)
from kingspeps.peps import (_EDGE_BYTES, _POSITION_BYTES, bottom_environments,
                            build_network, conditional_distribution)
from conftest import (assert_raises_exactly, peak_bytes, ragged_potts,
                      random_clustered, random_potts)


def test_single_site_spectrum():
    h = PottsHamiltonian(1, 1)
    h.set_node((1, 1), [0.0, 3.0])
    spec = exact_spectrum(h)
    assert list(spec.energies) == [0.0, 3.0]
    assert list(spec.states[0]) == [1]
    assert list(spec.states[1]) == [2]


def test_zero_model_all_degenerate():
    h = PottsHamiltonian(2, 2)
    for site in h.sites():
        h.set_node(site, [0.0, 0.0])
    spec = exact_spectrum(h)
    assert len(spec) == 16
    assert np.all(spec.energies == 0.0)


def test_ferromagnetic_pair_ground_degeneracy():
    g = IsingGraph(2, {(1, 2): -1.0})
    h = cluster(g, ClusterTopology(1, 2, 1))
    spec = exact_spectrum(h)
    assert spec.min_energy == pytest.approx(-1.0)
    assert spec.energies[1] == pytest.approx(-1.0)
    assert spec.energies[2] == pytest.approx(1.0)


def test_energies_consistent_with_potts_energy():
    h = random_potts(2, 3, 2, seed=9)
    spec = exact_spectrum(h)
    for state, energy in zip(spec.states[:10], spec.energies[:10]):
        assert potts_energy(h, tuple(state)) == pytest.approx(energy, rel=1e-12)


def test_guard():
    h = PottsHamiltonian(5, 6)
    for site in h.sites():
        h.set_node(site, np.zeros(4))
    with pytest.raises(TooLargeError):
        exact_spectrum(h)


@pytest.mark.parametrize("dims,dtype", [
    ([2], np.uint8), ([3, 1, 2], np.uint8), ([1, 1], np.uint8),
    ([4, 2, 3, 4, 1, 2], np.uint8), ([255, 2], np.uint8),
    ([2, 256, 3], np.uint16)])
def test_enumeration_matches_unravel_index(dims, dtype):
    reference = np.stack(np.unravel_index(np.arange(math.prod(dims)), dims),
                         axis=1) + 1
    configs = _assignments(dims, np.arange(_enumeration_size(dims)))
    assert configs.dtype == dtype
    assert np.array_equal(configs, reference)


def test_clustered_spectrum_states_compact():
    _, h = random_clustered(2, 2, 2, seed=5)
    spec = exact_spectrum(h)
    assert spec.states.dtype == np.uint8 and spec.states.shape == (256, 4)
    assert np.array_equal(spec.energies,
                          potts_energies(h, spec.states.astype(np.int64)))
    assert len({tuple(s) for s in spec.states.tolist()}) == 256


def test_spectrum_invariant_under_transforms():
    h = random_potts(2, 3, 2, seed=17)
    reference = exact_spectrum(h).energies
    dims = (h.rows, h.cols)
    for tr in ALL_TRANSFORMS:
        grid = tr.grid(dims)
        moved = PottsHamiltonian(*grid.shape)
        # original site -> the 1-based site it lands at
        landing = {divmod(int(q), h.cols): (r + 1, c + 1)
                   for (r, c), q in np.ndenumerate(grid)}

        def land(site):
            return landing[(site[0] - 1, site[1] - 1)]

        for site in h.sites():
            moved.set_node(land(site), h.node_table(site))
        for (a, b), table in h.edge_tables():
            moved.set_edge(land(a), land(b), table)
        energies = exact_spectrum(moved).energies
        assert np.allclose(np.sort(energies), np.sort(reference), atol=1e-12)


def lexsort_spectrum(h):
    """(states, energies) as the spectrum was once built: the whole
    enumeration at once, sorted by ``np.lexsort`` on the energy and then
    every assignment column; the reference for the deferred sort."""
    dims = [h.dim(site) for site in h.sites()]
    configs = (np.stack(np.unravel_index(np.arange(math.prod(dims)), dims),
                        axis=1) + 1).astype(np.min_scalar_type(max(dims)))
    energies = potts_energies(h, configs)
    keys = tuple(configs[:, i] for i in range(configs.shape[1] - 1, -1, -1))
    order = np.lexsort(keys + (energies,))
    return configs[order], energies[order]


def integer_valued(h):
    """``h`` with every table entry doubled and rounded: energies that
    tie often and sum exactly."""
    out = PottsHamiltonian(h.rows, h.cols)
    for site in h.sites():
        out.set_node(site, np.round(2 * h.node_table(site)))
    for (a, b), table in h.edge_tables():
        out.set_edge(a, b, np.round(2 * table))
    return out


SPECTRUM_MODELS = {
    "random": lambda: random_potts(2, 3, 2, seed=9),
    "clustered": lambda: random_clustered(2, 2, 2, seed=5)[1],
    "ragged-ties": lambda: integer_valued(
        ragged_potts(3, 4, [1, 2, 3, 4, 4, 3, 2, 1, 2, 4, 1, 3], 8)),
    "ragged-ties-2": lambda: integer_valued(
        ragged_potts(2, 3, [3, 1, 2, 2, 3, 3], 21)),
    # 6912 states: one full block and a partial one
    "two-blocks": lambda: integer_valued(
        ragged_potts(3, 3, [4, 4, 4, 3, 3, 3, 2, 2, 1], 5)),
}


@pytest.mark.parametrize("name", SPECTRUM_MODELS)
def test_min_energy_and_len_read_before_the_sort(name):
    spec = exact_spectrum(SPECTRUM_MODELS[name]())
    min_energy, size = spec.min_energy, len(spec)
    energies = spec.energies
    assert min_energy.hex() == float(energies[0]).hex()
    assert size == len(spec) == len(energies) == len(spec.states)


@pytest.mark.parametrize("name", SPECTRUM_MODELS)
def test_sorted_arrays_match_lexsort_reference(name):
    h = SPECTRUM_MODELS[name]()
    states, energies = lexsort_spectrum(h)
    spec = exact_spectrum(h)
    assert spec.states.dtype == states.dtype
    assert np.array_equal(spec.states, states)
    assert np.array_equal(spec.energies, energies)
    if name.startswith("ragged-ties"):
        assert len(np.unique(energies)) < len(energies) // 4
    if name == "two-blocks":
        assert BLOCK_ROWS < len(spec) < 2 * BLOCK_ROWS


# the edges come in reverse sorted order; summed in that order the
# ground state, all states 1, lies at (-0.3 + -0.2) + -0.1 == -0.6, and
# in sorted order at (-0.1 + -0.2) + -0.3 == -0.6000000000000001
OUT_OF_ORDER_EDGES = """P 2 2
e 2 1 2 2 1 1 -0.3
e 1 1 2 1 1 1 -0.2
e 1 1 1 2 1 1 -0.1
n 1 1 2 0.5
n 1 2 2 0.5
n 2 1 2 0.5
n 2 2 2 0.5
"""


def test_spectrum_sums_out_of_order_edges_as_the_solver_does():
    h = parse_potts(OUT_OF_ORDER_EDGES)
    spec = exact_spectrum(h)
    assert np.array_equal(spec.energies, potts_energies(h, spec.states))
    assert spec.min_energy == -0.6
    sol = low_energy_spectrum(
        h, ALL_TRANSFORMS[0],
        ContractionParams(bond_dim=64, num_sweeps=0, beta=1.0),
        SearchParams(max_states=16))
    assert sol.best_energy == spec.min_energy


# grids 1 and 2 sites wide in both orientations, ragged dimensions with
# absent edges, and a single site
FRONTIER_MODELS = {
    **SPECTRUM_MODELS,
    "out-of-order-edges": lambda: parse_potts(OUT_OF_ORDER_EDGES),
    "1x7": lambda: random_potts(1, 7, 3, seed=1),
    "7x1": lambda: random_potts(7, 1, 3, seed=2),
    "2x6": lambda: random_potts(2, 6, 2, seed=3),
    "6x2": lambda: random_potts(6, 2, 2, seed=4),
    "2x5-ragged": lambda: ragged_potts(2, 5, [3, 1, 4, 2, 2, 4, 3, 1, 2, 3], 6),
    "5x2-ragged": lambda: ragged_potts(5, 2, [2, 4, 1, 3, 3, 2, 4, 2, 1, 3], 7),
    "4x3-ragged": lambda: ragged_potts(4, 3, [1, 2, 3, 2, 3, 1, 2, 2, 3, 1, 2,
                                             3], 9),
    "3x4-ragged-ties": lambda: integer_valued(
        ragged_potts(3, 4, [2, 3, 1, 2, 3, 2, 2, 1, 3, 2, 3, 2], 10)),
    "1x1": lambda: random_potts(1, 1, 5, seed=11),
}


@pytest.mark.parametrize("name", FRONTIER_MODELS)
def test_frontier_ground_is_the_enumeration_minimum(name):
    h = FRONTIER_MODELS[name]()
    energy, state = frontier_ground(h)
    assert energy.hex() == float(exact_spectrum(h).energies[0]).hex()
    assert potts_energy(h, state) == energy


def test_frontier_ground_puts_nan_last_as_the_sort_does():
    # a coupled pair whose energies are inf, NaN (inf + -inf), 0 and -inf
    h = PottsHamiltonian(1, 2)
    h.set_node((1, 1), [np.inf, 0.0])
    h.set_node((1, 2), [0.0, -np.inf])
    h.set_edge((1, 1), (1, 2), np.zeros((2, 2)))
    with np.errstate(invalid="ignore"):
        energy, state = frontier_ground(h)
        energies = exact_spectrum(h).energies
    assert np.isnan(energies[-1])
    assert energy == energies[0] == -np.inf and state == (2, 2)


@pytest.mark.parametrize("rows, cols, message", [
    (30, 30, "the largest table of the frontier sweep has 4294967296 "
             "entries, more than the size guard of 16777216"),
    # each table fits, but 1280 sites keep a backpointer of up to 2^21
    # bytes each
    (64, 20, "the frontier sweep's backpointers take 2541748215 bytes, "
             "more than the size guard's 134217728"),
    # its index arrays take 84 bytes a position: a bare row of 1597831
    # sites is the shortest past 128 MiB
    (1, 1597831, "the frontier sweep's layout of a 1x1597831 grid takes "
                 "up to 134217804 bytes, more than the size guard's "
                 "134217728")])
def test_frontier_refused_before_building(rows, cols, message):
    h = (random_potts(rows, cols, 2, seed=1) if rows > 1
         else PottsHamiltonian(rows, cols))
    _, peak = peak_bytes(lambda: assert_raises_exactly(
        lambda: frontier_ground(h), TooLargeError, message))
    assert peak < 2**20, peak


def test_frontier_sweep_holds_what_its_guards_count():
    # a 2x2000 king grid of 2-state sites, its terms built beforehand:
    # the sweep holds no more than its guards count, the frame's bytes a
    # position and an edge and the backpointers, here at most 8 one-byte
    # entries a site (each minimised out over at most three live sites)
    h = random_potts(2, 2000, 2, seed=1)
    h._energy_terms()
    sites = h.rows * h.cols
    counted = (sites * _POSITION_BYTES + len(h._edge) * _EDGE_BYTES
               + 8 * sites)
    (energy, state), peak = peak_bytes(lambda: frontier_ground(h))
    assert len(state) == sites and potts_energy(h, state) == energy
    assert peak <= counted, (peak, counted)


def test_min_energy_holds_one_block():
    # 2^20 configurations: their energies alone take 8 MiB
    h = random_potts(4, 5, 2, seed=12)
    _, peak = peak_bytes(lambda: exact_spectrum(h).min_energy)
    assert peak < 5 * 2**20, peak


# a 3x3 grid of 4-state clusters: 2^18 configurations
def _clustered_2_18():
    return random_clustered(3, 3, 2, seed=7)[1]


@pytest.mark.parametrize("reference", [
    lambda h: exact_spectrum(h).min_energy,
    lambda h: exact_spectrum(h).log_partition(1.0),
    lambda h: exact_conditional(h, 1.0, ()),
], ids=["min_energy", "log_partition", "exact_conditional"])
def test_references_hold_one_block(reference):
    # a value per configuration alone would take 2 MiB
    h = _clustered_2_18()
    _, peak = peak_bytes(lambda: reference(h))
    assert peak < 1.5 * 2**20, peak


# log Z and conditionals of the spectrum summed whole, sorted by energy
# (log Z) or by completion (conditionals), in one log-sum-exp each
@pytest.mark.parametrize("beta, log_z", [
    (0.5, 15.664326997149535), (1.0, 22.715114015943797),
    (2.0, 40.12461470618247)])
def test_log_partition_matches_the_whole_sum(beta, log_z):
    assert exact_spectrum(_clustered_2_18()).log_partition(beta) == \
        pytest.approx(log_z, rel=1e-12, abs=0)


@pytest.mark.parametrize("partial, expected", [
    ((), [0.2637697719235034, 0.23623022807649743, 0.23623022807649743,
          0.2637697719235034]),
    ((3,), [0.07021432904314823, 0.4332551564543049, 0.28313287114137964,
            0.21339764336116726]),
    ((2, 4, 1), [0.6226019402760145, 0.034732992796497525,
                 0.13715960721754689, 0.20550545970994183])])
def test_exact_conditional_matches_the_whole_sum(partial, expected):
    p = exact_conditional(_clustered_2_18(), 1.0, partial)
    assert p == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("partial, site", [((), (1, 1)), ((1,), (1, 2))])
def test_exact_conditional_of_infinite_completions_raises(partial, site):
    # every completion has energy +inf: no conditional exists, as in the
    # network's conditional, and no NaN or RuntimeWarning comes first
    h = PottsHamiltonian(1, 2)
    h.set_node((1, 1), [0.0, 1.0])
    h.set_node((1, 2), [np.inf, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_raises_exactly(
            lambda: exact_conditional(h, 1.0, partial),
            ContractionDegenerateError,
            f"conditional weights vanished (at site {site})")


def test_log_partition_of_infinite_energies_is_minus_inf():
    h = PottsHamiltonian(1, 1)
    h.set_node((1, 1), [np.inf, np.inf])
    assert exact_spectrum(h).log_partition(1.0) == -np.inf
    assert exact_spectrum(h).partition(1.0) == 0.0


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_log_partition_rejects_beta_outside_positive_finite(beta):
    spec = exact_spectrum(random_potts(2, 2, 2, seed=4))
    for call in (spec.log_partition, spec.partition):
        assert_raises_exactly(lambda: call(beta), NumericError,
                              f"beta must be positive and finite, got {beta}")


_LOG_SUM_EXP_CASES = [
    ([-np.inf], -np.inf), ([-np.inf, -np.inf], -np.inf),
    ([-np.inf, 0.0], 0.0), ([1.0, np.inf], np.inf),
    ([np.inf, -np.inf], np.inf), ([0.0, np.nan], np.nan),
    ([0.0, 0.0], math.log(2.0)), ([-1000.0, -1000.0], -1000 + math.log(2))]


@pytest.mark.parametrize("values, expected", _LOG_SUM_EXP_CASES)
def test_log_sum_exp_of_infinite_values(values, expected):
    assert _log_sum_exp([np.array(values)]) == pytest.approx(
        expected, rel=1e-15, nan_ok=True)


@pytest.mark.parametrize("parts", [1, 2, 3])
@pytest.mark.parametrize("values, expected", _LOG_SUM_EXP_CASES)
def test_log_sum_exp_split_over_blocks(values, expected, parts):
    # two values over three parts leave one block empty
    blocks = np.array_split(np.array(values), parts)
    assert _log_sum_exp(iter(blocks)) == pytest.approx(
        expected, rel=1e-15, nan_ok=True)


@pytest.mark.parametrize("blocks, expected", [
    ([[0.0, 1.0], [np.inf]], np.inf),  # +inf in a later block
    ([[np.inf], [0.0]], np.inf),
    ([[0.0], [], [np.nan, 1.0]], np.nan),  # NaN after an empty block
    ([[np.nan], [np.inf]], np.nan),
    ([[np.inf], [np.nan]], np.nan),
    ([[-np.inf, -np.inf], [-np.inf]], -np.inf),  # every block -inf
    ([[], []], -np.inf), ([], -np.inf),  # no value at all
    ([[], [2.0]], 2.0)], ids=str)
def test_log_sum_exp_of_infinite_blocks(blocks, expected):
    got = _log_sum_exp([np.array(block, dtype=float) for block in blocks])
    assert got == pytest.approx(expected, rel=1e-15, nan_ok=True)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_log_sum_exp_split_matches_one_block(seed):
    # the peak sits in the last block, so the earlier sums are rescaled
    values = np.random.default_rng(seed).normal(0.0, 3.0, 6000)
    values[[values.argmax(), -1]] = values[[-1, values.argmax()]]
    blocks = np.split(values, [7, 3000])
    assert _log_sum_exp(blocks) == pytest.approx(
        _log_sum_exp([values]), rel=1e-15, abs=0)


def _pair(first, second, edge=None):
    h = PottsHamiltonian(1, 2)
    h.set_node((1, 1), first)
    h.set_node((1, 2), second)
    if edge is not None:
        h.set_edge((1, 1), (1, 2), np.array(edge))
    return h


@pytest.mark.parametrize("h", [
    # (0.1 + 0.2) + 0.3 ties 0.6 + 0.0 in another summation order, but
    # is an ulp above it in the enumeration's
    _pair([0.1, 0.6], [0.2, 0.0], [[0.3, 10.0], [10.0, 0.0]]),
    # -inf + inf is NaN; the minimum is 0 + inf
    _pair([-np.inf, 0.0], [np.inf])], ids=["near-tie", "infinite"])
def test_min_energy_is_the_sorted_minimum(h):
    with np.errstate(invalid="ignore"):
        spec = exact_spectrum(h)
        assert spec.min_energy.hex() == float(spec.energies[0]).hex()


class TestExactConditional:
    def test_zero_model_uniform(self):
        h = PottsHamiltonian(1, 2)
        for site in h.sites():
            h.set_node(site, [0.0, 0.0])
        p = exact_conditional(h, 1.0, ())
        assert np.allclose(p, [0.5, 0.5])

    def test_beta_to_zero_uniform(self):
        h = random_potts(2, 2, 3, seed=23)
        p = exact_conditional(h, 1e-12, (2, 1))
        assert np.allclose(p, [1 / 3] * 3, atol=1e-12)

    def test_ferromagnetic_chain_frozen_value(self):
        g = IsingGraph(2, {(1, 2): -1.0})
        h = cluster(g, ClusterTopology(1, 2, 1))
        p = exact_conditional(h, 1.0, (1,))
        expected = math.e / (math.e + 1 / math.e)
        assert p[0] == pytest.approx(expected, abs=1e-12)
        assert p[0] == pytest.approx(0.8807970779778823, abs=1e-10)

    @pytest.mark.parametrize("partial", [(1.7,), (1.0,), (1, 2.5)])
    def test_fractional_state_rejected(self, partial):
        h = random_potts(2, 2, 2, seed=4)
        with pytest.raises(InvalidIndexError, match="must be integers"):
            exact_conditional(h, 1.0, partial)

    def test_partial_covering_every_site_rejected(self):
        h = random_potts(1, 2, 2, seed=2)
        with pytest.raises(DimensionError):
            exact_conditional(h, 1.0, (1, 2))

    @pytest.mark.parametrize("partial", [(0,), (1, 3), (2, 1, 4)])
    def test_out_of_range_partial_rejected(self, partial):
        h = random_potts(2, 3, 2, seed=31)
        with pytest.raises(InvalidIndexError):
            exact_conditional(h, 1.0, partial)

    def test_sums_to_one(self):
        h = random_potts(2, 3, 2, seed=31)
        for k_minus_1 in range(6):
            partial = tuple(1 + (i % 2) for i in range(k_minus_1))
            p = exact_conditional(h, 0.7, partial)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_blocks_match_whole_table_in_bounded_memory(self):
        # 3**9 completions: four full blocks and a partial one, each
        # state's 3**8 running over a block's end
        h = random_potts(2, 5, 3, seed=8)
        partial = (2,)
        total = 3 ** 9
        assert total > 2 * BLOCK_ROWS and total % BLOCK_ROWS
        expected = _whole_table_conditional(h, 0.8, partial)
        tracemalloc.start()
        try:
            p = exact_conditional(h, 0.8, partial)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.allclose(p, expected, rtol=1e-12, atol=0)
        # block-sized arrays only; the weights alone take 8 bytes a
        # completion, and the whole table 8 bytes a site and completion
        assert peak < 2**20, peak

    def test_infinite_energy_state_has_probability_zero(self):
        # every completion of state 2 has energy +inf: its log mass is
        # -inf, its probability 0, as in the network's conditional
        h = _pair([0.0, 1.0], [0.0, np.inf])
        p = exact_conditional(h, 1.0, (1,))
        assert p.tolist() == [1.0, 0.0]
        net = build_network(h, beta=1.0)
        envs = bottom_environments(net, ContractionParams(bond_dim=4))
        assert np.array_equal(conditional_distribution(net, envs, (1,)), p)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, 0.0,
                                      -1.0])
    def test_beta_outside_positive_finite_rejected(self, beta):
        h = random_potts(2, 2, 2, seed=4)
        assert_raises_exactly(lambda: exact_conditional(h, beta, ()),
                              NumericError,
                              f"beta must be positive and finite, got {beta}")


def _whole_table_conditional(h, beta, partial):
    """The conditional from every completion at once, prefixed by an
    int64 tile of ``partial`` and split by boolean masks."""
    sites = list(h.sites())
    free_dims = [h.dim(site) for site in sites[len(partial):]]
    completions = _assignments(free_dims, np.arange(math.prod(free_dims)))
    prefix = np.tile(np.array(partial, dtype=np.int64),
                     (completions.shape[0], 1))
    log_weights = -beta * potts_energies(
        h, np.concatenate([prefix, completions], axis=1))
    log_mass = np.empty(free_dims[0])
    for state in range(1, free_dims[0] + 1):
        log_mass[state - 1] = _log_sum_exp(
            [log_weights[completions[:, 0] == state]])
    return np.exp(log_mass - _log_sum_exp([log_mass]))


def test_config_energies_matches_scalar():
    h = random_potts(2, 2, 3, seed=4)
    rng = np.random.default_rng(0)
    configs = rng.integers(1, 4, size=(20, 4))
    energies = potts_energies(h, configs)
    for row, energy in zip(configs, energies):
        assert potts_energy(h, tuple(int(v) for v in row)) == pytest.approx(
            energy, rel=1e-12)


@pytest.mark.parametrize("dtype", [np.int64, np.uint8])
@pytest.mark.parametrize("bad", [0, 4])
def test_config_energies_rejects_out_of_range_states(dtype, bad):
    # state 0 must not wrap round to state d, nor d + 1 (or a uint8 0)
    # escape as a bare IndexError
    h = random_potts(2, 2, 3, seed=4)
    configs = np.ones((3, 4), dtype=dtype)
    configs[1, 2] = bad
    with pytest.raises(InvalidIndexError, match=rf"state {bad} at site \(2, 1\)"):
        potts_energies(h, configs)
