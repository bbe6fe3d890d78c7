"""Network construction, row products, environments, conditionals."""

import itertools
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kingspeps import (ALL_TRANSFORMS, ClusterTopology, ContractionParams,
                       cluster, exact_spectrum, low_energy_spectrum,
                       potts_energy)
from kingspeps.errors import (ContractionDegenerateError, DimensionError,
                              InvalidIndexError, NumericError,
                              TooLargeError, UnsupportedError)
from kingspeps.ising import IsingGraph
from kingspeps.oracle import exact_conditional
from kingspeps.peps import (LatticeTransform, bottom_environments,
                            build_network, conditional_distribution,
                            conditionals, contract_network, right_tables,
                            row_product, step_energies)
from kingspeps.potts import PottsHamiltonian
from kingspeps.tensor_core import BoundaryMps, compress, overlap
from conftest import (assert_raises_exactly, dense_mps_vector, expanded,
                      normalize_scale, peak_bytes, random_boundary_mps,
                      random_potts, ragged_potts, random_clustered)


def _without_node_table(h, bare):
    """``h`` with site ``bare``'s node table left out: its dimension comes
    only from its edges."""
    out = PottsHamiltonian(h.rows, h.cols)
    for site in h.sites():
        if site != bare:
            out.set_node(site, h.node_table(site))
    for (a, b), table in h.edge_tables():
        out.set_edge(a, b, table)
    assert bare not in out._node and out.dim(bare) == h.dim(bare) > 1
    return out


def exact_params(net):
    return ContractionParams(bond_dim=2 ** 30, num_sweeps=0, beta=net.beta)


def exact_envs(net):
    return bottom_environments(net, exact_params(net))


def bottom_env(net, row, params):
    return bottom_environments(net, params)[row - 1]


class TestLatticeTransform:
    def test_identity(self):
        assert np.array_equal(ALL_TRANSFORMS[0].grid((4, 5)),
                              np.arange(20).reshape(4, 5))

    def test_rotation_90(self):
        m, n = 4, 5
        grid = LatticeTransform(1).grid((m, n))
        assert grid.shape == (n, m)
        for r in range(1, m + 1):
            for c in range(1, n + 1):
                # (r, c) lands at (c, m + 1 - r)
                assert grid[c - 1, m - r] == (r - 1) * n + c - 1

    def test_horizontal_reflection(self):
        m, n = 3, 4
        grid = LatticeTransform(4).grid((m, n))
        for r in range(1, m + 1):
            for c in range(1, n + 1):
                # (r, c) lands at (r, n + 1 - c)
                assert grid[r - 1, n - c] == (r - 1) * n + c - 1

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6))
    def test_inverse_round_trip(self, m, n):
        h = PottsHamiltonian(m, n)
        for q, site in enumerate(h.sites()):
            h.set_node(site, [float(q)] * (1 + q % 3))  # ragged dims
        for tr in ALL_TRANSFORMS:
            net = build_network(h, tr)
            position_map = net.position_map
            assert position_map.dtype == np.intp
            assert position_map.flags.c_contiguous
            assert np.array_equal(position_map, tr.grid((m, n)).reshape(-1))
            # every node table and dimension lands where the grid says
            for p, q in enumerate(position_map.tolist(), start=1):
                site = net.site_of(p)
                assert net.table(net.energy, *site).tolist() == [q] * (1 + q % 3)
                assert net.dim_at(*site) == 1 + q % 3
                assert net.row_dims(site[0])[site[1] - 1] == 1 + q % 3

    def test_all_eight_are_bijections(self):
        m, n = 3, 4
        for tr in ALL_TRANSFORMS:
            grid = tr.grid((m, n))
            assert grid.shape == ((n, m) if tr.code % 2 else (m, n))
            assert sorted(grid.reshape(-1).tolist()) == list(range(m * n))

    @pytest.mark.parametrize("dims", [(2, 4), (3, 5)])
    def test_mirror_partners_reverse_columns(self, dims):
        by_name = {tr.name: tr.grid(dims) for tr in ALL_TRANSFORMS}
        m, n = dims
        for name, grid in by_name.items():
            assert sorted(grid.reshape(-1).tolist()) == list(range(m * n))
        assert by_name["r90"].shape == (n, m)
        for mirrored, partner in (("r0f", "r0"), ("r180f", "r180"),
                                  ("r270f", "r90"), ("r90f", "r270")):
            assert np.array_equal(by_name[mirrored],
                                  by_name[partner][:, ::-1])


def network_z(net):
    value, log_scale = contract_network(net)
    return value * math.exp(log_scale)


def brute_z(h, beta):
    return exact_spectrum(h).partition(beta)


class TestBuildNetwork:
    def test_single_free_site(self):
        h = PottsHamiltonian(1, 1)
        h.set_node((1, 1), [0.0, 0.0])
        for beta in (0.5, 1.0, 3.0):
            net = build_network(h, beta=beta)
            assert network_z(net) == pytest.approx(2.0, rel=1e-12)

    def test_two_site_chain(self, chain_pair):
        _, h = chain_pair
        net = build_network(h, beta=1.0)
        expected = 2 * math.e + 2 / math.e
        assert network_z(net) == pytest.approx(expected, rel=1e-12)

    def test_partition_function_matches_enumeration(self):
        for seed, dim in ((1, 2), (2, 3), (3, 3)):
            h = random_potts(3, 3, dim, seed=seed)
            for beta in (0.5, 1.0, 2.0):
                net = build_network(h, beta=beta)
                assert network_z(net) == pytest.approx(brute_z(h, beta),
                                                       rel=1e-8)

    def test_overflow_raises(self):
        h = PottsHamiltonian(1, 1)
        h.set_node((1, 1), [-1000.0, 0.0])
        with pytest.raises(NumericError):
            build_network(h, beta=1.0)

    def test_float32_cast_overflow_raises(self):
        # exp(100) fits float64 but not float32
        h = PottsHamiltonian(1, 1)
        h.set_node((1, 1), [-100.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_raises_exactly(
                lambda: build_network(h, beta=1.0, dtype=np.float32),
                NumericError,
                "Boltzmann weight overflows float32; reduce beta or use float64")
        net = build_network(h, beta=1.0)
        assert net.table(net.weight, 1, 1)[0] == pytest.approx(math.exp(100))

    def test_invalid_beta(self):
        h = PottsHamiltonian(1, 1)
        h.set_node((1, 1), [0.0])
        with pytest.raises(NumericError):
            build_network(h, beta=0.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("model", [
        lambda: random_clustered(3, 3, 2, seed=3300)[1],
        lambda: ragged_potts(3, 4, [1, 2, 3, 4, 4, 3, 2, 1, 2, 4, 1, 3], 8),
        lambda: _without_node_table(
            ragged_potts(3, 4, [1, 2, 3, 4, 4, 3, 2, 1, 2, 4, 1, 3], 8),
            (2, 2)),
    ], ids=["clustered3x3x2", "ragged3x4", "bare-site3x4"])
    def test_weights_equal_per_table_exp(self, model, dtype):
        # the one-pass build exponentiates the model's flat buffer; each
        # table's weights must match its own exp bit for bit
        h = model()
        for tr in ALL_TRANSFORMS:
            for beta in (0.5, 2.0, 7.3):
                net = build_network(h, tr, beta=beta, dtype=dtype)
                for k, direction in itertools.product(
                        range(1, net.rows * net.cols + 1),
                        (None, "w", "nw", "n", "ne")):
                    site = net.site_of(k)
                    table = net.table(net.energy, *site, direction)
                    got = net.table(net.weight, *site, direction)
                    if table is None:
                        assert got is None and direction is not None
                        continue
                    expected = np.exp(-beta * np.asarray(
                        table, dtype=np.float64)).astype(dtype)
                    assert got.shape == expected.shape
                    assert got.dtype == expected.dtype
                    assert np.all(got == expected), (tr.name, site, direction)

    @pytest.mark.parametrize("model", [
        lambda: random_clustered(3, 3, 2, seed=3300)[1],
        lambda: ragged_potts(3, 4, [1, 2, 3, 4, 4, 3, 2, 1, 2, 4, 1, 3], 8),
        lambda: _without_node_table(
            ragged_potts(3, 4, [1, 2, 3, 4, 4, 3, 2, 1, 2, 4, 1, 3], 8),
            (2, 2)),
        # under r90 a grid of two or one columns, where a gap of 1
        # between positions is also an "ne" or an "n" edge
        lambda: ragged_potts(2, 3, [2, 3, 1, 4, 2, 3], 9),
        lambda: ragged_potts(1, 3, [2, 3, 4], 9),
    ], ids=["clustered3x3x2", "ragged3x4", "bare-site3x4", "ragged2x3",
            "ragged1x3"])
    def test_tables_land_where_the_grid_says(self, model):
        # each transformed site reads its original site's node table and,
        # in each back direction, the model's edge table to the original
        # neighbour, oriented (neighbour's state, own state)
        h = model()
        for tr in ALL_TRANSFORMS:
            net = build_network(h, tr)
            original = [divmod(int(q), h.cols) for q in net.position_map]
            for k in range(1, net.rows * net.cols + 1):
                row, col = net.site_of(k)
                r, c = original[k - 1]
                assert np.array_equal(net.table(net.energy, row, col),
                                      h.node_table((r + 1, c + 1)))
                for direction, (dr, dc) in (("w", (0, -1)), ("nw", (-1, -1)),
                                            ("n", (-1, 0)), ("ne", (-1, 1))):
                    table = net.table(net.energy, row, col, direction)
                    if not (1 <= row + dr <= net.rows
                            and 1 <= col + dc <= net.cols):
                        assert table is None
                        continue
                    rn, cn = original[net.position(row + dr, col + dc) - 1]
                    expected = h.edge_table((rn + 1, cn + 1), (r + 1, c + 1))
                    if expected is None:
                        assert table is None
                    else:
                        assert np.array_equal(table, expected), (tr.name, k)
                        assert net.back(row, col, direction).shape == table.shape

    def test_overflowing_edge_table_raises(self):
        # one edge entry overflows, every node table is fine
        h = PottsHamiltonian(2, 2)
        for site in h.sites():
            h.set_node(site, [0.0, 1.0])
        h.set_edge((1, 2), (2, 1), [[0.0, -1000.0], [0.0, 0.0]])
        for tr in ALL_TRANSFORMS:
            with pytest.raises(NumericError, match=r"^Boltzmann weight "
                               r"overflowed; reduce beta or rescale "
                               r"energies$"):
                build_network(h, tr, beta=1.0)

    @pytest.mark.parametrize("beta", [math.inf, math.nan, -math.inf])
    def test_non_finite_beta(self, beta):
        h = PottsHamiltonian(1, 2)
        h.set_node((1, 1), [0.0, 1.0])
        h.set_node((1, 2), [0.0, 1.0])
        with pytest.raises(NumericError, match="positive and finite"):
            build_network(h, beta=beta)

    @pytest.mark.parametrize("rows, cols", [(4096, 4096), (1, 1597830)])
    def test_per_site_structures_refused_before_building(self, rows, cols):
        # a bare grid's network holds 84 bytes a position (ten int arrays
        # and four flags) and 16 for the one zero of its flat buffer
        # (its float64 weight and temporary): 2^24 sites want 1.3 GiB,
        # and 1597830 sites are the fewest past 128 MiB (1597829 take
        # 134217652 bytes)
        need = rows * cols * 84 + 16
        if rows == 1:  # the first one-row grid past the guard
            assert need - 84 <= 2 ** 27 < need
        h = PottsHamiltonian(rows, cols)
        _, peak = peak_bytes(lambda: assert_raises_exactly(
            lambda: build_network(h, ALL_TRANSFORMS[1]), TooLargeError,
            f"the network of a {rows}x{cols} grid takes up to {need} "
            f"bytes, more than the size guard's 134217728"))
        assert peak < 2**16, peak

    @pytest.mark.parametrize("transform", [0, 1])
    def test_per_site_bytes_cover_a_one_state_grid(self, transform):
        h = PottsHamiltonian(128, 128)
        h._energy_terms()  # the model's buffer, not the network's
        _, peak = peak_bytes(
            lambda: build_network(h, ALL_TRANSFORMS[transform]))
        # it keeps 68 bytes a position: eight ints (position, reach,
        # dimension, node offset, four edge offsets) and four flags
        assert 68 * 128 * 128 < peak <= 128 * 128 * 84 + 16, peak

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_predicted_bytes_cover_a_grid_with_every_king_edge(self, dtype):
        # 64x64 sites of 2 states and 16002 edges: 84 bytes a position,
        # 35 an edge (four int temporaries and three flags) and the
        # weight itemsize plus 8 (its float64 temporary) for each of
        # the flat buffer's 2 + 4096 * 2 + 16002 * 4 entries
        h = random_clustered(64, 64, 1, seed=1)[1]
        assert len(h._edge) == 16002
        h._energy_terms()
        need = (4096 * 84 + 16002 * 35
                + (2 + 4096 * 2 + 16002 * 4) * (np.dtype(dtype).itemsize + 8))
        _, peak = peak_bytes(
            lambda: build_network(h, ALL_TRANSFORMS[1], 2.0, dtype))
        assert peak <= need, (peak, need)


class TestRowProduct:
    """:func:`row_product`, the transfer from one row to the one above."""

    def test_uncoupled_columns_factorize(self):
        h = PottsHamiltonian(2, 3)
        for site in h.sites():
            h.set_node(site, [0.1, -0.2])
        for c in range(1, 4):  # vertical couplings only
            h.set_edge((1, c), (2, c), np.ones((2, 2)))
        net = build_network(h, beta=1.0)
        env = random_boundary_mps(net.row_dims(2), 3, seed=4)
        assert row_product(net, 1, env).bond_dims == env.bond_dims

    def test_zero_energy_sums_states(self):
        h = PottsHamiltonian(2, 2)
        for site in h.sites():
            h.set_node(site, [0.0, 0.0, 0.0])
        net = build_network(h, beta=1.0)
        grown = row_product(net, 1, BoundaryMps.ones([3, 3]))
        vec = dense_mps_vector(grown)
        # summing the free lower row contributes a factor d per column
        assert np.allclose(vec, 9.0)

    def test_row_products_reproduce_partition_function(self):
        h = random_potts(2, 2, 2, seed=5)
        net = build_network(h, beta=1.3)
        env = row_product(net, 1, BoundaryMps.ones(net.row_dims(2)))
        # row 0 is a one-state row above row 1
        top = row_product(net, 0, expanded(env))
        assert top.phys_dims == (1, 1)
        value, log_scale = overlap(BoundaryMps.ones([1, 1]), top)
        assert value * math.exp(log_scale) == pytest.approx(
            brute_z(h, 1.3), rel=1e-10)
        assert network_z(net) == pytest.approx(brute_z(h, 1.3), rel=1e-10)

    def test_product_stores_only_diagonal_blocks(self):
        # the zero-padded product of a carried column has dl*dx*dx*r entries
        _, h = random_clustered(3, 4, 2, seed=3300)
        net = build_network(h, beta=2.0)
        envs = exact_envs(net)
        for row in range(net.rows):
            env = envs[row]
            product = row_product(net, row, env)
            dims_x = net.row_dims(row) if row else [1] * net.cols
            for t, e, dx in zip(product.tensors, env.tensors, dims_x):
                dl, dy, chi = t.shape[0], e.shape[1], e.shape[2]
                assert t.size <= dl * dx * dy * chi
            assert any(product.carried) == (row > 0)

    def test_row_out_of_range(self):
        h = random_potts(2, 2, 2, seed=6)
        net = build_network(h, beta=1.0)
        for row in (-1, 2):
            with pytest.raises(InvalidIndexError):
                row_product(net, row, BoundaryMps.ones(net.row_dims(2)))

    def test_state_dims_mismatch(self):
        h = random_potts(2, 2, 2, seed=6)
        net = build_network(h, beta=1.0)
        for dims in ([2, 3], [2], [2, 2, 2]):
            with pytest.raises(DimensionError):
                row_product(net, 1, BoundaryMps.ones(dims))

    @staticmethod
    def _five_weights():
        """A 2x2 model whose row pair 1|2 multiplies, at column 2, five
        weights exp(30 beta) (site, n, w, nw and the ne edge of (2, 1))."""
        h = PottsHamiltonian(2, 2)
        for site in h.sites():
            h.set_node(site, [-30.0, 0.0])
        for a, b in (((1, 1), (1, 2)), ((1, 1), (2, 1)), ((1, 2), (2, 2)),
                     ((2, 1), (2, 2)), ((1, 1), (2, 2)), ((1, 2), (2, 1))):
            h.set_edge(a, b, [[-30.0, 0.0], [0.0, 0.0]])
        return h

    def test_overflowing_weight_table_names_rows_and_column(self):
        # each weight exp(30) fits float32, but five of them do not
        h = self._five_weights()
        net = build_network(h, beta=1.0, dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"row pair 1\|2 at column 2"):
                row_product(net, 1, BoundaryMps.ones([2, 2], dtype=np.float32))
            with pytest.raises(NumericError, match=r"row pair 1\|2 at column 2"):
                bottom_environments(net, exact_params(net))
        # the same model contracts in float64
        assert network_z(build_network(h, beta=1.0)) == pytest.approx(
            brute_z(h, 1.0), rel=1e-10)

    def test_float64_overflow_does_not_suggest_float64(self):
        # each weight exp(150) fits float64, but five of them do not
        net = build_network(self._five_weights(), beta=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_raises_exactly(
                lambda: row_product(net, 1, BoundaryMps.ones([2, 2])),
                NumericError, "weight table of row pair 1|2 at column 2 "
                "overflows float64; reduce beta")

    def test_overflowing_right_tables_name_row_and_column(self):
        # no row product covers row 1: site (1, 3) and its edge to (1, 2)
        # weigh exp(45) each, and their product overflows float32
        h = PottsHamiltonian(2, 3)
        for site in h.sites():
            h.set_node(site, [-45.0, 0.0])
        for a, b in (((1, 1), (1, 2)), ((1, 2), (1, 3))):
            h.set_edge(a, b, [[-45.0, 0.0], [0.0, 0.0]])
        net = build_network(h, beta=1.0, dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bottom = exact_envs(net)[0]
            assert_raises_exactly(
                lambda: right_tables(net, bottom, 1,
                                     np.zeros((1, 0), dtype=np.intp)),
                NumericError, "weight table of row 1 at column 3 overflows "
                "float32; reduce beta or use float64")
            assert low_energy_spectrum(h).best_energy == -360.0


def reference_row_product(net, row, env):
    """:func:`row_product` as first written: x put on the diagonal by a
    product with an identity, then ``normalize_scale`` over the row."""
    lower = row + 1
    dims_x = net.row_dims(row) if row else [1] * net.cols
    dims_y = net.row_dims(lower)
    tensors = []
    dxl = dyl = 1
    for c, e in enumerate(env.tensors, start=1):
        dx, dy = dims_x[c - 1], dims_y[c - 1]
        carry_x = net.back(lower, c + 1, "nw") is not None
        carry_y = (net.back(lower, c + 1, "w") is not None
                   or net.back(lower, c, "ne") is not None)
        a = (np.ones((dxl, dyl, dx, dy), dtype=net.dtype)
             * net.table(net.weight, lower, c))
        w = net.back(lower, c, "n")
        if w is not None:
            a = a * w
        w = net.back(lower, c, "w")
        if w is not None:
            a = a * w[None, :, None, :]
        w = net.back(lower, c, "nw")
        if w is not None:
            a = a * w[:, None, None, :]
        w = net.back(lower, c - 1, "ne")
        if w is not None:
            a = a * w.T[None, :, :, None]
        if carry_y:
            p = a[:, :, None, :, :, None] * e[None, None, :, None, :, :]
        else:
            p = np.tensordot(a, e, axes=(3, 1)).transpose(0, 1, 3, 2, 4)
            p = p[:, :, :, :, None]
        if carry_x:
            p = (p[:, :, :, :, None]
                 * np.eye(dx, dtype=p.dtype)[:, :, None, None])
        tensors.append(p.reshape(dxl * dyl * e.shape[0], dx, -1))
        dxl, dyl = (dx if carry_x else 1), (dy if carry_y else 1)
    return normalize_scale(BoundaryMps(tensors, env.log_scale))


def assert_same_row_products(net, seed):
    """Every row's product, expanded to its zero-padded tensors, equals
    the reference entry for entry, on a random environment and on the
    solver's own environments."""
    envs = exact_envs(net)
    for row in range(net.rows):
        own = envs[row]
        rand = random_boundary_mps(own.phys_dims, 3, seed=seed + row,
                                   dtype=net.dtype)
        for env in (own, rand):
            got = expanded(row_product(net, row, env))
            want = reference_row_product(net, row, env)
            assert got.log_scale == want.log_scale
            assert len(got.tensors) == len(want.tensors)
            for g, r in zip(got.tensors, want.tensors):
                assert g.shape == r.shape and g.dtype == r.dtype
                assert np.all(g == r)


class TestRowProductReference:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.data(), st.integers(0, 7),
           st.sampled_from([np.float64, np.float32]))
    def test_ragged_native_potts(self, rows, cols, data, code, dtype):
        dims = data.draw(st.lists(st.integers(1, 4), min_size=rows * cols,
                                  max_size=rows * cols))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        h = ragged_potts(rows, cols, dims, seed)
        net = build_network(h, LatticeTransform(code), beta=1.5, dtype=dtype)
        assert_same_row_products(net, seed % 1000)

    @pytest.mark.parametrize("rows,cols,t,seed", [(3, 3, 2, 3300),
                                                  (4, 4, 2, 4200),
                                                  (2, 4, 3, 7)])
    def test_clustered(self, rows, cols, t, seed):
        _, h = random_clustered(rows, cols, t, seed=seed)
        for tr in ALL_TRANSFORMS[:2] + ALL_TRANSFORMS[4:5]:
            assert_same_row_products(build_network(h, tr, beta=2.0), seed)


def vector_fidelity(a, b):
    """Normalized squared overlap of two states, from their dense vectors."""
    va, vb = dense_mps_vector(a), dense_mps_vector(b)
    return float(np.dot(va, vb)) ** 2 / (np.dot(va, va) * np.dot(vb, vb))


def assert_matches_expansion(product, params, got, fid):
    """``(got, fid)``, :func:`compress` of the block product, is the
    state and fidelity that compressing its dense expansion gives."""
    want, want_fid = compress(expanded(product), params)
    assert got.bond_dims == want.bond_dims
    assert not any(got.carried)
    assert fid == pytest.approx(want_fid, rel=1e-10, abs=1e-12)
    assert vector_fidelity(got, want) >= 1 - 1e-12


class TestBlockCompression:
    """:func:`compress` on row products, whose carried columns it
    canonicalizes, truncates and sweeps block by block."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3), st.integers(1, 4), st.data(), st.integers(0, 7),
           st.integers(1, 6), st.integers(0, 2))
    def test_ragged_native_potts(self, rows, cols, data, code, bond_dim,
                                 num_sweeps):
        dims = data.draw(st.lists(st.integers(1, 4), min_size=rows * cols,
                                  max_size=rows * cols))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        net = build_network(ragged_potts(rows, cols, dims, seed),
                            LatticeTransform(code), beta=1.5)
        params = ContractionParams(bond_dim=bond_dim, num_sweeps=num_sweeps)
        envs = exact_envs(net)
        for row in range(1, net.rows):
            product = row_product(net, row, envs[row])
            assert_matches_expansion(product, params,
                                     *compress(product, params))

    def test_d4_rows_cut_at_chi8(self, caplog):
        _, h = random_clustered(4, 4, 2, seed=4200)
        net = build_network(h, beta=2.0)
        params = ContractionParams(bond_dim=8, num_sweeps=2, beta=2.0)
        unswept = ContractionParams(bond_dim=8, num_sweeps=0, beta=2.0)
        env = BoundaryMps.ones(net.row_dims(net.rows))
        for row in range(net.rows - 1, 0, -1):
            product = row_product(net, row, env)
            assert any(product.carried) and max(product.bond_dims) > 8
            with caplog.at_level(logging.DEBUG, logger="kingspeps"):
                env, fid = compress(product, params)
            assert_matches_expansion(product, params, env, fid)
            assert fid >= compress(product, unswept)[1] - 1e-12
        assert caplog.messages.count(
            "compress: a bond was cut, 2 sweep(s) run") == net.rows - 1


class TestBottomEnv:
    def test_one_environment_per_row(self):
        h = random_potts(3, 2, 3, seed=11)
        net = build_network(h, beta=1.0)
        envs = bottom_environments(net, exact_params(net))
        assert [env.phys_dims for env in envs] == [
            tuple(net.row_dims(row)) for row in range(1, net.rows + 1)]
        assert np.allclose(dense_mps_vector(envs[-1]), 1.0)

    def test_single_row_all_ones(self):
        h = random_potts(1, 3, 2, seed=7)
        net = build_network(h, beta=1.0)
        env = bottom_env(net, 1, exact_params(net))
        assert np.allclose(dense_mps_vector(env), 1.0)

    def test_uncoupled_rows_pure_scale(self):
        h = PottsHamiltonian(2, 2)
        rng = np.random.default_rng(8)
        for site in h.sites():
            h.set_node(site, rng.uniform(-1, 1, size=2))
        h.set_edge((2, 1), (2, 2), rng.uniform(-1, 1, size=(2, 2)))
        net = build_network(h, beta=1.0)
        vec = dense_mps_vector(bottom_env(net, 1, exact_params(net)))
        assert np.allclose(vec, vec[0], rtol=1e-10)
        # the scale equals the summed weight of the lower row alone
        h_lower = PottsHamiltonian(1, 2)
        h_lower.set_node((1, 1), h.node_table((2, 1)))
        h_lower.set_node((1, 2), h.node_table((2, 2)))
        h_lower.set_edge((1, 1), (1, 2), h.edge_table((2, 1), (2, 2)))
        expected = brute_z(h_lower, 1.0)
        assert vec[0] == pytest.approx(expected, rel=1e-10)

    def test_logs_one_line_per_row(self, caplog):
        _, h = random_clustered(3, 3, 2, seed=42)
        net = build_network(h, beta=2.0)
        params = ContractionParams(bond_dim=16, num_sweeps=1, beta=2.0)
        with caplog.at_level(logging.DEBUG, logger="kingspeps"):
            envs = bottom_environments(net, params)
        rows = [r.getMessage() for r in caplog.records
                if r.name == "kingspeps.peps"]
        sweeps = [r.getMessage() for r in caplog.records
                  if r.name == "kingspeps.tensor_core"]
        assert len(rows) == net.rows - 1
        for row, line in zip(range(net.rows - 1, 0, -1), rows):
            assert line.startswith(f"environment of row {row}: product bond ")
            assert f"bonds {envs[row - 1].bond_dims}, fidelity 1" in line
        # chi=16 covers the exact rank of a 3-column d=4 row
        assert sweeps == ["compress: every bond kept whole, "
                          "1 sweep(s) skipped"] * (net.rows - 1)

    def test_contracts_to_partition_function(self):
        h = random_potts(4, 4, 2, seed=9)
        net = build_network(h, beta=1.0)
        value, log_scale = contract_network(
            net, ContractionParams(bond_dim=16, num_sweeps=1, beta=1.0))
        assert value * math.exp(log_scale) == pytest.approx(
            brute_z(h, 1.0), rel=1e-8)


class TestConditionalDistribution:
    def test_zero_energies_uniform(self):
        h = PottsHamiltonian(2, 2)
        for site in h.sites():
            h.set_node(site, [0.0, 0.0, 0.0])
        net = build_network(h, beta=1.0)
        p = conditional_distribution(net, exact_envs(net), ())
        assert np.allclose(p, 1 / 3)

    def test_chain_first_site_symmetric(self, chain_pair):
        _, h = chain_pair
        net = build_network(h, beta=1.0)
        p = conditional_distribution(net, exact_envs(net), ())
        assert np.allclose(p, 0.5)

    def test_chain_second_site_given_up(self, chain_pair):
        _, h = chain_pair
        net = build_network(h, beta=1.0)
        p = conditional_distribution(net, exact_envs(net), (1,))
        assert p[0] == pytest.approx(0.8807970779778823, abs=1e-10)
        assert p[1] == pytest.approx(0.11920292202211755, abs=1e-10)

    @pytest.mark.parametrize("rows,cols,dim,chi", [(3, 3, 2, 64), (2, 3, 3, 64)])
    def test_matches_enumeration(self, rows, cols, dim, chi):
        h = random_potts(rows, cols, dim, seed=rows * 10 + dim)
        net = build_network(h, beta=1.0)
        params = ContractionParams(bond_dim=chi, num_sweeps=0, beta=1.0)
        envs = bottom_environments(net, params)
        rng = np.random.default_rng(0)
        for _ in range(40):
            k = int(rng.integers(1, rows * cols + 1))
            partial = tuple(int(rng.integers(1, dim + 1)) for _ in range(k - 1))
            mine = conditional_distribution(net, envs, partial)
            ref = exact_conditional(h, 1.0, partial)
            assert np.max(np.abs(mine - ref)) <= 1e-8

    def test_normalized(self):
        h = random_potts(3, 3, 3, seed=12)
        net = build_network(h, beta=2.0)
        params = ContractionParams(bond_dim=8, num_sweeps=1, beta=2.0)
        envs = bottom_environments(net, params)
        rng = np.random.default_rng(1)
        for _ in range(25):
            k = int(rng.integers(1, 10))
            partial = tuple(int(rng.integers(1, 4)) for _ in range(k - 1))
            p = conditional_distribution(net, envs, partial)
            assert p.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(p >= 0)

    def test_chain_rule_recovers_boltzmann(self):
        h = random_potts(3, 3, 2, seed=13)
        beta = 1.5
        net = build_network(h, beta=beta)
        envs = exact_envs(net)
        z = brute_z(h, beta)
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = tuple(int(v) for v in rng.integers(1, 3, size=9))
            log_p = 0.0
            for k in range(9):
                p = conditional_distribution(net, envs, x[:k])
                log_p += math.log(p[x[k] - 1])
            expected = math.exp(-beta * potts_energy(h, x)) / z
            assert math.exp(log_p) == pytest.approx(expected, rel=1e-6)

    def test_transform_consistency(self):
        h = random_potts(2, 3, 2, seed=14)
        beta = 1.0
        reference = None
        for tr in ALL_TRANSFORMS:
            net = build_network(h, tr, beta=beta)
            envs = exact_envs(net)
            dist = {}
            for x in itertools.product((1, 2), repeat=6):
                log_p = 0.0
                for k in range(6):
                    p = conditional_distribution(net, envs, x[:k])
                    log_p += math.log(p[x[k] - 1])
                original = [0] * 6
                for pos, value in enumerate(x):
                    original[net.position_map[pos]] = value
                dist[tuple(original)] = math.exp(log_p)
            if reference is None:
                reference = dist
            else:
                for key, value in dist.items():
                    assert value == pytest.approx(reference[key], abs=1e-8)

    def test_degenerate_contraction_reports_position(self):
        h = PottsHamiltonian(1, 1)
        h.set_node((1, 1), [0.0, 0.0])
        net = build_network(h, beta=1.0)
        # doctor a zeroed bottom environment
        envs = exact_envs(net)
        for t in envs[0].tensors:
            t[:] = 0.0
        with pytest.raises(ContractionDegenerateError) as err:
            conditional_distribution(net, envs, ())
        assert err.value.position == (1, 1)

    def test_branch_of_infinite_energies_raises_without_warning(self):
        # site (1, 2) has energy +inf in every state: the shift by the
        # branch minimum would form inf - inf
        h = PottsHamiltonian(1, 2)
        h.set_node((1, 1), [0.0, 1.0])
        h.set_node((1, 2), [np.inf, np.inf])
        net = build_network(h, beta=1.0)
        envs = exact_envs(net)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_raises_exactly(
                lambda: conditional_distribution(net, envs, (1,)),
                ContractionDegenerateError,
                "conditional weights vanished (at site (1, 2))")

    @staticmethod
    def _magnitude_lines(caplog):
        return [r.getMessage() for r in caplog.records
                if r.levelno == logging.DEBUG
                and r.getMessage().startswith("took the magnitude of ")]

    def test_negative_weight_keeps_magnitude_and_logged(self, caplog):
        h = random_potts(2, 2, 2, seed=17)
        net = build_network(h, beta=1.0)
        envs = exact_envs(net)
        expected = conditional_distribution(net, envs, (1, 2))
        # doctor row 2's environment so that state 1 of site (2, 1) has a
        # negative numerator, as truncation noise can give it
        envs[1].tensors[0][:, 0, :] *= -1.0
        with caplog.at_level(logging.DEBUG, logger="kingspeps.peps"):
            p = conditional_distribution(net, envs, (1, 2))
        assert p.tolist() == expected.tolist()
        assert self._magnitude_lines(caplog) == [
            "took the magnitude of 1 negative conditional weights on 1 of 1 "
            "branches at (2, 1)"]

    def test_sign_flipped_environment_flipped_back_and_logged(self, caplog):
        h = random_potts(2, 2, 2, seed=17)
        net = build_network(h, beta=1.0)
        envs = exact_envs(net)
        expected = conditional_distribution(net, envs, (1, 2))
        # doctor row 2's environment into -f, as truncation can give it:
        # both numerators of site (2, 1) are negative, none positive
        envs[1].tensors[0] *= -1.0
        with caplog.at_level(logging.DEBUG, logger="kingspeps.peps"):
            p = conditional_distribution(net, envs, (1, 2))
        assert p.tolist() == expected.tolist()
        assert self._magnitude_lines(caplog) == [
            "took the magnitude of 2 negative conditional weights on 1 of 1 "
            "branches at (2, 1)"]

    @staticmethod
    def _two_branches_at_first_site(doctor):
        # branch 0 sees the exact environment of site (1, 1), branch 1 the
        # same one with its right table doctored
        h = random_potts(2, 2, 2, seed=17)
        net = build_network(h, beta=1.0)
        bottom = exact_envs(net)[0]
        values = np.zeros((2, 0), dtype=np.int64)
        right = right_tables(net, bottom, 1, values[:1])[0]
        right = np.concatenate([right, doctor(right)])
        left = np.ones((2, 1), dtype=net.dtype)
        return conditionals(net, bottom, 1, 1, left, right, np.arange(2),
                            step_energies(net, 1, 1, values))

    def test_branch_flipped_among_positive_siblings(self, caplog):
        # truncation can give the environment the wrong sign for some
        # configurations only: every numerator of branch 1 is negative
        with caplog.at_level(logging.DEBUG, logger="kingspeps.peps"):
            p, _ = self._two_branches_at_first_site(lambda r: -r)
        assert p[1].tolist() == p[0].tolist()
        assert self._magnitude_lines(caplog) == [
            "took the magnitude of 2 negative conditional weights on 1 of 2 "
            "branches at (1, 1)"]

    def test_zeros_and_negative_noise_keep_magnitude(self, caplog):
        # branch 1's weights underflowed to zero but for one slightly
        # negative entry: it keeps its magnitude, so the branch keeps
        # its one state rather than losing all its weight
        def doctor(right):
            noisy = np.zeros_like(right)
            noisy[:, 1, :] = -1e-12 * right[:, 1, :]
            return noisy

        with caplog.at_level(logging.DEBUG, logger="kingspeps.peps"):
            p, _ = self._two_branches_at_first_site(doctor)
        assert p[1].tolist() == [0.0, 1.0]
        assert self._magnitude_lines(caplog) == [
            "took the magnitude of 1 negative conditional weights on 1 of 2 "
            "branches at (1, 1)"]

    def test_wrong_number_of_environments_rejected(self):
        h = random_potts(3, 2, 2, seed=18)
        net = build_network(h, beta=1.0)
        envs = exact_envs(net)
        for wrong in (envs[:-1], envs + envs[-1:], []):
            with pytest.raises(DimensionError):
                conditional_distribution(net, wrong, (1,))

    def test_bad_state_value_rejected(self):
        h = random_potts(2, 2, 2, seed=16)
        net = build_network(h, beta=1.0)
        with pytest.raises(InvalidIndexError):
            conditional_distribution(net, exact_envs(net), (0,))
        with pytest.raises(InvalidIndexError):
            conditional_distribution(net, exact_envs(net), (5,))

    @pytest.mark.parametrize("partial", [(1.7,), (1.0,), (1, 2.5)])
    def test_fractional_state_rejected(self, partial):
        h = random_potts(2, 2, 2, seed=16)
        net = build_network(h, beta=1.0)
        with pytest.raises(InvalidIndexError, match="must be integers"):
            conditional_distribution(net, exact_envs(net), partial)

    def test_value_beyond_own_site_dimension_rejected(self):
        # ragged dims 2, 4 / 3, 2: value 3 or 4 is valid at site 2 only
        h = PottsHamiltonian(2, 2)
        for site, d in zip(h.sites(), (2, 4, 3, 2)):
            h.set_node(site, np.linspace(-1, 1, d))
        h.set_edge((1, 1), (1, 2), np.ones((2, 4)))
        h.set_edge((1, 2), (2, 1), np.ones((4, 3)))
        net = build_network(h, beta=1.0)
        envs = exact_envs(net)
        assert conditional_distribution(net, envs, (2, 4, 3)).shape == (2,)
        for partial in ((3,), (2, 4, 4), (1, 5)):
            with pytest.raises(InvalidIndexError):
                conditional_distribution(net, envs, partial)


def _solve_3x3(dtype):
    return low_energy_spectrum(random_clustered(3, 3, 1, seed=3)[1],
                               dtype=dtype)


def _conditional_after_every_site():
    net = build_network(random_potts(2, 2, 2, seed=16), beta=1.0)
    return conditional_distribution(net, exact_envs(net), (1, 2, 1, 2))


@pytest.mark.parametrize("call, error, message", [
    (lambda: LatticeTransform(8), InvalidIndexError,
     "transform code must be 0..7, got 8"),
    (lambda: LatticeTransform(1.5), InvalidIndexError,
     "transform code must be 0..7, got 1.5"),
    (lambda: _solve_3x3(np.float16), UnsupportedError,
     "dtype must be float32 or float64, got float16"),
    (lambda: _solve_3x3(np.int64), UnsupportedError,
     "dtype must be float32 or float64, got int64"),
    (lambda: _solve_3x3(np.complex128), UnsupportedError,
     "dtype must be float32 or float64, got complex128"),
    # a prefix that assigns every site is one condition with one class,
    # in the network's conditional and in the exact one
    (_conditional_after_every_site, DimensionError,
     "partial assignment already covers all 4 sites"),
    (lambda: exact_conditional(random_potts(2, 2, 2, seed=16), 1.0,
                               (1, 2, 1, 2)),
     DimensionError, "site position 5 outside 1..4"),
])
def test_rejection_class_and_message(call, error, message):
    assert_raises_exactly(call, error, message)


def _weights_as_gathered(net, row, col, values):
    """The local factor as a product of weights, ``(B, d)``: the site's
    weights times the rows of its back weight tables that the
    neighbours' values pick."""
    weights = np.broadcast_to(net.table(net.weight, row, col),
                              (len(values), net.dim_at(row, col)))
    for direction, (dr, dc) in (("w", (0, -1)), ("n", (-1, 0)),
                                ("nw", (-1, -1)), ("ne", (-1, 1))):
        table = net.back(row, col, direction)
        if table is not None:
            neighbour = values[:, net.position(row + dr, col + dc) - 1]
            weights = weights * table[neighbour - 1]
    return weights


class TestConditionalsContract:
    """:func:`conditionals` weighs each numerator by
    ``exp(-beta * (energy - min energy))`` formed in float64; it must
    give the distributions of the gathered weight product."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("model", [
        lambda: random_clustered(3, 3, 2, seed=3300)[1],
        lambda: ragged_potts(3, 4, [1, 2, 3, 4, 4, 3, 2, 1, 2, 4, 1, 3], 8),
    ], ids=["clustered3x3x2", "ragged3x4"])
    def test_matches_gathered_weight_product(self, model, dtype):
        h = model()
        rng = np.random.default_rng(15)
        for tr in ALL_TRANSFORMS:
            net = build_network(h, tr, beta=2.0, dtype=dtype)
            # the reference weights are exact to float64, whatever dtype
            # the environments are contracted in
            net64 = build_network(h, tr, beta=2.0)
            envs = exact_envs(net)
            n = net.rows * net.cols
            # 16 branches, each with its own row of the right tables
            values = np.stack([rng.integers(1, net.dim_at(*net.site_of(k)) + 1,
                                            size=16) for k in range(1, n + 1)],
                              axis=1)
            above = np.arange(len(values))
            shift = rng.uniform(-4.0, 4.0, size=(len(values), 1))
            for k in range(1, n + 1):
                row, col = net.site_of(k)
                bottom = envs[row - 1]
                if col == 1:
                    left = np.ones((len(values), 1), dtype=net.dtype)
                    rights = right_tables(net, bottom, row, values)
                right, prefix = rights[col - 1], values[:, :k - 1]
                energy = step_energies(net, row, col, prefix)
                p, t = conditionals(net, bottom, row, col, left, right, above,
                                    energy)
                numerator = (np.einsum("bsc,bsc->bs", t, right[above])
                             .astype(np.float64)
                             * _weights_as_gathered(net64, row, col, prefix))
                reference = numerator / numerator.sum(axis=1, keepdims=True)
                assert p.dtype == np.float64
                assert np.all(np.abs(p - reference) <= 1e-14 * reference), (
                    tr.name, row, col)
                # a per-branch constant cancels in the normalization
                shifted, _ = conditionals(net, bottom, row, col, left, right,
                                          above, energy + shift)
                assert np.all(np.abs(shifted - p) <= 1e-14 * p), (
                    tr.name, row, col)
                # and so does one whose exp(-beta * energy) underflows:
                # each branch's largest factor is 1; the tolerance is the
                # rounding of energies near 1000
                far, _ = conditionals(net, bottom, row, col, left, right,
                                      above, energy + 1000.0)
                assert np.all(np.abs(far - p) <= 1e-11 * p), (
                    tr.name, row, col)
                left = t[above, values[:, k - 1] - 1]


class TestClusteredNetworks:
    def test_clustered_partition_function(self):
        g = IsingGraph(8, {(1, 2): -0.5, (3, 4): 0.25, (1, 3): 0.7,
                           (2, 5): -0.2, (5, 6): 0.4, (7, 8): -0.9,
                           (6, 7): 0.1, (2, 7): 0.3})
        h = cluster(g, ClusterTopology(2, 2, 2))
        for beta in (0.5, 2.0):
            net = build_network(h, beta=beta)
            assert network_z(net) == pytest.approx(brute_z(h, beta), rel=1e-9)


class TestContractNetwork:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.data(),
           st.integers(0, 7), st.floats(0.1, 4.0),
           st.sampled_from([(np.float64, 1e-9), (np.float32, 1e-4)]))
    def test_log_partition_matches_enumeration(self, rows, cols, data, code,
                                               beta, precision):
        dtype, rel = precision
        dims = data.draw(st.lists(st.integers(1, 4), min_size=rows * cols,
                                  max_size=rows * cols))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        h = ragged_potts(rows, cols, dims, seed)
        net = build_network(h, LatticeTransform(code), beta=beta, dtype=dtype)
        value, log_scale = contract_network(net)
        expected = exact_spectrum(h).log_partition(beta)
        assert value > 0
        assert math.log(value) + log_scale == pytest.approx(
            expected, rel=rel, abs=rel)
