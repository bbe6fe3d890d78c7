"""MPS kernels: truncation, canonical form, compression, overlaps."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kingspeps.tensor_core as tensor_core
from kingspeps import ContractionParams
from kingspeps.tensor_core import (BoundaryMps, compress, left_canonicalize,
                                   overlap, svd_truncate)
from kingspeps.errors import (DegenerateStateError, DimensionError,
                              NumericError)
from conftest import (assert_raises_exactly, dense_mps_vector, expanded,
                      normalize_scale, random_boundary_mps)


class TestSvdTruncate:
    def test_rank_one_exact(self):
        u = np.array([1.0, 2.0, -1.0])
        v = np.array([0.5, 1.5])
        m = np.outer(u, v)
        uu, ss, vv, dw = svd_truncate(m, 1)
        assert dw == pytest.approx(0.0, abs=1e-24)
        assert np.allclose(uu @ np.diag(ss) @ vv.T, m, atol=1e-12)

    def test_identity_chi2(self):
        _, s, _, dw = svd_truncate(np.eye(4), 2)
        assert s.shape == (2,)
        assert dw == pytest.approx(2.0)

    def test_no_truncation_reconstructs(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 8))
        u, s, v, dw = svd_truncate(m, 8)
        assert np.max(np.abs(u @ np.diag(s) @ v.T - m)) <= 1e-10

    def test_singular_values_descending(self):
        rng = np.random.default_rng(4)
        _, s, _, _ = svd_truncate(rng.standard_normal((6, 9)), 6)
        assert np.all(np.diff(s) <= 0)
        assert np.all(s >= 0)

    def test_nonfinite_rejected(self):
        m = np.array([[1.0, np.inf], [0.0, 1.0]])
        with pytest.raises(NumericError):
            svd_truncate(m, 2)

    def test_eckart_young(self):
        # reconstruction error squared equals the discarded weight
        rng = np.random.default_rng(7)
        for _ in range(200):
            rows, cols = rng.integers(2, 12, size=2)
            chi = int(rng.integers(1, 6))
            m = rng.standard_normal((rows, cols))
            u, s, v, dw = svd_truncate(m, chi)
            err = np.linalg.norm(m - u @ np.diag(s) @ v.T, "fro") ** 2
            assert err == pytest.approx(dw, rel=1e-10, abs=1e-10)


class TestCanonicalForm:
    def test_left_isometries(self):
        mps = random_boundary_mps([2, 3, 2, 3], 5, seed=0)
        canon = left_canonicalize(mps)
        for t in canon.tensors:
            dl, d, dr = t.shape
            m = t.reshape(dl * d, dr)
            assert np.max(np.abs(m.T @ m - np.eye(dr))) <= 1e-10

    def test_prefix_contractions_identity(self):
        mps = random_boundary_mps([2, 2, 2, 2, 2], 4, seed=1)
        canon = left_canonicalize(mps)
        env = np.ones((1, 1))
        for t in canon.tensors:
            env = np.einsum("ab,adc,bdf->cf", env, t, t)
            assert np.max(np.abs(env - np.eye(env.shape[0]))) <= 1e-10

    def test_vector_preserved(self):
        mps = random_boundary_mps([3, 2, 3], 4, seed=2)
        before = dense_mps_vector(mps)
        after = dense_mps_vector(left_canonicalize(mps))
        assert np.allclose(after, before, rtol=1e-12, atol=1e-12)

    def test_zero_state_rejected(self):
        mps = BoundaryMps([np.zeros((1, 2, 1))])
        with pytest.raises(DegenerateStateError):
            left_canonicalize(mps)


class TestCompress:
    def test_lossless_without_sweeps(self):
        mps = random_boundary_mps([2, 3, 2, 2], 4, seed=10)
        out, fid = compress(mps, ContractionParams(bond_dim=24, num_sweeps=0))
        ref = dense_mps_vector(mps)
        assert np.allclose(dense_mps_vector(out), ref,
                           rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))
        assert fid == pytest.approx(1.0, abs=1e-12)

    def test_exact_rank_two(self):
        base = random_boundary_mps([2, 2, 2, 2], 2, seed=11)
        padded = []
        for i, t in enumerate(base.tensors):
            dl = 1 if i == 0 else 4
            dr = 1 if i == len(base.tensors) - 1 else 4
            big = np.zeros((dl, t.shape[1], dr))
            big[:t.shape[0], :, :t.shape[2]] = t
            padded.append(big)
        inflated = BoundaryMps(padded)
        out, fid = compress(inflated, ContractionParams(bond_dim=2, num_sweeps=0))
        assert fid == pytest.approx(1.0, abs=1e-10)
        assert max(out.bond_dims) <= 2

    def test_bonds_capped(self):
        mps = random_boundary_mps([3, 3, 3, 3, 3], 9, seed=12)
        out, _ = compress(mps, ContractionParams(bond_dim=4, num_sweeps=2))
        assert max(out.bond_dims) <= 4

    def test_sweeps_monotone_fidelity(self):
        for seed in range(6):
            mps = random_boundary_mps([2, 3, 2, 3, 2, 2][:4 + seed % 3], 6,
                                      seed=100 + seed)
            fids = [compress(mps, ContractionParams(bond_dim=2, num_sweeps=k))[1]
                    for k in range(4)]
            for a, b in zip(fids, fids[1:]):
                assert b >= a - 1e-12

    def test_fidelity_agrees_with_dense_overlap(self):
        mps = random_boundary_mps([2, 3, 2, 2], 5, seed=14)
        out, fid = compress(mps, ContractionParams(bond_dim=2, num_sweeps=2))
        a = dense_mps_vector(out)
        b = dense_mps_vector(mps)
        dense_fid = float(np.dot(a, b)) ** 2 / (np.dot(a, a) * np.dot(b, b))
        assert fid == pytest.approx(dense_fid, rel=1e-10)

    def test_zero_state_rejected(self):
        mps = BoundaryMps([np.zeros((1, 2, 2)), np.zeros((2, 2, 1))])
        with pytest.raises(DegenerateStateError):
            compress(mps, ContractionParams(bond_dim=2))

    @pytest.mark.parametrize("dtype,rel", [(np.float64, 1e-10),
                                           (np.float32, 1e-5)])
    @pytest.mark.parametrize("num_sweeps", [0, 1, 2, 3])
    def test_fidelity_needs_no_overlap(self, monkeypatch, dtype, rel,
                                       num_sweeps):
        # the fidelity is read off the canonical centre, never contracted
        def forbidden(*args):
            raise AssertionError("compress called overlap")

        monkeypatch.setattr("kingspeps.tensor_core.overlap", forbidden)
        for seed, dims in enumerate(([2, 3, 4, 2, 3], [4, 2, 3],
                                     [3, 2, 2, 4, 2, 3], [5, 2])):
            mps = random_boundary_mps(dims, 6, seed=400 + seed, dtype=dtype)
            out, fid = compress(mps, ContractionParams(bond_dim=3,
                                                       num_sweeps=num_sweeps))
            assert out.tensors[0].dtype == dtype
            c = dense_mps_vector(out).astype(np.float64)
            t = dense_mps_vector(mps).astype(np.float64)
            dense_fid = np.dot(c, t) ** 2 / (np.dot(c, c) * np.dot(t, t))
            assert fid == pytest.approx(dense_fid, rel=rel)

    def test_sweep_recovers_from_truncation(self):
        mps = random_boundary_mps([2, 2, 2, 2, 2, 2], 8, seed=13)
        f0 = compress(mps, ContractionParams(bond_dim=3, num_sweeps=0))[1]
        f3 = compress(mps, ContractionParams(bond_dim=3, num_sweeps=3))[1]
        assert f3 >= f0 - 1e-12


def count_sweeps(monkeypatch):
    """Counter of :func:`compress`'s variational sweeps."""
    calls = []
    sweep = tensor_core._variational_sweep

    def counted(state, target):
        calls.append(1)
        return sweep(state, target)

    monkeypatch.setattr(tensor_core, "_variational_sweep", counted)
    return calls


def schmidt_ranks(mps):
    """Exact rank of the state's vector across each bond.

    The numerical rank of the dense vector can count rounding noise as a
    singular value (about 1e-15 relative, just above ``matrix_rank``'s
    default tolerance), so it is capped by the rank the shapes allow:
    across bond i at most ``min(left_i, right_i)``, where ``left_i =
    min(r_i, d_i * left_{i-1})`` chains the bonds and physical
    dimensions from the left and ``right_i`` likewise from the right.
    """
    vec = dense_mps_vector(mps)
    dims = mps.phys_dims
    left, bound = 1, []
    for t in mps.tensors[:-1]:
        left = min(t.shape[2], left * t.shape[1])
        bound.append(left)
    right = 1
    for i in range(len(dims) - 1, 0, -1):
        t = mps.tensors[i]
        right = min(t.shape[0], right * t.shape[1])
        bound[i - 1] = min(bound[i - 1], right)
    return [min(np.linalg.matrix_rank(vec.reshape(math.prod(dims[:i]), -1)),
                bound[i - 1])
            for i in range(1, len(dims))]


class TestSweepSkip:
    @pytest.mark.parametrize("num_sweeps", [1, 3])
    def test_no_sweep_when_bond_cap_covers_rank(self, monkeypatch,
                                                num_sweeps):
        calls = count_sweeps(monkeypatch)
        mps = random_boundary_mps([2, 3, 2, 4, 2], 5, seed=30)
        assert max(schmidt_ranks(mps)) == 5
        for bond_dim in (5, 6, 100):
            out, fid = compress(mps, ContractionParams(bond_dim=bond_dim,
                                                       num_sweeps=num_sweeps))
            ref = dense_mps_vector(mps)
            assert np.allclose(dense_mps_vector(out), ref, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(ref)))
            assert fid == pytest.approx(1.0, abs=1e-12)
        assert calls == []

    @pytest.mark.parametrize("num_sweeps", [0, 1, 3])
    def test_num_sweeps_when_a_bond_is_cut(self, monkeypatch, num_sweeps):
        calls = count_sweeps(monkeypatch)
        mps = random_boundary_mps([2, 3, 2, 4, 2], 5, seed=30)
        _, fid = compress(mps, ContractionParams(bond_dim=4,
                                                 num_sweeps=num_sweeps))
        assert len(calls) == num_sweeps
        assert fid < 1.0

    def test_logs_whether_sweeps_ran(self, caplog):
        mps = random_boundary_mps([2, 3, 2], 3, seed=31)
        with caplog.at_level(logging.DEBUG, logger="kingspeps.tensor_core"):
            compress(mps, ContractionParams(bond_dim=8, num_sweeps=2))
            compress(mps, ContractionParams(bond_dim=1, num_sweeps=2))
        assert [r.getMessage() for r in caplog.records] == [
            "compress: every bond kept whole, 2 sweep(s) skipped",
            "compress: a bond was cut, 2 sweep(s) run"]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=2, max_size=5), st.data(),
           st.integers(1, 8), st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
    def test_sweeps_run_exactly_when_rank_exceeds_cap(self, dims, data,
                                                      bond_dim, num_sweeps,
                                                      seed):
        bonds = data.draw(st.lists(st.integers(1, 5), min_size=len(dims) - 1,
                                   max_size=len(dims) - 1))
        rng = np.random.default_rng(seed)
        shapes = zip([1] + bonds, dims, bonds + [1])
        mps = BoundaryMps([rng.standard_normal(shape) for shape in shapes])
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = count_sweeps(monkeypatch)
            out, fid = compress(mps, ContractionParams(bond_dim=bond_dim,
                                                       num_sweeps=num_sweeps))
        if bond_dim >= max(schmidt_ranks(mps)):
            assert calls == []
            assert fid == pytest.approx(1.0, abs=1e-10)
            ref = dense_mps_vector(mps)
            assert np.allclose(dense_mps_vector(out), ref, rtol=1e-10,
                               atol=1e-10 * np.max(np.abs(ref)))
        else:
            assert len(calls) == num_sweeps
        assert max(out.bond_dims, default=1) <= bond_dim


def random_carried_mps(phys_dims, carried, bond_dim, seed):
    """Random state whose carried sites hold ``(dl, d, bond_dim)`` blocks
    behind a logical right bond ``d * bond_dim``."""
    rng = np.random.default_rng(seed)
    tensors, dl = [], 1
    for i, (d, c) in enumerate(zip(phys_dims, carried)):
        r = 1 if i == len(phys_dims) - 1 else bond_dim
        tensors.append(rng.standard_normal((dl, d, r)))
        dl = r * (d if c else 1)
    return BoundaryMps(tensors, 0.5)


class TestCarriedSites:
    """States stored as diagonal blocks against their dense expansion."""

    DIMS = [2, 3, 1, 4, 2]
    CARRIED = [True, True, True, False, False]

    def test_bond_dims_are_logical(self):
        mps = random_carried_mps(self.DIMS, self.CARRIED, 3, seed=40)
        assert mps.bond_dims == (6, 9, 3, 3)
        assert expanded(mps).bond_dims == mps.bond_dims

    def test_left_canonicalize_keeps_blocks(self):
        mps = random_carried_mps(self.DIMS, self.CARRIED, 3, seed=41)
        canon = left_canonicalize(mps)
        assert canon.carried == mps.carried
        for t in expanded(canon).tensors:
            dl, d, dr = t.shape
            m = t.reshape(dl * d, dr)
            assert np.max(np.abs(m.T @ m - np.eye(dr))) <= 1e-10
        assert np.allclose(dense_mps_vector(canon), dense_mps_vector(mps),
                           rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("bond_dim,num_sweeps", [(100, 1), (4, 0), (4, 2),
                                                     (1, 3)])
    def test_compress_matches_expansion(self, bond_dim, num_sweeps):
        mps = random_carried_mps(self.DIMS, self.CARRIED, 3, seed=42)
        params = ContractionParams(bond_dim=bond_dim, num_sweeps=num_sweeps)
        got, fid = compress(mps, params)
        want, want_fid = compress(expanded(mps), params)
        assert not any(got.carried) and got.bond_dims == want.bond_dims
        assert fid == pytest.approx(want_fid, rel=1e-10)
        a, b = dense_mps_vector(got), dense_mps_vector(want)
        assert np.allclose(a, b, rtol=1e-9, atol=1e-9 * np.max(np.abs(b)))


class TestOverlap:
    def test_normalized_product_state(self):
        t = np.array([0.6, 0.8]).reshape(1, 2, 1)
        a = BoundaryMps([t, t], log_scale=1.5)
        b = BoundaryMps([t, t], log_scale=0.25)
        value, log_scale = overlap(a, b)
        assert value == pytest.approx(1.0)
        assert log_scale == pytest.approx(1.75)

    def test_orthogonal_states(self):
        up = BoundaryMps([np.array([1.0, 0.0]).reshape(1, 2, 1)])
        down = BoundaryMps([np.array([0.0, 1.0]).reshape(1, 2, 1)])
        value, _ = overlap(up, down)
        assert value == 0.0

    def test_matches_dense(self):
        for seed in range(5):
            a = random_boundary_mps([2, 3, 2, 2], 3, seed=200 + seed)
            b = random_boundary_mps([2, 3, 2, 2], 4, seed=300 + seed)
            value, log_scale = overlap(a, b)
            dense = float(np.dot(dense_mps_vector(a), dense_mps_vector(b)))
            assert value * math.exp(log_scale) == pytest.approx(dense, rel=1e-10)

    def test_matches_dense_ragged_unequal_bonds(self):
        for seed, (dims, bond_a, bond_b) in enumerate((
                ([4, 2, 3, 5, 2], 2, 7), ([3, 5, 2], 6, 1), ([5], 1, 1),
                ([2, 4, 3, 2, 3, 2], 5, 3))):
            a = random_boundary_mps(dims, bond_a, seed=500 + seed)
            b = random_boundary_mps(dims, bond_b, seed=600 + seed)
            b.log_scale = -3.0
            va, vb = dense_mps_vector(a), dense_mps_vector(b)
            for x, y, dense in ((a, b, np.dot(va, vb)), (b, a, np.dot(va, vb)),
                                (a, a, np.dot(va, va))):
                value, log_scale = overlap(x, y)
                assert value * math.exp(log_scale) == pytest.approx(
                    float(dense), rel=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            overlap(BoundaryMps.ones([2, 2]), BoundaryMps.ones([2, 3]))


class TestLogScaleRobustness:
    def test_large_weight_chain_stays_finite(self):
        # repeated application of a uniformly heavy operator: the raw
        # chain would reach exp(~700) but the accumulator absorbs it
        def heavy(mps):
            # every output state gets exp(5) times the sum over input states
            return normalize_scale(BoundaryMps(
                [np.repeat(math.exp(5.0) * t.sum(axis=1, keepdims=True),
                           t.shape[1], axis=1) for t in mps.tensors],
                mps.log_scale))

        mps = BoundaryMps.ones([2, 2, 2])
        params = ContractionParams(bond_dim=4, num_sweeps=0)
        for _ in range(70):
            mps, _ = compress(heavy(mps), params)
        assert all(np.all(np.isfinite(t)) for t in mps.tensors)
        assert mps.log_scale > 600
        value, log_scale = overlap(mps, mps)
        assert math.isfinite(value) and math.isfinite(log_scale)

    def test_normalize_scale_preserves_vector(self):
        mps = random_boundary_mps([2, 2], 2, seed=42)
        scaled = BoundaryMps([t * 1e8 for t in mps.tensors], mps.log_scale)
        normalized = normalize_scale(scaled)
        assert np.allclose(dense_mps_vector(normalized),
                           dense_mps_vector(scaled), rtol=1e-12)
        assert all(np.max(np.abs(t)) <= 1.0 + 1e-12 for t in normalized.tensors)


class TestParams:
    @pytest.mark.parametrize("field, value", [
        ("bond_dim", 2.5), ("bond_dim", math.nan), ("bond_dim", "16"),
        ("num_sweeps", 1.5), ("num_sweeps", math.inf)])
    def test_non_integral_count_rejected(self, field, value):
        with pytest.raises(DimensionError, match=f"{field} must be an integer"):
            ContractionParams(**{field: value})
        assert getattr(ContractionParams(**{field: np.int64(3)}), field) == 3

    def test_validation(self):
        with pytest.raises(DimensionError):
            ContractionParams(bond_dim=0)
        with pytest.raises(DimensionError):
            ContractionParams(num_sweeps=-1)
        with pytest.raises(NumericError):
            ContractionParams(beta=0.0)

    @pytest.mark.parametrize("beta", [math.inf, math.nan, -math.inf])
    def test_non_finite_beta(self, beta):
        with pytest.raises(NumericError, match="positive and finite"):
            ContractionParams(beta=beta)


@pytest.mark.parametrize("call, message", [
    (lambda: BoundaryMps([]), "an MPS needs at least one site"),
    (lambda: BoundaryMps([np.ones((1, 2))]),
     "site tensors must have 3 indices, got (1, 2)"),
    (lambda: BoundaryMps([np.ones((2, 2, 1))]), "outer bonds must have extent 1"),
    (lambda: BoundaryMps([np.ones((1, 2, 3)), np.ones((4, 2, 1))]),
     "bond mismatch: (1, 2, 3) next to (4, 2, 1)"),
    (lambda: svd_truncate(np.eye(2), 0), "bond_dim must be >= 1, got 0"),
    (lambda: svd_truncate(np.ones(3), 2), "expected a matrix, got shape (3,)"),
])
def test_shape_rejection_class_and_message(call, message):
    assert_raises_exactly(call, DimensionError, message)
