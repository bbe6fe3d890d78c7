"""Dense MPS kernels behind the boundary contraction.

Conventions:

* an MPS site tensor has indices (left bond, physical, right bond);
* a site may be *carried*: its right bond then carries the site's own
  physical state x, the logical tensor ``(dl, d, d*r)`` is zero off
  ``x == xr``, and only its d diagonal blocks are stored, as ``(dl, d,
  r)``; the next site's left bond, ``d*r`` rather than ``r``, is the
  only record of that. A row product stores the columns whose upper
  state reaches the next column that way; every kernel here works on the
  blocks and never builds the zero-padded tensor. A state with no
  carried site is a plain MPS, and :func:`compress` always returns one;
* a :class:`BoundaryMps` represents ``(contraction of its tensors) *
  exp(log_scale)``. Keeping magnitudes in the log accumulator is what
  lets Boltzmann-weight chains with log-weights of several hundred pass
  through without overflowing;
* :func:`compress` reads its fidelity off the canonical centre; its
  docstring shows why the result ``c`` of input ``t`` has ``<c|t> = <c|c>``.

All operations are pure: inputs are never mutated.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateStateError, DimensionError, NumericError,
                     check_beta, check_count)

logger = logging.getLogger(__name__)

# Relative singular-value floor, applied on every truncation regardless
# of the bond-dimension cap. Keeps ranks honest and avoids carrying
# noise-level directions.
RANK_EPS = 1e-14


@dataclass(frozen=True)
class ContractionParams:
    """Knobs of the boundary contraction.

    Attributes:
        bond_dim: maximal virtual bond dimension kept after truncation.
        num_sweeps: rounds of single-site variational refinement run
            after the SVD truncation inside :func:`compress`, only when
            the truncation cut a bond.
        beta: inverse temperature of the Boltzmann weights.
    """

    bond_dim: int = 16
    num_sweeps: int = 1
    beta: float = 1.0

    def __post_init__(self):
        check_count("bond_dim", self.bond_dim, 1)
        check_count("num_sweeps", self.num_sweeps, 0)
        check_beta(self.beta)


class BoundaryMps:
    """Matrix-product state over one grid row, with a log scale factor.

    Site i is carried (see the module docstring) exactly when the next
    site's left bond is ``d_i`` times its stored right bond ``r``; a left
    bond other than ``r`` or ``d_i * r`` is a mismatch. ``carried`` and
    :attr:`bond_dims` are read off the shapes; at ``d_i = 1`` the two
    layouts hold the same numbers and the site counts as plain.
    """

    def __init__(self, tensors, log_scale: float = 0.0):
        tensors = [np.asarray(t) for t in tensors]
        if not tensors:
            raise DimensionError("an MPS needs at least one site")
        for t in tensors:
            if t.ndim != 3:
                raise DimensionError(f"site tensors must have 3 indices, got {t.shape}")
        if tensors[0].shape[0] != 1 or tensors[-1].shape[2] != 1:
            raise DimensionError("outer bonds must have extent 1")
        for left, right in zip(tensors, tensors[1:]):
            _, d, r = left.shape
            if right.shape[0] not in (r, d * r):
                raise DimensionError(
                    f"bond mismatch: {left.shape} next to {right.shape}")
        self.tensors = tensors
        self.carried = tuple(right.shape[0] != left.shape[2] for left, right
                             in zip(tensors, tensors[1:])) + (False,)
        self.log_scale = float(log_scale)

    @classmethod
    def ones(cls, phys_dims, dtype=np.float64) -> "BoundaryMps":
        """Product state of all-ones vectors (bond extents 1)."""
        return cls([np.ones((1, d, 1), dtype=dtype) for d in phys_dims])

    def __len__(self):
        return len(self.tensors)

    @property
    def phys_dims(self) -> tuple[int, ...]:
        return tuple(t.shape[1] for t in self.tensors)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        """Logical bond extents: the next sites' left bonds."""
        return tuple(t.shape[0] for t in self.tensors[1:])

    def __repr__(self):
        return (f"BoundaryMps(phys={self.phys_dims}, bonds={self.bond_dims}, "
                f"log_scale={self.log_scale:.3f})")


def svd_truncate(matrix, bond_dim: int):
    """Rank-revealing truncated SVD.

    Returns ``(U, S, V, discarded_weight)`` with ``U @ diag(S) @ V.T``
    the best approximation of the input with rank at most ``bond_dim``,
    singular values descending, and ``discarded_weight`` the sum of the
    squared discarded singular values. Singular values below
    ``RANK_EPS`` times the largest are always dropped.
    """
    if bond_dim < 1:
        raise DimensionError(f"bond_dim must be >= 1, got {bond_dim}")
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericError("matrix contains non-finite entries")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        keep = 1 if s.size else 0
    else:
        keep = int(np.count_nonzero(s > RANK_EPS * s[0]))
        keep = max(keep, 1)
    keep = min(keep, bond_dim)
    discarded = float(np.sum(s[keep:] ** 2))
    return u[:, :keep], s[:keep], vt[:keep].T, discarded


def _blocks(t, carried: bool):
    """Site tensor ``t`` as a stack ``(nb, rows, r)`` of its diagonal
    blocks: the d blocks ``t[:, x, :]`` of a carried site, or ``t`` as one
    ``(dl*d, r)`` block. A view, never a copy."""
    return t.transpose(1, 0, 2) if carried else t.reshape(1, -1, t.shape[2])


def _unblocks(b, dl: int, d: int):
    """Inverse of :func:`_blocks`: the ``(dl, d, r)`` site tensor (both
    layouts agree when ``d`` is 1)."""
    return b.transpose(1, 0, 2) if len(b) > 1 else b.reshape(dl, d, -1)


def left_canonicalize(mps: BoundaryMps) -> BoundaryMps:
    """QR sweep making every tensor a left isometry.

    A carried site is factored block by block (one batched QR over its
    d blocks), so it stays carried and its carry ``R`` stays block
    diagonal; the carry meets the next site's left bond as a batched
    matmul. The state's norm is folded into ``log_scale`` (a negative
    overall sign stays in the last tensor), so the stored chain has
    norm 1.
    """
    tensors = []
    carry = None
    for t, carried in zip(mps.tensors, mps.carried):
        if carry is not None:
            t = _times_left(carry, t)
        dl, d, _ = t.shape
        q, carry = np.linalg.qr(_blocks(t, carried))
        tensors.append(_unblocks(q, dl, d))
    scale = float(carry[0, 0, 0])
    if scale == 0.0:
        raise DegenerateStateError("cannot canonicalize a zero-norm state")
    if scale < 0:
        tensors[-1] = -tensors[-1]
    return BoundaryMps(tensors, mps.log_scale + math.log(abs(scale)))


def _fold_center(tensors, log_scale, index):
    mx = np.max(np.abs(tensors[index]))
    if mx == 0.0:
        raise DegenerateStateError("state collapsed to zero during compression")
    tensors[index] = tensors[index] / mx
    return log_scale + math.log(mx)


def _times_left(m, t):
    """``m`` contracted into the left bond of site tensor ``t``. A stack
    ``(nb, k, r)`` acts block-diagonally: block x meets the left-bond
    entries ``x*r .. (x+1)*r``."""
    _, d, dr = t.shape
    m = m.reshape((-1,) + m.shape[-2:])
    return (m @ t.reshape(len(m), -1, d * dr)).reshape(-1, d, dr)


def _times_right(t, m):
    """Site tensor ``t``'s logical right bond contracted into ``m``. If
    ``m`` has ``d*r`` rows, not r, block x meets rows ``x*r .. (x+1)*r``."""
    dl, d, r = t.shape
    b = _blocks(t, len(m) != r)
    return _unblocks(b @ m.reshape(len(b), r, -1), dl, d)


def _truncate_right_sweep(mps: BoundaryMps, bond_dim: int):
    """SVD-truncate a left-canonical state, sweeping right to left.

    Each step multiplies ``u*s`` into the right bond of the site to its
    left, block by block where that site is carried, so the result has
    no carried site. Returns that right-canonical state (orthogonality
    center at site 0) and the discarded weight summed over the SVDs; at
    exactly 0 the state is the input up to rounding.
    """
    tensors = [t for t in mps.tensors]
    discarded = 0.0
    for i in range(len(tensors) - 1, 0, -1):
        dl, d, dr = tensors[i].shape
        u, s, v, weight = svd_truncate(tensors[i].reshape(dl, d * dr),
                                       bond_dim)
        discarded += weight
        tensors[i] = v.T.reshape(s.size, d, dr)
        tensors[i - 1] = _times_right(tensors[i - 1], u * s)
    log_scale = _fold_center(tensors, mps.log_scale, 0)
    return BoundaryMps(tensors, log_scale), discarded


def _variational_sweep(state: BoundaryMps, target: BoundaryMps) -> BoundaryMps:
    """One left-right-left round of single-site overlap maximization.

    ``state`` must be right-canonical; the result is right-canonical
    again and represents the best local approximation of ``target`` on
    the current bond dimensions. Every local update maximizes the
    normalized overlap, so sweeps never decrease the fidelity. Chains meet
    each (large) target tensor at an outer leg first, so it is never
    copied, and a carried target site is contracted block by block.
    """
    length = len(state)
    cs = [t for t in state.tensors]
    ts, carried = target.tensors, target.carried

    # renv[i][p, a]: sites i.. of the state against the target's, by
    # their left bonds p and a
    renv = [None] * (length + 1)
    renv[length] = np.ones((1, 1), dtype=ts[0].dtype)
    for i in range(length - 1, 0, -1):
        x = _times_right(ts[i], renv[i + 1].T)
        renv[i] = cs[i].reshape(len(cs[i]), -1) @ x.reshape(len(x), -1).T

    lenv = [None] * (length + 1)
    lenv[0] = np.ones((1, 1), dtype=ts[0].dtype)
    for i in range(length - 1):  # the backward pass starts at the last site
        y = _times_left(lenv[i], ts[i])
        t = _times_right(y, renv[i + 1].T)
        dl, d, dr = t.shape
        q, _ = np.linalg.qr(t.reshape(dl * d, dr))
        cs[i] = q.reshape(dl, d, q.shape[1])
        # lenv[i + 1][k, (x, j)] sums q[p, x, k] y[p, x, j] over p, per block
        qy = (_blocks(cs[i], carried[i]).transpose(0, 2, 1)
              @ _blocks(y, carried[i]))
        lenv[i + 1] = qy.transpose(1, 0, 2).reshape(q.shape[1], -1)

    right = np.ones((1, 1), dtype=ts[0].dtype)
    for i in range(length - 1, 0, -1):
        x = _times_right(ts[i], right.T)
        t = _times_left(lenv[i], x)
        dl, d, dr = t.shape
        q, _ = np.linalg.qr(t.reshape(dl, d * dr).T)
        cs[i] = q.T.reshape(q.shape[1], d, dr)
        right = q.T @ x.reshape(len(x), -1).T
    cs[0] = _times_right(ts[0], right.T)  # lenv[0] is [[1]]

    log_scale = _fold_center(cs, target.log_scale, 0)
    return BoundaryMps(cs, log_scale)


def compress(mps: BoundaryMps, params: ContractionParams):
    """Truncate a state to the configured bond dimension.

    Pipeline: left-canonicalize, SVD-truncate every bond to
    ``params.bond_dim`` (right to left), then, only if some bond was
    cut, run ``params.num_sweeps`` rounds of single-site variational
    refinement against the input. Carried sites of the input are
    canonicalized and swept block by block, never expanded; the result
    is a plain MPS. The norm is folded into ``log_scale`` so site
    tensors stay O(1).

    The truncation and every sweep leave ``c = P t``, with ``P`` the
    orthogonal projector onto the right isometries at sites 1..n-1 and
    the centre at site 0 holding the coefficients. Hence ``<c|t> =
    <Pt|Pt> = <c|c>`` and the fidelity is ``|c|^2 / |t|^2``: the centre's
    norm against the input norm that :func:`left_canonicalize` yields.

    Skip rule: when the discarded weight summed over the SVDs is
    exactly 0, ``P`` is the identity on the range of ``t``, so ``c = t``
    already and a sweep could only add rounding. The sweeps are then
    skipped and a DEBUG line says so; otherwise a DEBUG line reports the
    sweeps run. A nonzero value dropped only by the ``RANK_EPS`` floor
    counts as a cut: at high beta the sweep after such a drop still
    moves log-probabilities by about 1e-10.

    Returns:
        ``(compressed, fidelity)`` where fidelity is the normalized
        squared overlap with the input (1 for a lossless compression).

    Raises:
        DegenerateStateError: the input represents the zero vector.
    """
    canonical = left_canonicalize(mps)
    state, discarded = _truncate_right_sweep(canonical, params.bond_dim)
    if discarded == 0.0:
        logger.debug("compress: every bond kept whole, %d sweep(s) skipped",
                     params.num_sweeps)
    else:
        logger.debug("compress: a bond was cut, %d sweep(s) run",
                     params.num_sweeps)
        for _ in range(params.num_sweeps):
            state = _variational_sweep(state, mps)
    log_norm = math.log(np.linalg.norm(state.tensors[0])) + state.log_scale
    return state, math.exp(2.0 * (log_norm - canonical.log_scale))


def overlap(a: BoundaryMps, b: BoundaryMps):
    """Inner product of two states.

    Returns:
        ``(value, log_scale)`` with the inner product equal to
        ``value * exp(log_scale)``; ``log_scale`` combines both states'
        accumulators plus the ladder normalization.
    """
    if len(a) != len(b) or a.phys_dims != b.phys_dims:
        raise DimensionError(
            f"cannot overlap states with dims {a.phys_dims} and {b.phys_dims}")
    v = np.ones((1, 1), dtype=np.result_type(a.tensors[0], b.tensors[0]))
    log_scale = a.log_scale + b.log_scale
    for ta, tb in zip(a.tensors, b.tensors):
        v = np.tensordot(ta, np.tensordot(v, tb, axes=(1, 0)),
                         axes=([0, 1], [0, 1]))
        mx = np.max(np.abs(v))
        if mx == 0.0:
            return 0.0, log_scale
        if not np.isfinite(mx):
            raise NumericError("overlap overflowed despite scaling")
        v = v / mx
        log_scale += math.log(mx)
    return float(v[0, 0]), log_scale
