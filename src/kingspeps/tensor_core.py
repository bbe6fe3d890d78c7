"""Dense MPS kernels behind the boundary contraction.

Conventions:

* an MPS site tensor has indices (left bond, physical, right bond);
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

from .errors import (DegenerateStateError, DimensionError, NumericError)

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
        if self.bond_dim < 1:
            raise DimensionError(f"bond_dim must be >= 1, got {self.bond_dim}")
        if self.num_sweeps < 0:
            raise DimensionError(f"num_sweeps must be >= 0, got {self.num_sweeps}")
        if not self.beta > 0:
            raise NumericError(f"beta must be positive, got {self.beta}")


class BoundaryMps:
    """Matrix-product state over one grid row, with a log scale factor."""

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
            if left.shape[2] != right.shape[0]:
                raise DimensionError(
                    f"bond mismatch: {left.shape} next to {right.shape}")
        self.tensors = tensors
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
        return tuple(t.shape[2] for t in self.tensors[:-1])

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


def left_canonicalize(mps: BoundaryMps) -> BoundaryMps:
    """QR sweep making every tensor a left isometry.

    The state's norm is folded into ``log_scale`` (a negative overall
    sign stays in the last tensor), so the stored chain has norm 1.
    """
    tensors = []
    carry = None
    for t in mps.tensors:
        if carry is not None:
            t = _times_left(carry, t)
        dl, d, dr = t.shape
        q, r = np.linalg.qr(t.reshape(dl * d, dr))
        tensors.append(q.reshape(dl, d, q.shape[1]))
        carry = r
    scale = float(carry[0, 0])
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
    """``m`` contracted into the left bond of site tensor ``t``."""
    dl, d, dr = t.shape
    return (m @ t.reshape(dl, d * dr)).reshape(m.shape[0], d, dr)


def _times_right(t, m):
    """Site tensor ``t``'s right bond contracted into ``m``."""
    dl, d, dr = t.shape
    return (t.reshape(dl * d, dr) @ m).reshape(dl, d, m.shape[1])


def _truncate_right_sweep(mps: BoundaryMps, bond_dim: int):
    """SVD-truncate a left-canonical state, sweeping right to left.

    Returns a right-canonical state (orthogonality center at site 0),
    the total discarded singular weight, and whether every bond kept
    all its singular values (each SVD's rank equal to its matrix's
    smaller side), in which case the state is the input up to rounding.
    """
    tensors = [t for t in mps.tensors]
    discarded = 0.0
    exact = True
    for i in range(len(tensors) - 1, 0, -1):
        dl, d, dr = tensors[i].shape
        u, s, v, dw = svd_truncate(tensors[i].reshape(dl, d * dr), bond_dim)
        k = s.size
        exact = exact and k == min(dl, d * dr)
        tensors[i] = v.T.reshape(k, d, dr)
        tensors[i - 1] = _times_right(tensors[i - 1], u * s)
        discarded += dw
    log_scale = _fold_center(tensors, mps.log_scale, 0)
    return BoundaryMps(tensors, log_scale), discarded, exact


def _variational_sweep(state: BoundaryMps, target: BoundaryMps) -> BoundaryMps:
    """One left-right-left round of single-site overlap maximization.

    ``state`` must be right-canonical; the result is right-canonical
    again and represents the best local approximation of ``target`` on
    the current bond dimensions. Every local update maximizes the
    normalized overlap, so sweeps never decrease the fidelity. Chains meet
    each (large) target tensor at an outer leg first, so it is never copied.
    """
    length = len(state)
    cs = [t for t in state.tensors]
    ts = target.tensors

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
        lenv[i + 1] = q.T @ y.reshape(dl * d, -1)

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
    refinement against the input. The norm is folded into ``log_scale``
    so site tensors stay O(1).

    The truncation and every sweep leave ``c = P t``, with ``P`` the
    orthogonal projector onto the right isometries at sites 1..n-1 and
    the centre at site 0 holding the coefficients. Hence ``<c|t> =
    <Pt|Pt> = <c|c>`` and the fidelity is ``|c|^2 / |t|^2``: the centre's
    norm against the input norm that :func:`left_canonicalize` yields.

    Skip rule: when every SVD kept all its singular values (rank equal
    to the smaller side of its matrix), ``P`` is the identity on the
    range of ``t``, so ``c = t`` already and a sweep could only add
    rounding. The sweeps are then skipped and a DEBUG line says so;
    otherwise a DEBUG line reports the sweeps run.

    Returns:
        ``(compressed, fidelity)`` where fidelity is the normalized
        squared overlap with the input (1 for a lossless compression).

    Raises:
        DegenerateStateError: the input represents the zero vector.
    """
    canonical = left_canonicalize(mps)
    state, _, exact = _truncate_right_sweep(canonical, params.bond_dim)
    if exact:
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
