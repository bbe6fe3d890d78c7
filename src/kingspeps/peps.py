"""Boltzmann-weight tensor network of a grid model and its contraction.

The network works in a *transformed frame*: one of the eight dihedral
symmetries of the grid is applied up front, and all sweeping happens
top-to-bottom, left-to-right in the transformed coordinates, one
permutation of the grid's positions (:meth:`LatticeTransform.grid`).
Running the same search under several transforms probes different
contraction orders of the same model.

Interaction bookkeeping uses the backward star of each site: every
king edge is stored once, on its row-major-later endpoint (r, c), under
the direction that points back to the earlier endpoint: "w" (r, c-1),
"nw" (r-1, c-1), "n" (r-1, c) or "ne" (r-1, c+1). A :class:`Frame`
reads the model's tables in that layout through position-indexed int
arrays. The environment kernels, :func:`row_product` (built from one
weight table per column) and :func:`right_tables`, read the weight
tables; a search step reads the energy tables once, in
:func:`step_energies`, for its energy increments and local factors.

A solve contracts the lower half once: :func:`bottom_environments`
returns one boundary MPS per row, a plain list that every conditional
of the search reads. The contraction parameters set its bond cap and
sweeps; ``params.beta`` is unused there, because the network already
holds the Boltzmann weights. A row's product stores each column whose
right bond carries the upper state as its diagonal blocks (a carried
site of :class:`~kingspeps.tensor_core.BoundaryMps`), so it never holds
the zero-padded tensor, and :func:`compress` works on those blocks.
:func:`contract_network` finishes the contraction with the product of
row 1 under a one-state row 0, which has no carried column.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (SIZE_GUARD, ContractionDegenerateError, DimensionError,
                     InvalidIndexError, NumericError, TooLargeError,
                     UnsupportedError, check_beta, is_integer)
from .potts import PottsHamiltonian, _integer_states
from .tensor_core import BoundaryMps, ContractionParams, compress
from .tensor_core import overlap as mps_overlap

logger = logging.getLogger(__name__)

_TRANSFORM_NAMES = ("r0", "r90", "r180", "r270", "r0f", "r90f", "r180f", "r270f")


@dataclass(frozen=True)
class LatticeTransform:
    """One of the eight dihedral symmetries of the grid.

    Codes 4..7 reverse the columns; then ``code % 4`` counts clockwise
    quarter turns. Code 1 sends site ``(r, c)`` of an ``m x n`` grid to
    ``(c, m + 1 - r)``, code 4 sends it to ``(r, n + 1 - c)``. Together
    the eight transforms form the symmetry group of the square.
    """

    code: int = 0

    def __post_init__(self):
        if not (is_integer(self.code) and 0 <= self.code <= 7):
            raise InvalidIndexError(f"transform code must be 0..7, got {self.code}")

    @property
    def name(self) -> str:
        return _TRANSFORM_NAMES[self.code]

    def grid(self, dims) -> np.ndarray:
        """The transformed grid of an ``m x n`` grid: entry ``(r-1, c-1)``
        holds the 0-based row-major position, in the original grid, of
        the site that lands at ``(r, c)``. Its shape is ``(n, m)`` after
        an odd number of turns. The grids of r0f, r90f, r180f and r270f
        are those of r0, r270, r180 and r90 with their columns reversed."""
        m, n = dims
        g = np.arange(m * n, dtype=np.intp).reshape(m, n)
        if self.code >= 4:
            g = g[:, ::-1]
        return np.rot90(g, -(self.code % 4))


ALL_TRANSFORMS = tuple(LatticeTransform(code) for code in range(8))


def _reach(shape) -> np.ndarray:
    """For each 0-based row-major position p of an ``m x n`` grid, the
    largest position among its later king neighbours, -1 if it has none:
    p, plus n where a row follows, plus 1 where a column follows."""
    m, n = shape
    reach = np.arange(m * n, dtype=np.intp).reshape(m, n)
    reach[:-1] += n
    reach[:, :-1] += 1
    reach[-1, -1] = -1
    return reach.reshape(-1)


_BACK_OFFSETS = {"w": (0, -1), "nw": (-1, -1), "n": (-1, 0), "ne": (-1, 1)}
_BACK = {name: (k, *offset) for k, (name, offset) in
         enumerate(_BACK_OFFSETS.items())}

# the most bytes building a frame holds at once: a position's ten int
# arrays (four of them edge offsets, two temporaries) and four flip
# flags, an edge's four int temporaries and three flags
_POSITION_BYTES = 10 * np.dtype(np.intp).itemsize + 4
_EDGE_BYTES = 4 * np.dtype(np.intp).itemsize + 3


class Frame:
    """A model's tables in a transformed frame, read through int arrays.

    The arrays are indexed by the 0-based row-major position p in the
    transformed grid (:meth:`LatticeTransform.grid`), built with numpy
    from the model's flat buffer ``energy`` (:meth:`~kingspeps.potts.
    PottsHamiltonian._energy_terms`): ``position_map[p]`` is the site's
    original position, ``dim_grid`` (``rows x cols``) its dimension,
    ``reach[p]`` its largest later king neighbour (:func:`_reach`),
    ``node[p]`` the offset of its node table, ``edge[p, k]`` that of its
    back edge in direction k (w, nw, n, ne) or -1, and ``flip[p, k]``
    whether that table is stored (own state, neighbour's state).
    TooLargeError, naming ``what``, if building would hold more than the
    size guard's 128 MiB: ``_POSITION_BYTES`` a position, ``_EDGE_BYTES``
    an edge and ``entry_bytes`` an entry of ``energy``.
    """

    def __init__(self, hamiltonian: PottsHamiltonian,
                 transform: LatticeTransform, what: str, entry_bytes: int = 0):
        rows, cols = hamiltonian.rows, hamiltonian.cols
        need = (rows * cols * _POSITION_BYTES
                + len(hamiltonian._edge) * _EDGE_BYTES
                + hamiltonian._entry_count() * entry_bytes)
        if need > 8 * SIZE_GUARD:
            raise TooLargeError(
                f"{what} of a {rows}x{cols} grid takes up to {need} bytes, "
                f"more than the size guard's {8 * SIZE_GUARD}")
        self.energy, offset, first, second, _, dims = hamiltonian._energy_terms()
        self.transform = transform
        self.rows, self.cols = transform.grid((rows, cols)).shape
        self.position_map = transform.grid((rows, cols)).ravel()
        self.reach = _reach((self.rows, self.cols))
        self.dim_grid = dims[self.position_map].reshape(self.rows, self.cols)

        nodes = len(offset) - len(hamiltonian._edge)  # edge terms come last
        inverse = np.argsort(self.position_map)
        self.node = np.zeros(len(inverse), dtype=np.intp)
        self.node[inverse[first[:nodes]]] = offset[:nodes]
        self.edge = np.full((len(inverse), 4), -1, dtype=np.intp)
        self.flip = np.zeros((len(inverse), 4), dtype=bool)
        a, b = inverse[first[nodes:]], inverse[second[nodes:]]
        later, swap = np.maximum(a, b), a > b
        gap = np.abs(np.subtract(a, b, out=a), out=a)
        del b
        # a gap of 1 within a row is "w"; else cols + 1, cols or cols - 1
        # name "nw", "n" or "ne"
        direction = np.where((gap == 1) & (later % self.cols > 0), 0,
                             self.cols + 2 - gap)
        self.edge[later, direction] = offset[nodes:]
        self.flip[later, direction] = swap

    def table(self, buffer: np.ndarray, row: int, col: int,
              direction: str | None = None):
        """A view of site ``(row, col)``'s node table in ``buffer`` (laid
        out as ``energy``), or of its back edge's in ``direction``,
        oriented (neighbour's state, own state); None if it has none."""
        if not (0 < row <= self.rows and 0 < col <= self.cols):
            return None
        p = (row - 1) * self.cols + col - 1
        d = self.dim_grid.item(p)
        if direction is None:
            at = self.node.item(p)
            return buffer[at:at + d]
        k, dr, dc = _BACK[direction]
        at = self.edge.item(p, k)
        if at < 0:
            return None
        other = self.dim_grid.item(row - 1 + dr, col - 1 + dc)
        table = buffer[at:at + d * other]
        if self.flip.item(p, k):
            return table.reshape(d, other).T
        return table.reshape(other, d)

    def dim_at(self, row: int, col: int) -> int:
        return int(self.dim_grid[row - 1, col - 1])

    def row_dims(self, row: int) -> list[int]:
        return self.dim_grid[row - 1].tolist()

    def position(self, row: int, col: int) -> int:
        """Row-major 1-based linear position in the transformed frame."""
        return (row - 1) * self.cols + col

    def site_of(self, position: int) -> tuple[int, int]:
        return ((position - 1) // self.cols + 1, (position - 1) % self.cols + 1)


class PepsNetwork(Frame):
    """Boltzmann tables of a model in a transformed frame: a
    :class:`Frame` whose ``weight`` buffer holds ``exp(-beta * E)`` of
    each entry E of ``energy``, in one elementwise pass, in ``dtype``.
    The environment kernels read weight tables, :func:`step_energies`
    energy tables. Immutable once built; share freely. NumericError
    unless ``beta`` is positive and finite; TooLargeError before any
    array is built if they, the weights and their float64 temporary
    (the itemsize plus 8 bytes an entry) exceed the size guard's bytes.
    """

    def __init__(self, hamiltonian: PottsHamiltonian,
                 transform: LatticeTransform, beta: float,
                 dtype=np.float64):
        check_beta(beta)
        self.beta = float(beta)
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.float32, np.float64):
            raise UnsupportedError(
                f"dtype must be float32 or float64, got {self.dtype}")
        super().__init__(hamiltonian, transform, "the network",
                         self.dtype.itemsize + 8)
        with np.errstate(over="ignore"):
            weight = self.energy * -self.beta
            np.exp(weight, out=weight)
        if not np.all(np.isfinite(weight)):
            raise NumericError(
                "Boltzmann weight overflowed; reduce beta or rescale energies")
        with np.errstate(over="ignore"):
            self.weight = weight.astype(self.dtype, copy=False)
        del weight  # the float64 temporary, before the cast is checked
        _finite(self.weight, "Boltzmann weight")

    def back(self, row: int, col: int, direction: str):
        return self.table(self.weight, row, col, direction)

    def __repr__(self):
        return (f"PepsNetwork({self.rows}x{self.cols}, beta={self.beta}, "
                f"transform={self.transform.name})")


def _finite(x: np.ndarray, what: str) -> np.ndarray:
    """``x``, unless ``what``, which it holds, overflowed its dtype: then
    a NumericError, which suggests float64 only to float32."""
    if not np.all(np.isfinite(x)):
        raise NumericError(f"{what} overflows {x.dtype}; reduce beta" + (
            " or use float64" if x.dtype == np.float32 else ""))
    return x


def build_network(hamiltonian: PottsHamiltonian,
                  transform: LatticeTransform = ALL_TRANSFORMS[0],
                  beta: float = 1.0, dtype=np.float64) -> PepsNetwork:
    """Build the Boltzmann network whose full contraction is the
    partition function Z = sum_x exp(-beta * E(x))."""
    return PepsNetwork(hamiltonian, transform, beta, dtype)


def row_product(net: PepsNetwork, row: int, env: BoundaryMps) -> BoundaryMps:
    """Row ``row + 1``'s Boltzmann weights applied to ``env``.

    ``env`` is a state over the states y of row ``row + 1``; the result
    maps each state x of row ``row`` to the sum over y of ``env(y)``
    times the weights of the lower row and of its couplings to x. Row 0
    is a one-state row above row 1, so row 1 sums into a scalar.

    Column c's weight table ``a[xl, yl, x, y]`` multiplies the weights
    of site (row+1, c), the vertical edge above it, the horizontal edge
    to (row+1, c-1), and both diagonals between the two rows that end at
    column c. A bond carries x_c and/or y_c only when a weight to its
    right depends on them (``xl``/``yl`` have extent 1 otherwise). The
    table is multiplied into env's tensor, y summed where the right bond
    does not carry it. Site tensor c's logical bonds are ``(xl*yl*chi_l,
    x, xr*yr*chi_r)``, row-major, with ``chi`` env's bonds. Where the
    right bond carries x the logical tensor is zero off ``x == xr``, so
    the column is stored carried: ``(xl*yl*chi_l, x, yr*chi_r)``, block x
    standing for ``xr == x``. Each site is max-normalized.

    Raises:
        InvalidIndexError: ``row`` is outside ``0 .. net.rows - 1``.
        DimensionError: ``env`` is not a state over row ``row + 1``.
        NumericError: a weight table overflows ``net.dtype``.
    """
    if not 0 <= row < net.rows:
        raise InvalidIndexError(f"row pair {row}|{row + 1} outside grid")
    lower = row + 1
    dims_x = net.row_dims(row) if row else [1] * net.cols
    dims_y = net.row_dims(lower)
    if env.phys_dims != tuple(dims_y):
        raise DimensionError(
            f"state dims {env.phys_dims} do not match row {lower}'s {dims_y}")

    tensors = []
    log_scale = env.log_scale
    dxl = dyl = 1
    for c, e in enumerate(env.tensors, start=1):
        dx, dy = dims_x[c - 1], dims_y[c - 1]
        # does the bond to column c+1 carry the upper / lower state?
        carry_x = net.back(lower, c + 1, "nw") is not None
        carry_y = (net.back(lower, c + 1, "w") is not None
                   or net.back(lower, c, "ne") is not None)
        with np.errstate(over="ignore", invalid="ignore"):
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
                # couples x_c with y_{c-1}; table is (d_x, d_{y,c-1})
                a = a * w.T[None, :, :, None]
        _finite(a, f"weight table of row pair {row}|{lower} at column {c}")

        # p[xl, yl, chi_l, x, yr, chi_r]
        if carry_y:
            p = a[:, :, None, :, :, None] * e[None, None, :, None, :, :]
        else:
            p = np.tensordot(a, e, axes=(3, 1)).transpose(0, 1, 3, 2, 4)
            p = p[:, :, :, :, None]
        # where the bond carries x, block x of t stands for the logical
        # right bond entries (xr, yr, chi_r) with xr == x
        t = p.reshape(dxl * dyl * e.shape[0], dx, -1)
        # t shares no memory with env, so it is max-normalized in place
        mx = max(t.max(), -t.min())
        if mx > 0 and mx != 1.0:
            t /= mx
            log_scale += math.log(mx)
        tensors.append(t)
        dxl, dyl = (dx if carry_x else 1), (dy if carry_y else 1)
    return BoundaryMps(tensors, log_scale)


def bottom_environments(net: PepsNetwork,
                        params: ContractionParams) -> list[BoundaryMps]:
    """Bottom boundary MPS of every row, built once per solve.

    Entry ``row - 1`` sums everything strictly below ``row`` plus the
    couplings between rows ``row`` and ``row + 1``; its physical legs
    are the states of row ``row`` (all ones for the last row). Built
    bottom-up: :func:`row_product` applies row ``row + 1``'s weights to
    the environment below, giving logical bonds ``(xl*yl*chi_l, x,
    xr*yr*chi_r)`` of extent up to ``chi * d**2``, which :func:`compress`
    cuts back to ``params.bond_dim``, canonicalizing, truncating and
    sweeping carried columns block by block. ``params.beta`` is unused,
    because the weights come from ``net``.

    Each row logs one DEBUG line, ``environment of row R: product bond
    B, bonds (...), fidelity F``: the product's largest logical bond, the
    compressed bonds and :func:`compress`'s fidelity. It follows
    compress's own DEBUG line, which says whether the sweeps ran.
    """
    envs = [BoundaryMps.ones(net.row_dims(net.rows), dtype=net.dtype)]
    for row in range(net.rows - 1, 0, -1):
        product = row_product(net, row, envs[-1])
        product_bond = max(product.bond_dims, default=1)
        env, fidelity = compress(product, params)
        del product  # freed before the next row's product is built
        logger.debug("environment of row %d: product bond %d, bonds %s, "
                     "fidelity %.12g", row, product_bond, env.bond_dims,
                     fidelity)
        envs.append(env)
    return envs[::-1]


def _max_normalized(x: np.ndarray) -> np.ndarray:
    """Each ``x[i]`` divided by its largest magnitude (where nonzero).

    The maxima are taken down the columns of a transposed copy, because
    numpy reduces short rows one at a time, several times slower.
    """
    rows = x.reshape(len(x), math.prod(x.shape[1:]))
    scale = np.abs(rows.T, order="C").max(axis=0)
    scale[scale == 0] = 1
    return x / scale.reshape((len(x),) + (1,) * (x.ndim - 1))


def right_tables(net: PepsNetwork, bottom: BoundaryMps, row: int,
                 values: np.ndarray) -> list[np.ndarray]:
    """Summed weights of the free columns right of each column of ``row``.

    ``values`` holds B assignments that cover at least the rows above
    ``row``. In one backward sweep batched over B, each free column
    contributes its site weight, its edge to the left and its couplings
    to the row above. Entry ``col - 1`` of the result has shape
    ``(B, d_col, right bond of column col)``, is indexed by the
    candidate state of column ``col`` and is max-normalized per assignment.
    No row product covers row 1 or a site's own ``"ne"`` edge, so an
    overflow here raises :func:`row_product`'s NumericError.
    """
    env = np.ones((len(values), net.dim_at(row, net.cols), 1), dtype=net.dtype)
    tables = [env]
    for col in range(net.cols, 1, -1):
        a = bottom.tensors[col - 1]
        # h[u, x, a] = sum_b a[a, x, b] env[u, x, b], one matmul per x
        h = np.matmul(env.transpose(1, 0, 2), a.transpose(1, 2, 0))
        # v[u, x_{col-1}, x_col]: the weights of free column col
        with np.errstate(over="ignore", invalid="ignore"):
            v = (np.ones((net.dim_at(row, col - 1), 1), dtype=net.dtype)
                 * net.table(net.weight, row, col)[None, :])
            w_horiz = net.back(row, col, "w")
            if w_horiz is not None:
                v = v * w_horiz
            for direction in ("n", "nw", "ne"):
                w = net.back(row, col, direction)
                if w is not None:
                    dr, dc = _BACK_OFFSETS[direction]
                    above = values[:, net.position(row + dr, col + dc) - 1]
                    v = v * w.take(above - 1, axis=0)[:, None, :]
            env = v @ h.transpose(1, 0, 2)
        env = _max_normalized(
            _finite(env, f"weight table of row {row} at column {col}"))
        tables.append(env)
    return tables[::-1]


def step_energies(net: PepsNetwork, row: int, col: int,
                  values: np.ndarray) -> np.ndarray:
    """Energy increments ``(B, d)`` of each state of site ``(row, col)``
    for B branches whose ``values`` cover its predecessors (``(1, d)``
    if it has no backward edge): its own energy plus its ``"w"``,
    ``"nw"``, ``"n"`` and ``"ne"`` edges, summed in that order. Rows are
    gathered with ``take``, here several times faster than indexing."""
    terms = net.table(net.energy, row, col)[None, :]
    for direction, (dr, dc) in _BACK_OFFSETS.items():
        table = net.table(net.energy, row, col, direction)
        if table is not None:
            terms = terms + table.take(
                values[:, net.position(row + dr, col + dc) - 1] - 1, axis=0)
    return terms


_LARGEST = np.finfo(np.float64).max


def conditionals(net: PepsNetwork, bottom: BoundaryMps, row: int, col: int,
                 left: np.ndarray, right: np.ndarray, above: np.ndarray,
                 energy: np.ndarray):
    """Conditional distributions of site ``(row, col)`` for B branches.

    With ``t = L @ A`` for the column's bottom tensor A and L the rows
    of ``left`` max-normalized, branch b's numerator is
    ``sum_c t[b, s, c] * right[above[b], s, c]`` times
    ``exp(-beta * (energy[b, s] - min_s energy[b, s]))``, formed in
    float64 from the increments :func:`step_energies` returns; the shift
    cancels in the normalization and keeps the largest factor exactly 1.
    Truncation can make a numerator negative, for a whole branch (the
    environment came out with the wrong sign for that configuration) or
    for single states; every negative numerator keeps its magnitude, so
    no state a truncated environment weighs wrongly gets probability 0.
    A DEBUG line gives the count and position.

    Returns the (B, d) float64 conditionals and the children's left
    vectors, the raw ``t``. Left vectors are normalized here, where they
    are read, so the children a caller prunes are never normalized; the
    result is the same, since max-normalizing rows commutes with
    gathering them and leaves a normalized row (largest magnitude
    exactly 1) as it is. Raises ContractionDegenerateError when every
    weight of a branch underflowed or every state's energy is infinite.
    """
    a = bottom.tensors[col - 1]
    chi, d, chi_right = a.shape
    t = (_max_normalized(left) @ a.reshape(chi, d * chi_right)).reshape(
        -1, d, chi_right)
    numerator = np.einsum("bsc,bsc->bs", t, right.take(above, axis=0))
    # branch minima down a transposed copy, as in _max_normalized; a
    # branch whose every energy is +inf shifts by the largest float, not
    # by inf, so its weights vanish without forming inf - inf
    shift = np.array(energy.T, order="C").min(axis=0, initial=_LARGEST)
    numerator = numerator * np.exp(-net.beta * (energy - shift[:, None]))

    if logger.isEnabledFor(logging.DEBUG):
        negative = numerator < 0
        if negative.any():
            logger.debug("took the magnitude of %d negative conditional "
                         "weights on %d of %d branches at (%d, %d)",
                         int(negative.sum()), int(negative.any(axis=1).sum()),
                         len(negative), row, col)
    np.abs(numerator, out=numerator)
    # summed along the rows, not down a transposed copy: numpy sums a
    # row of 8 or more pairwise, so the other order would round apart
    norm = numerator.sum(axis=1)
    if not np.all((norm > 0) & np.isfinite(norm)):
        raise ContractionDegenerateError(
            "conditional weights vanished", position=(row, col))
    return numerator / norm[:, None], t


def conditional_distribution(net: PepsNetwork, envs: list[BoundaryMps],
                             partial) -> np.ndarray:
    """Conditional Boltzmann distribution of the next site.

    ``envs`` holds one bottom environment per row, as
    :func:`bottom_environments` builds them (or a caller-built list of
    the same layout). ``partial`` must assign exactly the row-major
    predecessors of the site being queried, in the transformed frame,
    each value within its own site's dimension. This is the
    single-branch case of :func:`conditionals`, the search's batched
    kernel, weighed by the increments of :func:`step_energies`.

    Raises:
        DimensionError: ``envs`` does not hold one entry per row, or
            ``partial`` already assigns every site.
        InvalidIndexError: a value is not an integer or lies outside
            1..d of its site.
        ContractionDegenerateError: every weight underflowed to zero.
    """
    if len(envs) != net.rows:
        raise DimensionError(
            f"expected {net.rows} bottom environments, got {len(envs)}")
    values = _integer_states(tuple(partial)).astype(np.int64).reshape(1, -1)
    k = values.shape[1] + 1
    if k > net.dim_grid.size:
        raise DimensionError(
            f"partial assignment already covers all {net.dim_grid.size} sites")
    if np.any(values < 1) or np.any(values > net.dim_grid.reshape(-1)[:k - 1]):
        raise InvalidIndexError(
            "partial assignment contains a state outside its site dimension")
    row, col = net.site_of(k)

    bottom = envs[row - 1]
    start = (row - 1) * net.cols
    left = np.ones((1, 1), dtype=net.dtype)
    for c, value in enumerate(values[0, start:start + col - 1]):
        left = _max_normalized(left) @ bottom.tensors[c][:, value - 1, :]
    right = right_tables(net, bottom, row, values)[col - 1]
    probabilities, _ = conditionals(net, bottom, row, col, left, right,
                                    np.zeros(1, dtype=np.intp),
                                    step_energies(net, row, col, values))
    return probabilities[0]


def contract_network(net: PepsNetwork, params: ContractionParams | None = None):
    """Full contraction of the network.

    Returns ``(value, log_scale)``; the partition function is
    ``value * exp(log_scale)``. With ``params=None`` the contraction is
    exact up to the rank-revealing floor (no bond cap).
    """
    if params is None:
        params = ContractionParams(bond_dim=2 ** 31 - 1, num_sweeps=0,
                                   beta=net.beta)
    top = row_product(net, 0, bottom_environments(net, params)[0])
    return mps_overlap(BoundaryMps.ones([1] * net.cols, dtype=net.dtype), top)
