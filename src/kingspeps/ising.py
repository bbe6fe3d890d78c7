"""In-memory Ising model. Its cost function is

    E(s) = sum_{i<j} J_ij s_i s_j + sum_i h_i s_i,    s_i in {-1, +1},

with every edge counted once. There is no implicit minus sign and no
factor 1/2; instances that assume E = -sum J s s must negate their
couplings before loading.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, Tuple

import numpy as np

from .errors import (DimensionError, DuplicateEntryError, InvalidIndexError,
                     check_count, check_size)

Edge = Tuple[int, int]


class IsingGraph:
    """Pair couplings and local fields on spins numbered 1..n_spins.

    Couplings are stored once per edge with i < j. Fields default to
    zero. Instances are immutable after construction and safe to share
    across threads. More than ``SIZE_GUARD`` spins raise TooLargeError
    before the field vector is built.
    """

    def __init__(self, n_spins: int, couplings: Mapping[Edge, float] | None = None,
                 fields: Mapping[int, float] | Sequence[float] | None = None):
        check_count("n_spins", n_spins)
        if n_spins < 0:
            raise InvalidIndexError(f"spin count must be non-negative, got {n_spins}")
        check_size(f"the field vector of {n_spins} spins", n_spins)
        self.n_spins = int(n_spins)
        self.couplings: dict[Edge, float] = {}
        for (i, j), value in (couplings or {}).items():
            i, j = int(i), int(j)
            if i <= 0 or j <= 0:
                raise InvalidIndexError(f"spin indices are 1-based, got ({i}, {j})")
            if i == j:
                raise InvalidIndexError(f"self-coupling on spin {i} is not an edge")
            if max(i, j) > self.n_spins:
                raise InvalidIndexError(f"edge ({i}, {j}) exceeds spin count {self.n_spins}")
            key = (i, j) if i < j else (j, i)
            if key in self.couplings:
                raise DuplicateEntryError(f"coupling ({key[0]}, {key[1]}) given twice")
            self.couplings[key] = float(value)

        self.fields = np.zeros(self.n_spins, dtype=np.float64)
        if fields is not None:
            if isinstance(fields, Mapping):
                for i, value in fields.items():
                    if not 1 <= int(i) <= self.n_spins:
                        raise InvalidIndexError(f"field index {i} outside 1..{self.n_spins}")
                    self.fields[int(i) - 1] = float(value)
            else:
                arr = np.asarray(fields, dtype=np.float64)
                if arr.shape != (self.n_spins,):
                    raise DimensionError(
                        f"fields must have length {self.n_spins}, got {arr.shape}")
                self.fields = arr.copy()

    def edges(self) -> Iterable[tuple[Edge, float]]:
        """Edges as ((i, j), J) with i < j, in sorted order."""
        for key in sorted(self.couplings):
            yield key, self.couplings[key]

    def __eq__(self, other):
        if not isinstance(other, IsingGraph):
            return NotImplemented
        return (self.n_spins == other.n_spins
                and self.couplings == other.couplings
                and np.array_equal(self.fields, other.fields))

    def __repr__(self):
        return (f"IsingGraph(n_spins={self.n_spins}, "
                f"n_couplings={len(self.couplings)})")
