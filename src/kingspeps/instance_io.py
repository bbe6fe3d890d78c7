"""Text-format parsers, the random instance generator and JSON solution
output.

Two input formats are supported:

* Ising triples: one ``i j v`` row per entry, where ``v`` is the
  coupling between spins ``i`` and ``j``, or the local field when
  ``i == j``. Spins are numbered from 1; the spin count is the largest
  index seen. Blank lines and lines starting with ``#`` or ``c`` are
  ignored. Duplicate entries (in either order) are an error rather than
  being summed, so accidental repetitions in an instance file surface
  immediately.

* Grid Potts: a header ``P m n`` followed by node records
  ``n r c s e`` (energy ``e`` for state ``s`` at site ``(r, c)``) and
  edge records ``e r1 c1 r2 c2 s1 s2 e``. Sites are 1-based, edge
  records must connect king-adjacent sites, and a site's dimension is
  the largest state index referenced there. Unspecified entries are 0,
  so a site named only by edge records gets a zero node table. The two
  orientations of an edge are one entry, so a second record for it in
  either orientation is a duplicate. Edge tables enter the energy sum
  in the order of their first record.
"""

from __future__ import annotations

import json
import math
from datetime import datetime, timezone
from typing import IO

from .errors import (DimensionError, DuplicateEntryError, GeometryError,
                     InvalidIndexError, NumericError, ParseError, check_count,
                     check_size)
from .ising import IsingGraph
from .potts import PottsHamiltonian, king_adjacent

import numpy as np


def _records(text, comment_prefixes):
    """The record lines of a string or file-like object as ``(lineno,
    stripped, tokens)``, skipping blank lines and lines that start with
    one of ``comment_prefixes``."""
    if hasattr(text, "read"):
        text = text.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith(comment_prefixes):
            yield lineno, stripped, stripped.split()


def _value(token: str, stripped: str, lineno: int) -> float:
    """The entry value ``token``, which must be a finite number."""
    value = float(token)
    if not math.isfinite(value):
        raise ParseError(f"non-finite value in {stripped!r}", line=lineno)
    return value


def parse_ising(text) -> IsingGraph:
    """Parse Ising triples from a string or file-like object.

    Returns:
        An :class:`IsingGraph` with J from rows with distinct indices,
        h from rows with equal indices, unmentioned fields zero.

    Raises:
        ParseError: a line is not blank, comment, or an ``i j v`` triple
            with a finite ``v``.
        DuplicateEntryError: the same edge or field appears twice.
        InvalidIndexError: a spin index is zero or negative.
    """
    entries: dict[tuple[int, int], float] = {}  # (i, i) is a field
    for lineno, stripped, tokens in _records(text, ("#", "c")):
        if len(tokens) != 3:
            raise ParseError(f"expected 'i j v', got {stripped!r}", line=lineno)
        try:
            i, j = int(tokens[0]), int(tokens[1])
            value = _value(tokens[2], stripped, lineno)
        except ValueError:
            raise ParseError(f"non-numeric entry in {stripped!r}", line=lineno)
        if i <= 0 or j <= 0:
            raise InvalidIndexError(
                f"line {lineno}: spin indices are 1-based, got ({i}, {j})")
        key = (i, j) if i <= j else (j, i)
        if key in entries:
            what = (f"field for spin {i}" if i == j
                    else f"coupling ({key[0]}, {key[1]})")
            raise DuplicateEntryError(f"{what} given twice", line=lineno)
        entries[key] = value
    couplings = {key: value for key, value in entries.items()
                 if key[0] != key[1]}
    fields = {i: value for (i, j), value in entries.items() if i == j}
    n_spins = max((j for _, j in entries), default=0)
    return IsingGraph(n_spins, couplings, fields)


def generate_instance(rows: int, cols: int, spins_per_cluster: int,
                      seed: int | None = None, low: float = -1.0,
                      high: float = 1.0, with_fields: bool = False) -> str:
    """Random king's-graph instance in the Ising triple format.

    Couplings are drawn uniformly from [low, high] for every
    intra-cluster spin pair and every spin pair between king-adjacent
    clusters, in a fixed traversal order, so output is byte-identical
    for a given seed. A lone spin without fields gets the line ``1 1 0.0``,
    since the format takes the spin count from the largest index seen.
    Raises :class:`DimensionError` for a size that is not an integer or
    is below 1 and for a seed that is not an integer or is negative, and
    :class:`NumericError` for a non-finite bound or when ``high - low``
    is negative or not finite.
    """
    for name, size in (("rows", rows), ("cols", cols),
                       ("spins_per_cluster", spins_per_cluster)):
        check_count(name, size)
    if min(rows, cols, spins_per_cluster) < 1:
        raise DimensionError(f"sizes must be >= 1, got {rows} x {cols} "
                             f"with {spins_per_cluster} spins per cluster")
    if seed is not None:
        check_count("seed", seed, 0)
    for name, bound in (("low", low), ("high", high)):
        if not math.isfinite(bound):
            raise NumericError(f"{name} must be finite, got {bound}")
    if not 0 <= high - low < math.inf:
        raise NumericError(f"high - low must be finite and >= 0, "
                           f"got low={low}, high={high}")
    rng = np.random.default_rng(seed)
    t = spins_per_cluster

    def spins_of(k):
        return range(k * t + 1, (k + 1) * t + 1)

    rows_out = []
    n_clusters = rows * cols
    for k in range(n_clusters):
        members = list(spins_of(k))
        for a in range(t):
            for b in range(a + 1, t):
                value = rng.uniform(low, high)
                rows_out.append(f"{members[a]} {members[b]} {value!r}")
    for k in range(n_clusters):
        r, c = k // cols, k % cols
        for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):
            rr, cc = r + dr, c + dc
            if not (0 <= rr < rows and 0 <= cc < cols):
                continue
            other = rr * cols + cc
            for i in spins_of(k):
                for j in spins_of(other):
                    value = rng.uniform(low, high)
                    rows_out.append(f"{i} {j} {value!r}")
    if with_fields:
        for i in range(1, n_clusters * t + 1):
            value = rng.uniform(low, high)
            rows_out.append(f"{i} {i} {value!r}")
    if not rows_out:  # a lone spin: its zero field gives the spin count
        rows_out.append("1 1 0.0")
    return "\n".join(rows_out) + "\n"


# sites a Potts record names, by its tag and token count
_RECORD_SITES = {("n", 5): 1, ("e", 8): 2}


def parse_potts(text) -> PottsHamiltonian:
    """Parse the grid Potts format described in the module docstring.

    Raises:
        ParseError: missing/odd header, malformed record or non-finite
            value.
        GeometryError: an edge record connects non-king-adjacent sites.
        InvalidIndexError: coordinates outside the declared grid, or a
            non-positive state index.
        DuplicateEntryError: the same table entry is set twice, an edge
            entry in either orientation.
        TooLargeError: a node or edge table, or all tables together,
            would hold more than ``SIZE_GUARD`` entries, counting one
            entry for each site no record names; checked before any
            table is built.
    """
    header = None
    entries: dict[tuple, dict] = {}  # sites, row-major -> states -> value
    dims: dict[tuple[int, int], int] = {}
    for lineno, stripped, tokens in _records(text, "#"):
        if header is None:
            if tokens[0] != "P" or len(tokens) != 3:
                raise ParseError(f"expected header 'P m n', got {stripped!r}",
                                 line=lineno)
            try:
                header = (int(tokens[1]), int(tokens[2]))
            except ValueError:
                raise ParseError(f"non-integer grid size in {stripped!r}",
                                 line=lineno)
            if header[0] < 1 or header[1] < 1:
                raise ParseError(f"grid size must be positive, got {header}",
                                 line=lineno)
            continue
        n_sites = _RECORD_SITES.get((tokens[0], len(tokens)))
        if n_sites is None:
            raise ParseError(f"unrecognized record {stripped!r}", line=lineno)
        try:
            numbers = [int(token) for token in tokens[1:-1]]
            value = _value(tokens[-1], stripped, lineno)
        except ValueError:
            raise ParseError(f"non-numeric entry in {stripped!r}", line=lineno)
        sites = tuple((numbers[2 * k], numbers[2 * k + 1])
                      for k in range(n_sites))
        states = tuple(numbers[2 * n_sites:])
        m, n = header
        for site in sites:
            if not (1 <= site[0] <= m and 1 <= site[1] <= n):
                raise InvalidIndexError(
                    f"line {lineno}: site {site} outside {m}x{n} grid")
        if n_sites == 2 and not king_adjacent(*sites):  # a self edge too
            raise GeometryError(f"line {lineno}: sites {sites[0]} and "
                                f"{sites[1]} are not king-adjacent")
        for site, state in zip(sites, states):
            if state <= 0:
                raise InvalidIndexError(
                    f"line {lineno}: state indices are 1-based, got {state}")
            dims[site] = max(dims.get(site, 1), state)
        if sites[-1] < sites[0]:
            sites, states = sites[::-1], states[::-1]
        values = entries.setdefault(sites, {})
        if states in values:
            what = (f"node entry {sites[0]} state {states[0]}" if n_sites == 1
                    else f"edge entry {sites[0]}-{sites[1]} states {states}")
            raise DuplicateEntryError(f"{what} given twice", line=lineno)
        values[states] = value

    if header is None:
        raise ParseError("missing 'P m n' header")

    # every referenced site gets a node table, then edges by first record
    shapes = {(site,): (dims[site],) for site in dims}
    for sites in entries:
        shapes.setdefault(sites, tuple(dims[site] for site in sites))
    for sites, shape in shapes.items():
        check_size(f"node table at {sites[0]}" if len(sites) == 1
                   else f"edge table for {sites[0]}-{sites[1]}",
                   math.prod(shape))
    # a site no record names still gets a node table of one entry
    m, n = header
    check_size(f"a model of {m * n} node and {len(shapes) - len(dims)} "
               f"edge tables", sum(map(math.prod, shapes.values()))
               + m * n - len(dims))
    h = PottsHamiltonian(*header)
    for sites, shape in shapes.items():
        # one table at a time, dropped once the model holds its copy
        table = np.zeros(shape)
        for states, value in entries.get(sites, {}).items():
            table[tuple(state - 1 for state in states)] = value
        if len(sites) == 1:
            h.set_node(sites[0], table)
        else:
            h.set_edge(*sites, table)
        del table
    return h


def droplet_table(droplets) -> tuple[list[dict], list[list[int]]]:
    """The droplet DAG of per-state droplet tuples as one flat table.

    Returns ``(table, indices)``. Each table entry is ``{delta_energy,
    flips, sub_droplets}`` with ``sub_droplets`` a list of table
    indices; ``indices[i]`` lists state ``i``'s droplets the same way.
    Equal droplets share one entry: entries are keyed by ``(flips,
    delta_energy, sub-indices)``, a key built from the entries' children
    so no droplet hash recurses, and each droplet object is looked at
    once. Entries come children first, so every sub-index is smaller
    than its own entry's index.
    """
    table: list[dict] = []
    by_key: dict[tuple, int] = {}
    by_id: dict[int, int] = {}
    return table, [[_table_index(d, table, by_key, by_id) for d in per_state]
                   for per_state in droplets]


def _table_index(droplet, table: list[dict], by_key: dict, by_id: dict) -> int:
    """``droplet``'s index in ``table``, appended (children first) when
    new. Not a closure: a recursive closure's cycle would keep the
    tables alive after the call."""
    at = by_id.get(id(droplet))
    if at is None:
        subs = [_table_index(sub, table, by_key, by_id)
                for sub in droplet.sub_droplets]
        key = (droplet.flips, droplet.delta_energy, tuple(subs))
        at = by_key.get(key)
        if at is None:
            at = by_key[key] = len(table)
            table.append({
                "delta_energy": float(droplet.delta_energy),
                "flips": {str(pos): int(value)
                          for pos, value in droplet.flips},
                "sub_droplets": subs,
            })
        by_id[id(droplet)] = at
    return at


def solution_to_dict(solution) -> dict:
    """JSON-ready representation of a finalized solution; droplets go
    into one ``droplet_table`` (see :func:`droplet_table`)."""
    table, indices = droplet_table(solution.droplets)
    return {
        "best_energy": solution.energies[0] if solution.energies else None,
        "states": [list(map(int, state)) for state in solution.states],
        "energies": list(map(float, solution.energies)),
        "log_probabilities": list(map(float, solution.log_probabilities)),
        "droplets": indices,
        "droplet_table": table,
        "largest_discarded_probability": float(
            solution.largest_discarded_probability),
        "parameters": solution.parameters,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }


def _finite_or_null(value):
    """``value`` with every non-finite float in it replaced by None."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_solution(solution, dest: str | IO[str]) -> int:
    """Write a solution as a compact one-line JSON document to a path or
    open text sink; returns the document's size in UTF-8 bytes.

    States are arrays of 1-based values in grid row-major order. Each
    state's ``droplets`` and each table entry's ``sub_droplets`` are
    indices into ``droplet_table``, which holds every distinct droplet
    once, children before parents; droplet flips map 1-based row-major
    positions to alternative values. A number that is not finite (a
    log-probability of -inf, an unbounded energy cutoff) is written as
    ``null``, so the document stays RFC 8259 JSON. Sink failures
    propagate to the caller.
    """
    doc = solution_to_dict(solution)
    try:
        text = json.dumps(doc, allow_nan=False) + "\n"
    except ValueError:  # a non-finite number: one more pass, only then
        text = json.dumps(_finite_or_null(doc), allow_nan=False) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as handle:
            handle.write(text)
    return len(text)  # json.dumps escapes non-ASCII: one byte a character
