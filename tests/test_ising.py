"""Ising energies and graph invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kingspeps.ising import IsingGraph
from kingspeps.errors import (DimensionError, DuplicateEntryError,
                              InvalidIndexError, TooLargeError)
from conftest import assert_raises_exactly, ising_energy


def test_field_only():
    g = IsingGraph(1, fields={1: 2.0})
    assert ising_energy(g, [-1]) == -2.0


def test_single_coupling_aligned():
    g = IsingGraph(2, {(1, 2): 1.0})
    assert ising_energy(g, [1, 1]) == 1.0


def test_single_coupling_opposed():
    g = IsingGraph(2, {(1, 2): -1.0})
    assert ising_energy(g, [1, -1]) == 1.0


def test_length_mismatch():
    g = IsingGraph(2, {(1, 2): 1.0})
    with pytest.raises(DimensionError):
        ising_energy(g, [1])


def test_each_edge_counted_once():
    g = IsingGraph(2, {(1, 2): 0.5}, {1: 0.25, 2: -0.75})
    assert ising_energy(g, [1, 1]) == 0.5 + 0.25 - 0.75


def test_empty_graph():
    assert ising_energy(IsingGraph(0), []) == 0.0


def test_constructor_normalizes_edge_order():
    g = IsingGraph(3, {(3, 1): 2.0})
    assert g.couplings == {(1, 3): 2.0}


def test_constructor_rejects_duplicates_after_normalization():
    with pytest.raises(DuplicateEntryError):
        IsingGraph(3, {(3, 1): 2.0, (1, 3): 1.0})


def test_constructor_rejects_self_edge():
    with pytest.raises(InvalidIndexError):
        IsingGraph(2, {(1, 1): 1.0})


@pytest.mark.parametrize("args, kwargs, error, message", [
    ((-1,), {}, InvalidIndexError, "spin count must be non-negative, got -1"),
    ((2, {(0, 1): 1.0}), {}, InvalidIndexError,
     "spin indices are 1-based, got (0, 1)"),
    ((2, {(1, 3): 1.0}), {}, InvalidIndexError, "edge (1, 3) exceeds spin count 2"),
    ((2,), {"fields": {3: 1.0}}, InvalidIndexError, "field index 3 outside 1..2"),
    ((2,), {"fields": [1.0]}, DimensionError,
     "fields must have length 2, got (1,)"),
    ((2.5,), {}, DimensionError, "n_spins must be an integer, got 2.5"),
    # refused before the 15 GiB field vector is built
    ((2_000_000_000,), {}, TooLargeError,
     "the field vector of 2000000000 spins has 2000000000 entries, more "
     "than the size guard of 16777216"),
])
def test_constructor_rejection_class_and_message(args, kwargs, error, message):
    assert_raises_exactly(lambda: IsingGraph(*args, **kwargs), error, message)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.data())
def test_global_flip_negates_field_term(n, data):
    values = st.floats(min_value=-5, max_value=5, allow_nan=False)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    couplings = {p: data.draw(values)
                 for p in data.draw(st.lists(st.sampled_from(pairs), unique=True))} \
        if pairs else {}
    fields = [data.draw(values) for _ in range(n)]
    spins = [data.draw(st.sampled_from([-1, 1])) for _ in range(n)]
    g = IsingGraph(n, couplings, fields)
    g_nofield = IsingGraph(n, couplings)
    g_onlyfield = IsingGraph(n, fields=fields)
    flipped = [-s for s in spins]
    lhs = ising_energy(g, flipped)
    rhs = ising_energy(g_nofield, spins) - ising_energy(g_onlyfield, spins)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
