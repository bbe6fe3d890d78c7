"""Parsers and JSON output."""

import gc
import io
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kingspeps import (ALL_TRANSFORMS, ContractionParams, DropletParams,
                       SearchParams, low_energy_spectrum, merge_solutions,
                       parse_ising, write_solution)
from kingspeps.instance_io import parse_potts, solution_to_dict
from kingspeps.ising import IsingGraph
from kingspeps.potts import PottsHamiltonian, potts_energies
from kingspeps.errors import (DuplicateEntryError, GeometryError,
                              InvalidIndexError, ParseError, TooLargeError)
from kingspeps.search import Droplet, Solution
from conftest import (assert_raises_exactly, peak_bytes, ragged_potts,
                      random_clustered, serialize_ising, strict_json)
from test_golden_search import CASES, _case_solutions


class TestParseIsing:
    def test_couplings_and_fields(self):
        g = parse_ising("1 2 -1.0\n2 2 0.5")
        assert g.couplings == {(1, 2): -1.0}
        assert g.fields[1] == 0.5
        assert g.fields[0] == 0.0
        assert g.n_spins == 2

    def test_comments_and_blanks_only(self):
        g = parse_ising("# comment\n\n")
        assert g.n_spins == 0
        assert g.couplings == {}

    def test_c_prefixed_comment(self):
        g = parse_ising("c Gset style header\n1 2 1.0")
        assert g.couplings == {(1, 2): 1.0}

    def test_duplicate_edge_either_order(self):
        with pytest.raises(DuplicateEntryError):
            parse_ising("1 2 1.0\n2 1 2.0")

    def test_duplicate_field(self):
        with pytest.raises(DuplicateEntryError):
            parse_ising("3 3 1.0\n3 3 1.0")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_ising("1 2 1.0\n1 2\n")
        assert err.value.line == 2

    def test_non_numeric(self):
        with pytest.raises(ParseError):
            parse_ising("1 2 spam")

    def test_non_integer_index(self):
        with pytest.raises(ParseError):
            parse_ising("1.5 2 1.0")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entry", ["1 2", "2 2"])
    def test_non_finite_value_reports_line_number(self, entry, value):
        with pytest.raises(ParseError, match="non-finite value") as err:
            parse_ising(f"1 1 0.5\n{entry} {value}\n")
        assert err.value.line == 2

    def test_nonpositive_index(self):
        with pytest.raises(InvalidIndexError):
            parse_ising("0 2 1.0")

    def test_accepts_file_like(self):
        g = parse_ising(io.StringIO("1 2 0.25"))
        assert g.couplings == {(1, 2): 0.25}

    def test_whitespace_tolerant(self):
        g = parse_ising("  1\t2   -3.5  ")
        assert g.couplings == {(1, 2): -3.5}

    def test_order_insensitive(self):
        lines = ["1 2 -1.0", "2 3 0.5", "1 1 0.25", "3 3 -2.0"]
        a = parse_ising("\n".join(lines))
        b = parse_ising("\n".join(reversed(lines)))
        assert a == b


coupling_values = st.floats(min_value=-10, max_value=10, allow_nan=False,
                            allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_round_trip_exact(n_spins, data):
    pairs = [(i, j) for i in range(1, n_spins + 1)
             for j in range(i + 1, n_spins + 1)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                max_size=len(pairs))) if pairs else []
    couplings = {pair: data.draw(coupling_values) for pair in chosen}
    fields = [data.draw(coupling_values) for _ in range(n_spins)]
    g = IsingGraph(n_spins, couplings, fields)
    assert parse_ising(serialize_ising(g)) == g


def test_round_trip_bit_identical_couplings():
    g = IsingGraph(3, {(1, 3): 0.1 + 0.2, (2, 3): -1e-17}, {2: 1 / 3})
    g2 = parse_ising(serialize_ising(g))
    assert g2.couplings[(1, 3)] == g.couplings[(1, 3)]
    assert g2.couplings[(2, 3)] == g.couplings[(2, 3)]
    assert g2.fields[1] == g.fields[1]


def test_round_trip_trailing_isolated_spin():
    g = IsingGraph(5, {(1, 2): 1.0})
    assert parse_ising(serialize_ising(g)).n_spins == 5


class TestParsePotts:
    def test_single_variable(self):
        h = parse_potts("P 1 1\nn 1 1 1 0.0\nn 1 1 2 3.0")
        assert h.dim((1, 1)) == 2
        assert np.array_equal(h.node_table((1, 1)), [0.0, 3.0])

    def test_diagonal_edge_accepted(self):
        h = parse_potts("P 2 2\ne 1 1 2 2 1 1 -1.0")
        table = h.edge_table((1, 1), (2, 2))
        assert table[0, 0] == -1.0

    def test_non_adjacent_edge_rejected(self):
        with pytest.raises(GeometryError):
            parse_potts("P 2 3\ne 1 1 1 3 1 1 -1.0")

    def test_self_edge_rejected(self):
        with pytest.raises(GeometryError):
            parse_potts("P 2 2\ne 1 1 1 1 1 1 -1.0")

    def test_out_of_grid(self):
        with pytest.raises(InvalidIndexError):
            parse_potts("P 2 2\nn 3 1 1 0.0")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_potts("n 1 1 1 0.0")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("record", ["n 1 1 2", "e 1 1 1 2 1 2"])
    def test_non_finite_value_reports_line_number(self, record, value):
        with pytest.raises(ParseError, match="non-finite value") as err:
            parse_potts(f"P 1 2\nn 1 1 1 0.0\n{record} {value}\n")
        assert err.value.line == 3

    def test_duplicate_entry(self):
        with pytest.raises(DuplicateEntryError):
            parse_potts("P 1 1\nn 1 1 1 0.0\nn 1 1 1 1.0")

    def test_duplicate_edge_entry_either_orientation(self):
        with pytest.raises(DuplicateEntryError):
            parse_potts("P 1 2\ne 1 1 1 2 1 2 0.5\ne 1 2 1 1 2 1 0.25")

    def test_dims_grow_with_edge_records(self):
        h = parse_potts("P 1 2\ne 1 1 1 2 3 2 0.5")
        assert h.dim((1, 1)) == 3
        assert h.dim((1, 2)) == 2

    def test_all_edges_king_adjacent(self):
        h = parse_potts("P 2 2\ne 1 1 2 2 1 1 1.0\ne 1 2 2 1 1 1 1.0\n"
                        "e 1 1 1 2 1 1 1.0\ne 2 1 2 2 1 1 1.0")
        from kingspeps.potts import king_adjacent
        for (a, b), _ in h.edge_tables():
            assert king_adjacent(a, b)

    @pytest.mark.parametrize("text, error, message", [
        ("P 1 1\nn 1 1 0 0.0", InvalidIndexError,
         "line 2: state indices are 1-based, got 0"),
        ("P 1 x", ParseError, "line 1: non-integer grid size in 'P 1 x'"),
        ("P 0 2", ParseError, "line 1: grid size must be positive, got (0, 2)"),
        ("P 1 1\nq 1 1 1 0.0", ParseError,
         "line 2: unrecognized record 'q 1 1 1 0.0'"),
        ("P 1 1\nn 1 1 x 0.0", ParseError,
         "line 2: non-numeric entry in 'n 1 1 x 0.0'"),
        ("# only a comment\n", ParseError, "missing 'P m n' header"),
        # one entry over the guard: the table is refused before it is built
        ("P 1 2\nn 1 1 16777217 0.5", TooLargeError,
         "node table at (1, 1) has 16777217 entries, more than the size "
         "guard of 16777216"),
        ("P 1 2\ne 1 1 1 2 4097 4097 1.0", TooLargeError,
         "edge table for (1, 1)-(1, 2) has 16785409 entries, more than the "
         "size guard of 16777216"),
        # every site no record names gets a one-entry node table: a bare
        # header of 10^10 sites, and 2^24 sites of which one has 2 states
        ("P 100000 100000", TooLargeError,
         "a model of 10000000000 node and 0 edge tables has 10000000000 "
         "entries, more than the size guard of 16777216"),
        ("P 4096 4096\nn 1 1 2 0.5", TooLargeError,
         "a model of 16777216 node and 0 edge tables has 16777217 "
         "entries, more than the size guard of 16777216"),
    ])
    def test_rejection_class_and_message(self, text, error, message):
        assert_raises_exactly(lambda: parse_potts(text), error, message)

    def test_tables_refused_together_before_building(self):
        # 30 node tables of 2^24 states each pass the guard one by one;
        # together they would take 3.75 GiB
        text = "P 1 30\n" + "".join(f"n 1 {c} 16777216 0.5\n"
                                    for c in range(1, 31))
        assert len(text) == 598
        _, peak = peak_bytes(lambda: assert_raises_exactly(
            lambda: parse_potts(text), TooLargeError,
            "a model of 30 node and 0 edge tables has 503316480 entries, "
            "more than the size guard of 16777216"))
        assert peak < 8 * 2**20, peak

    def test_builds_one_table_at_a_time(self):
        # four node tables of 2^18 states, 2 MiB each: the parser holds
        # the model's copies and the one table it is filling
        text = "P 1 4\n" + "".join(f"n 1 {c} 262144 0.5\n"
                                   for c in range(1, 5))
        h, peak = peak_bytes(lambda: parse_potts(text))
        table = h.node_table((1, 4))
        assert table[-1] == 0.5 and table.nbytes == 2**21
        assert peak < 4 * table.nbytes + table.nbytes + 2**20, peak


def _potts_records(h, rng, skipped):
    """Every table entry of ``h`` as a Potts record ``(sites, states,
    value)``, shuffled: no node records for the sites in ``skipped``,
    and each edge record in a random orientation."""
    records = []
    for site in h.sites():
        if site not in skipped:
            records += [((site,), (s + 1,), float(v))
                        for s, v in enumerate(h.node_table(site))]
    for (a, b), table in h.edge_tables():
        for (sa, sb), v in np.ndenumerate(table):
            if rng.random() < 0.5:
                records.append(((a, b), (sa + 1, sb + 1), float(v)))
            else:
                records.append(((b, a), (sb + 1, sa + 1), float(v)))
    rng.shuffle(records)
    return records


def _potts_text(rows, cols, records):
    lines = [f"P {rows} {cols}"]
    for sites, states, value in records:
        numbers = [x for site in sites for x in site] + list(states)
        tag = "n" if len(sites) == 1 else "e"
        lines.append(f"{tag} {' '.join(map(str, numbers))} {value!r}")
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 3), cols=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_potts_records_in_any_order(rows, cols, seed):
    # a ragged model with some edges absent, written as shuffled records;
    # some sites get no node records, so edge records alone name them
    rng = np.random.default_rng(seed)
    model = ragged_potts(rows, cols, rng.integers(1, 5, size=rows * cols),
                         seed)
    skipped = {site for site in model.sites() if rng.random() < 0.3}
    records = _potts_records(model, random.Random(seed), skipped)
    h = parse_potts(_potts_text(rows, cols, records))

    named = dict.fromkeys(site for sites, _, _ in records for site in sites)
    edges = list(dict.fromkeys(tuple(sorted(sites))
                               for sites, _, _ in records if len(sites) == 2))
    nodes = {site: np.zeros(model.dim(site)) if site in skipped
             else model.node_table(site) for site in named}
    assert list(h._edge) == edges
    for site in model.sites():
        assert h.dim(site) == (model.dim(site) if site in named else 1)
        assert np.array_equal(h.node_table(site),
                              nodes.get(site, np.zeros(1)))
    assert list(h._node) == list(named)
    assert ([(pair, t.tolist()) for pair, t in h.edge_tables()]
            == [(pair, t.tolist()) for pair, t in model.edge_tables()])

    # edge tables enter the energy sum in first-record order
    reference = PottsHamiltonian(rows, cols)
    for site, table in nodes.items():
        reference.set_node(site, table)
    for a, b in edges:
        reference.set_edge(a, b, model.edge_table(a, b))
    dims = [h.dim(site) for site in h.sites()]
    values = rng.integers(1, np.array(dims) + 1, size=(64, len(dims)))
    assert (potts_energies(h, values).tobytes()
            == potts_energies(reference, values).tobytes())


def _tiny_solution(droplets):
    return Solution(states=[(1, 1), (2, 1)], energies=[-1.0, 0.5],
                    log_probabilities=[-0.1, -2.0], droplets=droplets,
                    largest_discarded_probability=0.0, beta=1.0,
                    parameters={"beta": 1.0})


class TestWriteSolution:
    def test_empty_droplets(self):
        doc = solution_to_dict(_tiny_solution([(), ()]))
        assert doc["droplets"] == [[], []]
        assert doc["best_energy"] == -1.0
        assert doc["energies"] == [-1.0, 0.5]

    def test_energies_ascending(self):
        doc = solution_to_dict(_tiny_solution([(), ()]))
        assert doc["energies"] == sorted(doc["energies"])

    def test_droplet_structure(self):
        d = Droplet(flips=((3, 2),), delta_energy=0.5,
                    sub_droplets=(Droplet(flips=((1, 2),), delta_energy=0.25),))
        doc = solution_to_dict(_tiny_solution([(d,), ()]))
        table = doc["droplet_table"]
        entry = table[doc["droplets"][0][0]]
        assert doc["droplets"][1] == []
        assert entry["delta_energy"] == 0.5
        assert entry["flips"] == {"3": 2}
        (sub,) = entry["sub_droplets"]
        assert table[sub] == {"delta_energy": 0.25, "flips": {"1": 2},
                              "sub_droplets": []}

    def test_leaves_no_reference_cycle(self):
        # the tables must be freed on return, not at the next cyclic
        # collection, or they pile up between collections
        d = Droplet(flips=((3, 2),), delta_energy=0.5,
                    sub_droplets=(Droplet(flips=((1, 2),), delta_energy=0.25),))
        sol = _tiny_solution([(d,), (d,)])
        gc.collect()
        gc.disable()
        try:
            write_solution(sol, io.StringIO())
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_non_finite_numbers_written_as_null(self):
        sol = _tiny_solution([(), ()])
        sol.log_probabilities[1] = -np.inf
        sol.parameters["energy_cutoff"] = np.inf
        buf = io.StringIO()
        write_solution(sol, buf)
        doc = strict_json(buf.getvalue())
        assert doc["log_probabilities"] == [-0.1, None]
        assert doc["parameters"] == {"beta": 1.0, "energy_cutoff": None}
        assert doc["energies"] == [-1.0, 0.5]

    def test_finite_document_as_json_dumps_writes_it(self):
        buf = io.StringIO()
        size = write_solution(_tiny_solution([(), ()]), buf)
        text = buf.getvalue()
        assert size == len(text) and text.endswith("\n")
        assert json.dumps(json.loads(text)) + "\n" == text

    def test_write_to_stream_and_path(self, tmp_path):
        sol = _tiny_solution([(), ()])
        buf = io.StringIO()
        write_solution(sol, buf)
        parsed = json.loads(buf.getvalue())
        assert parsed["states"] == [[1, 1], [2, 1]]
        path = tmp_path / "out.json"
        write_solution(sol, str(path))
        assert json.loads(path.read_text())["best_energy"] == -1.0
        assert "generated_at" in parsed

    def test_python_api_records_the_run(self):
        # the echo the CLI writes, apart from its own format and topology
        _, h = random_clustered(2, 2, 1, seed=22)
        sols = [low_energy_spectrum(
                    h, tr, ContractionParams(bond_dim=4, beta=1.5),
                    SearchParams(max_states=16),
                    DropletParams(energy_cutoff=2.0, hamming_cutoff=1,
                                  mode="potts"), dtype=np.float32)
                for tr in ALL_TRANSFORMS[1:3]]
        buf = io.StringIO()
        write_solution(merge_solutions(sols), buf)
        assert json.loads(buf.getvalue())["parameters"] == {
            "beta": 1.5, "bond_dim": 4, "num_sweeps": 1, "max_states": 16,
            "cut_off_prob": 1e-4, "energy_cutoff": 2.0, "hamming_cutoff": 1,
            "droplet_mode": "potts", "precision": "float32",
            "transforms": ["r90", "r180"],
            "transform_best_energies": {"r90": sols[0].best_energy,
                                        "r180": sols[1].best_energy}}


def _nested(droplet) -> dict:
    """A droplet as the JSON wrote it before the table: the full tree."""
    return {"delta_energy": droplet.delta_energy,
            "flips": {str(pos): int(value) for pos, value in droplet.flips},
            "sub_droplets": [_nested(sub) for sub in droplet.sub_droplets]}


def _expand_table(doc) -> list:
    """``droplet_table`` and the index lists back to the nested form."""
    table = doc["droplet_table"]

    def expand(i):
        entry = table[i]
        return {"delta_energy": entry["delta_energy"], "flips": entry["flips"],
                "sub_droplets": [expand(j) for j in entry["sub_droplets"]]}

    return [[expand(i) for i in per_state] for per_state in doc["droplets"]]


def _tree_size(droplets) -> int:
    return sum(1 + _tree_size(d.sub_droplets) for d in droplets)


def _check_round_trip(sol):
    buf = io.StringIO()
    written = write_solution(sol, buf)
    assert written == len(buf.getvalue().encode("utf-8"))
    doc = json.loads(buf.getvalue())
    table = doc["droplet_table"]
    assert _expand_table(doc) == [[_nested(d) for d in per_state]
                                  for per_state in sol.droplets]
    assert len({json.dumps(e, sort_keys=True) for e in table}) == len(table)
    for i, entry in enumerate(table):
        assert all(0 <= j < i for j in entry["sub_droplets"])
    for per_state in doc["droplets"]:
        assert all(0 <= i < len(table) for i in per_state)
    return doc


class TestDropletTable:
    @pytest.mark.parametrize("case", CASES)
    def test_expands_to_nested_form_on_golden_cases(self, case):
        for sol in _case_solutions(case).values():
            _check_round_trip(sol)

    def test_shared_droplets_written_once(self):
        # a merge-heavy solve whose sub-droplets are shared
        _, h = random_clustered(4, 4, 2, seed=4200)
        solutions = [low_energy_spectrum(
            h, tr, ContractionParams(bond_dim=16, num_sweeps=1, beta=2.0),
            SearchParams(max_states=256, cut_off_prob=1e-4),
            DropletParams(energy_cutoff=10.0, hamming_cutoff=5, mode="spin"))
            for tr in ALL_TRANSFORMS[:2]]
        for sol in solutions + [merge_solutions(solutions)]:
            doc = _check_round_trip(sol)
            assert len(doc["droplet_table"]) < _tree_size(
                d for per_state in sol.droplets for d in per_state)

    def test_equal_droplets_share_an_entry(self):
        inner = Droplet(flips=((1, 2),), delta_energy=0.25)
        twin = Droplet(flips=((1, 2),), delta_energy=0.25)
        a = Droplet(flips=((3, 2),), delta_energy=0.5, sub_droplets=(inner,))
        b = Droplet(flips=((3, 2),), delta_energy=0.5, sub_droplets=(twin,))
        c = Droplet(flips=((3, 2),), delta_energy=0.75, sub_droplets=(twin,))
        doc = solution_to_dict(_tiny_solution([(a, c), (b,)]))
        assert len(doc["droplet_table"]) == 3
        assert doc["droplets"] == [[1, 2], [1]]
