"""Command-line workflow: generation, solving, exit codes, determinism."""

import json
import logging
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from kingspeps import (ClusterTopology, cluster, exact_spectrum,
                       generate_instance, parse_ising)
from kingspeps.cli import _build_parser, _check_transforms, main
from kingspeps.errors import (DimensionError, NumericError,
                              TransformDisagreementError)
from conftest import assert_raises_exactly, strict_json


class TestGenerate:
    def test_deterministic_under_seed(self):
        a = generate_instance(3, 3, 2, seed=42)
        b = generate_instance(3, 3, 2, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_instance(3, 3, 1, seed=1) != \
            generate_instance(3, 3, 1, seed=2)

    def test_spin_count_and_header(self):
        text = generate_instance(3, 3, 2, seed=0)
        graph = parse_ising(text)
        assert graph.n_spins == 18

    def test_clusters_cleanly(self):
        graph = parse_ising(generate_instance(4, 3, 2, seed=5))
        h = cluster(graph, ClusterTopology(4, 3, 2))
        assert (h.rows, h.cols) == (4, 3)

    def test_coupling_range(self):
        graph = parse_ising(generate_instance(3, 3, 1, seed=9, low=-0.5,
                                              high=0.5))
        assert all(-0.5 <= v <= 0.5 for v in graph.couplings.values())

    def test_fields_flag(self):
        graph = parse_ising(generate_instance(2, 2, 1, seed=3,
                                              with_fields=True))
        assert any(graph.fields != 0.0)

    @pytest.mark.parametrize("sizes", [(0, 3, 1), (3, 0, 1), (2, 2, 0),
                                       (-1, 2, 1)])
    def test_size_below_one_rejected(self, sizes):
        with pytest.raises(DimensionError, match="sizes must be >= 1"):
            generate_instance(*sizes, seed=1)

    def test_non_integral_size_rejected(self):
        assert_raises_exactly(lambda: generate_instance(2.5, 2, 1, seed=1),
                              DimensionError, "rows must be an integer, got 2.5")

    @pytest.mark.parametrize("bounds,name", [
        ({"low": float("nan")}, "low"), ({"high": float("-inf")}, "high"),
        ({"low": float("inf"), "high": float("inf")}, "low")])
    def test_non_finite_bound_rejected(self, bounds, name):
        with pytest.raises(NumericError, match=f"{name} must be finite"):
            generate_instance(1, 2, 1, seed=1, **bounds)

    @pytest.mark.parametrize("kwargs, error, message", [
        ({"seed": -1}, DimensionError, "seed must be >= 0, got -1"),
        ({"low": 1.0, "high": -1.0}, NumericError,
         "high - low must be finite and >= 0, got low=1.0, high=-1.0"),
        ({"low": -1e308, "high": 1e308}, NumericError,
         "high - low must be finite and >= 0, got low=-1e+308, high=1e+308"),
    ])
    def test_seed_and_span_rejection_class_and_message(self, kwargs, error,
                                                       message):
        assert_raises_exactly(lambda: generate_instance(2, 2, 1, **kwargs),
                              error, message)

    @pytest.mark.parametrize("argv, code, line", [
        (["--seed", "-1"], 1, "error: seed must be >= 0, got -1"),
        (["--low", "1", "--high", "-1"], 2, "numerical failure: high - low "
         "must be finite and >= 0, got low=1.0, high=-1.0"),
        (["--low=-1e308", "--high=1e308"], 2, "numerical failure: high - low "
         "must be finite and >= 0, got low=-1e+308, high=1e+308"),
    ])
    def test_gen_seed_and_span_errors_exit_without_traceback(
            self, tmp_path, capsys, argv, code, line):
        out = tmp_path / "inst.txt"
        assert main(["gen", "2", "2", *argv, "-o", str(out)]) == code
        assert capsys.readouterr().err == line + "\n"
        assert not out.exists()

    def test_gen_writes_to_stdout(self, capsys):
        assert main(["gen", "2", "3", "--spins", "2", "--seed", "4"]) == 0
        captured = capsys.readouterr()
        assert captured.out == generate_instance(2, 3, 2, seed=4)
        assert captured.err == ""

    def test_gen_takes_low_and_high(self, tmp_path):
        out = tmp_path / "inst.txt"
        assert main(["gen", "3", "2", "--seed", "8", "--fields",
                     "--low=-0.25", "--high", "0.5", "-o", str(out)]) == 0
        assert out.read_text() == generate_instance(
            3, 2, 1, seed=8, low=-0.25, high=0.5, with_fields=True)

    @pytest.mark.parametrize("argv,name", [
        (["--low", "nan"], "low"), (["--low", "inf", "--high", "inf"], "low"),
        (["--high=-inf"], "high")])
    def test_gen_non_finite_bound_is_a_usage_error(self, tmp_path, capsys,
                                                   argv, name):
        out = tmp_path / "inst.txt"
        assert main(["gen", "1", "2", *argv, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"argument --{name}: must be finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["0", "3"], ["2", "2", "--spins", "0"]])
    def test_gen_size_below_one_exits_one(self, tmp_path, capsys, argv):
        out = tmp_path / "inst.txt"
        assert main(["gen", *argv, "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert "sizes must be >= 1" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_gen_subcommand_writes_file(self, tmp_path):
        out = tmp_path / "inst.txt"
        code = main(["gen", "3", "3", "--spins", "1", "--seed", "7",
                     "-o", str(out)])
        assert code == 0
        assert parse_ising(out.read_text()).n_spins == 9

    def test_generated_lone_spin_solves(self, tmp_path):
        # the triple format takes the spin count from the largest index
        # seen, so a lone spin's file must still name it
        instance, out = tmp_path / "inst.txt", tmp_path / "sol.json"
        assert main(["gen", "1", "1", "-o", str(instance)]) == 0
        assert main(["solve", str(instance), "--topology", "1", "1", "1",
                     "-o", str(out)]) == 0
        assert json.loads(out.read_text())["best_energy"] == 0.0

    def test_module_entry_point_warns_nothing(self):
        # importing the package must not import the CLI module, or
        # ``python -m kingspeps.cli`` warns that it is already loaded
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "kingspeps.cli", "gen", "2", "2", "--spins", "1", "--seed", "1"],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True,
            text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert parse_ising(done.stdout).n_spins == 4


class TestVerbosity:
    @pytest.mark.parametrize("argv,count", [
        (["-v", "gen", "2", "2"], 1), (["gen", "2", "2", "-v"], 1),
        (["-vv", "solve", "x"], 2), (["solve", "x", "-vv"], 2),
        (["--verbose", "solve", "x"], 1), (["solve", "x", "--verbose"], 1)])
    def test_counted_before_and_after_subcommand(self, argv, count):
        assert _build_parser().parse_args(argv).verbose == count

    @pytest.mark.parametrize("argv,count", [
        (["-v", "solve", "x", "-v"], 2), (["-v", "gen", "2", "2", "-vv"], 3)])
    def test_counts_on_both_sides_add(self, argv, count):
        assert _build_parser().parse_args(argv).verbose == count

    def test_main_runs_with_verbose(self, tmp_path):
        out = tmp_path / "inst.txt"
        assert main(["gen", "2", "2", "--seed", "1", "-o", str(out),
                     "-vv"]) == 0
        assert parse_ising(out.read_text()).n_spins == 4


def _write_instance(tmp_path, rows=3, cols=3, t=1, seed=11):
    path = tmp_path / "instance.txt"
    path.write_text(generate_instance(rows, cols, t, seed=seed))
    return path


class TestSolve:
    def test_end_to_end_matches_oracle(self, tmp_path):
        path = _write_instance(tmp_path, seed=11)
        out = tmp_path / "sol.json"
        code = main(["solve", str(path), "--topology", "3", "3", "1",
                     "--transforms", "r0", "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        h = cluster(parse_ising(path.read_text()), ClusterTopology(3, 3, 1))
        assert doc["best_energy"] == pytest.approx(
            exact_spectrum(h).min_energy, rel=1e-9)
        assert doc["energies"] == sorted(doc["energies"])
        assert doc["parameters"]["beta"] == 2.0
        assert doc["parameters"]["bond_dim"] == 16
        assert doc["parameters"]["max_states"] == 256
        assert doc["parameters"]["cut_off_prob"] == 1e-4

    def test_reference_parameter_set_accepted_and_echoed(self, tmp_path):
        path = _write_instance(tmp_path, rows=3, cols=3, t=2, seed=12)
        out = tmp_path / "sol.json"
        code = main(["solve", str(path), "--topology", "3", "3", "2",
                     "--beta", "2", "--bond-dim", "16", "--num-sweeps", "1",
                     "--max-states", "256", "--cut-off-prob", "1e-4",
                     "--energy-cutoff", "10", "--hamming-cutoff", "5",
                     "--transforms", "all", "--check-transforms",
                     "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        params = doc["parameters"]
        assert params["energy_cutoff"] == 10.0
        assert params["hamming_cutoff"] == 5
        assert params["droplet_mode"] == "spin"
        assert len(params["transforms"]) == 8
        assert len(params["transform_best_energies"]) == 8

    def test_verbose_logs_droplet_summary(self, tmp_path, caplog):
        path = _write_instance(tmp_path, rows=3, cols=3, t=2, seed=12)
        out = tmp_path / "sol.json"
        with caplog.at_level(logging.INFO, logger="kingspeps"):
            assert main(["-v", "solve", str(path), "--topology", "3", "3",
                         "2", "--transforms", "r0,r90", "-o", str(out)]) == 0
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("droplets:")]
        assert len(lines) == 1
        doc = json.loads(out.read_text())
        attached = sum(map(len, doc["droplets"]))
        assert re.fullmatch(
            rf"droplets: {attached} on {len(doc['states'])} states, \d+ nodes "
            rf"as a tree, {len(doc['droplet_table'])} distinct table entries; "
            rf"{out.stat().st_size} JSON bytes written", lines[0]), lines[0]

    def test_missing_topology_exits_one(self, tmp_path, capsys):
        path = _write_instance(tmp_path)
        assert main(["solve", str(path)]) == 1
        assert "topology" in capsys.readouterr().err

    def test_topology_with_potts_exits_one(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("P 1 1\nn 1 1 1 0.0\n")
        assert main(["solve", str(path), "--format", "potts",
                     "--topology", "1", "1", "1"]) == 1

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.txt"),
                     "--topology", "3", "3", "1"]) == 1

    def test_malformed_instance_exits_one(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n")
        assert main(["solve", str(path), "--topology", "1", "2", "1"]) == 1

    def test_undecodable_instance_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe\x00bad")
        assert main(["solve", str(path), "--topology", "1", "1", "1"]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: byte 0 is not UTF-8 text" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, args, message", [
        ("1 2000000000 1.0", ["--topology", "1", "1", "1"],
         "the field vector of 2000000000 spins has 2000000000 entries, "
         "more than the size guard of 16777216"),
        ("P 100000 100000", ["--format", "potts"],
         "a model of 10000000000 node and 0 edge tables has 10000000000 "
         "entries, more than the size guard of 16777216"),
        ("P 4096 4096", ["--format", "potts", "--transforms", "r0"],
         "the network of a 4096x4096 grid takes up to 1409286160 bytes, "
         "more than the size guard's 134217728"),
    ])
    def test_oversized_tiny_file_exits_one(self, tmp_path, capsys, text,
                                           args, message):
        # a line of text asks for a 15 GiB field vector, a 75 GiB grid,
        # or 2^24 one-state sites: tables the size guard admits, but a
        # network whose index arrays take 1.3 GiB
        path = tmp_path / "tiny.txt"
        path.write_text(text + "\n")
        assert main(["solve", str(path), *args]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_underflowed_log_probabilities_written_as_null(self, tmp_path):
        # a state 1000 above the others at the default beta of 2 has
        # probability exp(-2000), which underflows to 0: a
        # log-probability of -inf
        path = tmp_path / "grid.txt"
        path.write_text("P 1 2\nn 1 1 1 0\nn 1 1 2 1000\nn 1 2 1 0\n"
                        "n 1 2 2 0\n")
        out = tmp_path / "out.json"
        assert main(["solve", str(path), "--format", "potts",
                     "--cut-off-prob", "0", "--transforms", "r0",
                     "-o", str(out)]) == 0
        doc = strict_json(out.read_text())
        assert doc["energies"] == [0.0, 0.0, 1000.0, 1000.0]
        assert doc["log_probabilities"][2:] == [None, None]
        assert all(p < 0 for p in doc["log_probabilities"][:2])

    def test_wrong_topology_exits_one(self, tmp_path):
        path = _write_instance(tmp_path, rows=3, cols=3, t=1)
        assert main(["solve", str(path), "--topology", "2", "2", "1"]) == 1

    def test_unknown_transform_exits_one(self, tmp_path):
        path = _write_instance(tmp_path)
        assert main(["solve", str(path), "--topology", "3", "3", "1",
                     "--transforms", "r45"]) == 1

    @pytest.mark.parametrize("spec", ["r0,r0", "r0, r0", ",", "", "r0,"])
    def test_bad_transform_list_exits_one(self, tmp_path, capsys, spec):
        path = _write_instance(tmp_path, rows=2, cols=2)
        assert main(["solve", str(path), "--topology", "2", "2", "1",
                     "--transforms", spec,
                     "-o", str(tmp_path / "sol.json")]) == 1
        assert "empty or repeated transform name" in capsys.readouterr().err
        assert not (tmp_path / "sol.json").exists()

    def test_overflowing_float32_weights_exit_two(self, tmp_path, capsys):
        path = _write_instance(tmp_path, rows=3, cols=3, t=3, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["solve", str(path), "--topology", "3", "3", "3",
                         "--beta", "16", "--precision", "float32",
                         "--transforms", "r0"]) == 2
        assert "weight table of row pair" in capsys.readouterr().err

    @pytest.mark.parametrize("case, message", [
        ("cast", "Boltzmann weight overflows float32; reduce beta or "
         "use float64"),
        ("right-tables", "weight table of row 1 at column 3 overflows "
         "float32; reduce beta or use float64"),
    ], ids=["cast", "right-tables"])
    def test_float32_overflow_is_one_numerical_failure(self, tmp_path, capsys,
                                                       case, message):
        # the float32 cast of a weight, and a product of weights that no
        # row product covers, each overflow before the search starts
        if case == "cast":
            path = _write_instance(tmp_path, rows=3, cols=3, t=2, seed=1)
            args = ["--topology", "3", "3", "2", "--beta", "50"]
        else:
            path = tmp_path / "potts.txt"
            path.write_text("P 2 3\n" + "".join(
                f"n {r} {c} 1 -45\nn {r} {c} 2 0\n"
                for r in (1, 2) for c in (1, 2, 3))
                + "e 1 1 1 2 1 1 -45\ne 1 2 1 3 1 1 -45\n")
            args = ["--format", "potts", "--beta", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["solve", str(path), *args, "--precision", "float32",
                         "--transforms", "r0"]) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines()
                if "numerical failure" in line] == [
                    f"numerical failure: {message}"]

    def test_usage_error_exits_one(self):
        assert main(["solve"]) == 1

    @pytest.mark.parametrize("beta", ["0", "-1", "nan", "inf", "-inf"])
    def test_invalid_beta_is_a_usage_error(self, tmp_path, capsys, beta):
        path = _write_instance(tmp_path, rows=2, cols=2)
        assert main(["solve", str(path), "--topology", "2", "2", "1",
                     f"--beta={beta}"]) == 1
        err = capsys.readouterr().err
        assert "argument --beta: must be positive and finite" in err
        assert "numerical failure" not in err

    def test_non_finite_instance_value_exits_one(self, tmp_path, capsys):
        path = tmp_path / "nan.txt"
        path.write_text("1 1 0.5\n1 2 nan\n")
        assert main(["solve", str(path), "--topology", "1", "2", "1"]) == 1
        err = capsys.readouterr().err
        assert "line 2: non-finite value in '1 2 nan'" in err
        assert "numerical failure" not in err

    @pytest.mark.parametrize("cutoff", ["nan", "-1"])
    def test_invalid_energy_cutoff_exits_one(self, tmp_path, capsys, cutoff):
        path = _write_instance(tmp_path, rows=2, cols=2)
        out = tmp_path / "sol.json"
        assert main(["solve", str(path), "--topology", "2", "2", "1",
                     f"--energy-cutoff={cutoff}", "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert "energy_cutoff must be >= 0" in err
        assert not out.exists()

    def test_overflowing_beta_exits_two(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("1 1 -1000.0\n2 2 0.0\n")
        assert main(["solve", str(path), "--topology", "1", "2", "1",
                     "--beta", "5"]) == 2

    def test_sign_flipped_environment_solves_every_transform(self, tmp_path,
                                                             caplog):
        # at chi=16, r0, r90 and r270f compress row 1's environment of this
        # instance to about -f: every weight of site (1, 1) is negative.
        # Other sites get single negative weights; zeroing them would lose
        # the ground state on five transforms
        path = _write_instance(tmp_path, rows=4, cols=4, t=3, seed=9)
        out = tmp_path / "sol.json"
        with caplog.at_level(logging.DEBUG, logger="kingspeps"):
            assert main(["-vv", "solve", str(path), "--topology", "4", "4",
                         "3", "--beta", "2", "--bond-dim", "16",
                         "--check-transforms", "-o", str(out)]) == 0
        energies = json.loads(out.read_text())["parameters"][
            "transform_best_energies"]
        assert list(energies.values()) == [-71.42870436925122] * 8
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("took the magnitude of ")]
        assert any(m.endswith(" at (1, 1)") for m in lines), lines

    def test_deterministic_output_modulo_timestamp(self, tmp_path):
        path = _write_instance(tmp_path, seed=13)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["solve", str(path), "--topology", "3", "3", "1",
                         "--transforms", "r0,r90", "-o", str(out)]) == 0
            outs.append(re.sub(r'"generated_at": "[^"]*"', '', out.read_text()))
        assert outs[0] == outs[1]

    def test_stdout_output(self, tmp_path, capsys):
        path = _write_instance(tmp_path, rows=2, cols=2)
        code = main(["solve", str(path), "--topology", "2", "2", "1",
                     "--transforms", "r0"])
        assert code == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert "best_energy" in doc
        assert "Best energy found" in captured.err

    def test_float32_precision_smoke(self, tmp_path):
        path = _write_instance(tmp_path, seed=14)
        out64 = tmp_path / "s64.json"
        out32 = tmp_path / "s32.json"
        main(["solve", str(path), "--topology", "3", "3", "1",
              "--transforms", "r0", "-o", str(out64)])
        main(["solve", str(path), "--topology", "3", "3", "1",
              "--transforms", "r0", "--precision", "float32",
              "-o", str(out32)])
        e64 = json.loads(out64.read_text())["best_energy"]
        e32 = json.loads(out32.read_text())["best_energy"]
        assert e32 == pytest.approx(e64, rel=1e-5)

    def test_check_transforms_names_disagreeing(self, tmp_path, capsys,
                                                monkeypatch):
        import kingspeps.cli as cli
        solve = cli.low_energy_spectrum
        offsets = {"r90": 0.5, "r180f": 1e-9}

        def shifted(h, transform, *args, **kwargs):
            sol = solve(h, transform, *args, **kwargs)
            sol.energies = [e + offsets.get(transform.name, 0.0)
                            for e in sol.energies]
            return sol

        monkeypatch.setattr(cli, "low_energy_spectrum", shifted)
        path = _write_instance(tmp_path, rows=2, cols=2)
        assert main(["solve", str(path), "--topology", "2", "2", "1",
                     "--transforms", "r0,r90,r180f", "--check-transforms",
                     "-o", str(tmp_path / "sol.json")]) == 2
        err = capsys.readouterr().err
        energies = {name: e for name, e in re.findall(r"(r\w+)=(\S+?)[,;]", err)}
        assert set(energies) == {"r0", "r90", "r180f"}
        assert float(energies["r90"]) == pytest.approx(
            float(energies["r0"]) + 0.5)
        culprits = err.split(";", 1)[1]
        assert "r90" in culprits
        assert "r0" not in culprits and "r180f" not in culprits

    def test_check_transforms_raises_typed_error(self):
        with pytest.raises(TransformDisagreementError) as info:
            _check_transforms({"r0": -2.0, "r90": -1.0, "r180": -2.0})
        assert isinstance(info.value, NumericError)
        assert str(info.value).endswith("r90 more than 2e-06 above the best")

    def test_parameters_echo_pinned(self, tmp_path):
        # every key and value of one fixed run, as first recorded
        path = tmp_path / "instance.txt"
        path.write_text(generate_instance(2, 3, 2, seed=5))
        out = tmp_path / "sol.json"
        assert main(["solve", str(path), "--topology", "2", "3", "2",
                     "--beta", "1.5", "--bond-dim", "8", "--num-sweeps", "2",
                     "--max-states", "64", "--cut-off-prob", "1e-3",
                     "--energy-cutoff", "4", "--hamming-cutoff", "2",
                     "--droplet-mode", "potts", "--transforms", "r90f,r0",
                     "--precision", "float32", "-o", str(out)]) == 0
        best = -14.080235227014398
        assert json.loads(out.read_text())["parameters"] == {
            "format": "ising", "topology": [2, 3, 2], "beta": 1.5,
            "bond_dim": 8, "num_sweeps": 2, "max_states": 64,
            "cut_off_prob": 0.001, "energy_cutoff": 4.0, "hamming_cutoff": 2,
            "droplet_mode": "potts", "transforms": ["r90f", "r0"],
            "transform_best_energies": {"r90f": best, "r0": best},
            "precision": "float32"}

    def test_run_config_direct(self, tmp_path):
        path = _write_instance(tmp_path, rows=2, cols=3)
        out = tmp_path / "direct.json"
        assert main(["solve", str(path), "--topology", "2", "3", "1",
                     "--transforms", "r0,r180f", "--max-states", "64",
                     "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["parameters"]["transforms"] == ["r0", "r180f"]


class TestPottsFormat:
    @pytest.mark.parametrize("text, message", [
        ("P 2 3\ne 1 1 1 3 1 1 -1.0",
         "line 2: sites (1, 1) and (1, 3) are not king-adjacent"),
        ("P 2 2\nn 1 1 1 0.0\ne 2 2 2 2 1 1 -1.0",
         "line 3: sites (2, 2) and (2, 2) are not king-adjacent"),
        ("P 2 2\nn 3 1 1 0.0", "line 2: site (3, 1) outside 2x2 grid"),
        ("P 1 2\ne 1 1 1 2 0 1 0.5",
         "line 2: state indices are 1-based, got 0"),
        ("P 1 2\ne 1 1 1 2 1 2 0.5\ne 1 2 1 1 2 1 0.25",
         "line 3: edge entry (1, 1)-(1, 2) states (1, 2) given twice"),
        ("P 1 1\nn 1 1 1 x", "line 2: non-numeric entry in 'n 1 1 1 x'"),
    ])
    def test_record_error_exits_one(self, tmp_path, capsys, text, message):
        path = tmp_path / "grid.txt"
        path.write_text(text + "\n")
        assert main(["solve", str(path), "--format", "potts"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {message}"]

    def test_native_potts_solve(self, tmp_path):
        lines = ["P 2 2"]
        # a frustrated 3-state plaquette with explicit tables
        for r in range(1, 3):
            for c in range(1, 3):
                for s in range(1, 4):
                    lines.append(f"n {r} {c} {s} {0.25 * s}")
        lines.append("e 1 1 1 2 1 1 -1.0")
        lines.append("e 1 1 2 2 2 3 -2.0")
        lines.append("e 2 1 2 2 3 3 0.5")
        path = tmp_path / "grid.txt"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "sol.json"
        code = main(["solve", str(path), "--format", "potts",
                     "--beta", "1.0", "--transforms", "r0", "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        from kingspeps.instance_io import parse_potts
        spec = exact_spectrum(parse_potts(path.read_text()))
        assert doc["best_energy"] == pytest.approx(spec.min_energy, rel=1e-9)
