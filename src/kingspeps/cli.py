"""Command-line entry point.

Two subcommands: ``solve`` ingests an instance, clusters it if needed,
runs the search per requested transform (each with its own boundary
contraction), merges the per-transform solutions, and writes the JSON
document; ``gen`` produces random king's-graph test instances in the
Ising triple format, deterministic under a seed.

Exit codes: 0 success, 1 parse/validation problems, 2 numerical or
contraction failures. Progress goes to stderr so stdout stays
machine-readable.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from pathlib import Path

import numpy as np

from .errors import (NumericError, ParseError, SolverError,
                     TransformDisagreementError)
from .instance_io import (droplet_table, generate_instance, parse_ising,
                          parse_potts, write_solution)
from .peps import ALL_TRANSFORMS, LatticeTransform
from .potts import ClusterTopology, cluster
from .search import (DropletParams, SearchParams, low_energy_spectrum,
                     merge_solutions)
from .tensor_core import ContractionParams

logger = logging.getLogger("kingspeps")

_TRANSFORM_BY_NAME = {t.name: t for t in ALL_TRANSFORMS}


class UsageError(Exception):
    """Bad command line or inconsistent options."""


def _resolve_transforms(spec: str) -> list[LatticeTransform]:
    names = [part.strip() for part in spec.split(",")]
    if "" in names or len(set(names)) != len(names):
        raise UsageError(f"empty or repeated transform name in {spec!r}")
    if "all" in names:
        return list(ALL_TRANSFORMS)
    for name in names:
        if name not in _TRANSFORM_BY_NAME:
            raise UsageError(
                f"unknown transform {name!r}; choose from "
                f"{', '.join(_TRANSFORM_BY_NAME)} or 'all'")
    return [_TRANSFORM_BY_NAME[name] for name in names]


def _log_droplets(solution, written: int) -> None:
    """One INFO line: droplets on the states, the nodes they span as a
    tree, the distinct entries of the JSON's table and its size."""
    table, indices = droplet_table(solution.droplets)
    tree = []  # entries come children first
    for entry in table:
        tree.append(1 + sum(tree[j] for j in entry["sub_droplets"]))
    logger.info("droplets: %d on %d states, %d nodes as a tree, "
                "%d distinct table entries; %d JSON bytes written",
                sum(map(len, indices)), len(indices),
                sum(tree[i] for per_state in indices for i in per_state),
                len(table), written)


def _check_transforms(best_per_transform: dict) -> None:
    """Raise when a transform's best energy lies above the best one's by
    more than a relative 1e-6."""
    energies = best_per_transform.values()
    best = min(energies)
    tolerance = 1e-6 * max(1.0, max(abs(e) for e in energies))
    culprits = [name for name, e in best_per_transform.items()
                if e - best > tolerance]
    if culprits:
        listing = ", ".join(f"{name}={e!r}" for name, e
                            in best_per_transform.items())
        raise TransformDisagreementError(
            f"transform disagreement: best energies {listing}; "
            f"{', '.join(culprits)} more than {tolerance:g} above the best")


def run(args: argparse.Namespace) -> int:
    """Execute one solve from the parsed ``solve`` options; :func:`main`
    maps the errors it raises to exit codes."""
    if args.format == "ising" and args.topology is None:
        raise UsageError("--topology M N T is required for Ising instances")
    if args.format == "potts" and args.topology is not None:
        raise UsageError("--topology only applies to Ising instances")
    dtype = np.float32 if args.precision == "float32" else np.float64

    try:
        text = Path(args.instance).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{args.instance}: byte {exc.start} is not "
                         f"UTF-8 text ({exc.reason})") from exc
    if args.format == "ising":
        graph = parse_ising(text)
        topo = ClusterTopology(*args.topology)
        hamiltonian = cluster(graph, topo)
        default_mode = "spin"
    else:
        hamiltonian = parse_potts(text)
        default_mode = "potts"
    mode = args.droplet_mode if args.droplet_mode != "auto" else default_mode

    params = ContractionParams(bond_dim=args.bond_dim,
                               num_sweeps=args.num_sweeps, beta=args.beta)
    search_params = SearchParams(max_states=args.max_states,
                                 cut_off_prob=args.cut_off_prob)
    droplet_params = DropletParams(energy_cutoff=args.energy_cutoff,
                                   hamming_cutoff=args.hamming_cutoff,
                                   mode=mode)

    solutions = []
    for transform in _resolve_transforms(args.transforms):
        sol = low_energy_spectrum(hamiltonian, transform, params,
                                  search_params, droplet_params, dtype=dtype)
        logger.info("transform %-6s best energy % .12g",
                    transform.name, sol.best_energy)
        solutions.append(sol)

    merged = merge_solutions(solutions)
    if args.check_transforms:
        _check_transforms(merged.parameters["transform_best_energies"])
    merged.parameters = {"format": args.format, "topology": args.topology,
                         **merged.parameters}

    if args.output:
        written = write_solution(merged, args.output)
        print(f"Best energy found: {merged.best_energy!r}")
    else:
        written = write_solution(merged, sys.stdout)
        print(f"Best energy found: {merged.best_energy!r}", file=sys.stderr)
    if logger.isEnabledFor(logging.INFO):
        _log_droplets(merged, written)
    return 0


def gen(args) -> int:
    text = generate_instance(args.rows, args.cols, args.spins, seed=args.seed,
                             low=args.low, high=args.high,
                             with_fields=args.fields)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _beta(text: str) -> float:
    """``--beta``: a positive finite number, else a usage error."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be positive and finite, "
                                         f"got {text}")
    return value


def _finite(text: str) -> float:
    """``--low``/``--high``: a finite number, else a usage error."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage problems; the contract here is 1
    def error(self, message):
        raise UsageError(message)

    def parse_args(self, args=None, namespace=None):
        # a subcommand is parsed into a fresh namespace that is copied over
        # the top level's, so its -v count has its own dest; add the two
        args = super().parse_args(args, namespace)
        args.verbose += vars(args).pop("sub_verbose", 0)
        return args


def _build_parser() -> _Parser:
    # -v goes before and/or after the subcommand
    parser = _Parser(prog="kingspeps",
                     description="Low-energy configurations of Potts/Ising "
                                 "problems on king's graphs")
    sub_verbosity = argparse.ArgumentParser(add_help=False)
    for owner, dest in ((parser, "verbose"), (sub_verbosity, "sub_verbose")):
        owner.add_argument("-v", "--verbose", action="count", dest=dest,
                           default=0, help="progress on stderr (-vv for debug)")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance",
                           parents=[sub_verbosity])
    solve.add_argument("instance", help="path to the instance file")
    solve.add_argument("--format", choices=("ising", "potts"), default="ising")
    solve.add_argument("--topology", nargs=3, type=int, metavar=("M", "N", "T"),
                       help="cluster grid for Ising instances")
    solve.add_argument("--beta", type=_beta, default=2.0,
                       help="inverse temperature (default 2)")
    solve.add_argument("--bond-dim", type=int, default=16)
    solve.add_argument("--num-sweeps", type=int, default=1)
    solve.add_argument("--max-states", type=int, default=256)
    solve.add_argument("--cut-off-prob", type=float, default=1e-4)
    solve.add_argument("--energy-cutoff", type=float, default=10.0)
    solve.add_argument("--hamming-cutoff", type=int, default=5)
    solve.add_argument("--droplet-mode", choices=("auto", "spin", "potts"),
                       default="auto")
    solve.add_argument("--transforms", default="all",
                       help="comma-separated subset of "
                            f"{','.join(_TRANSFORM_BY_NAME)} or 'all'")
    solve.add_argument("--check-transforms", action="store_true",
                       help="fail when per-transform best energies disagree")
    solve.add_argument("--precision", choices=("float32", "float64"),
                       default="float64")
    solve.add_argument("-o", "--output", help="JSON output path (default stdout)")

    genp = sub.add_parser("gen", help="generate a random test instance",
                          parents=[sub_verbosity])
    genp.add_argument("rows", type=int)
    genp.add_argument("cols", type=int)
    genp.add_argument("--spins", type=int, default=1,
                      help="spins per cluster (default 1)")
    genp.add_argument("--seed", type=int, default=None)
    genp.add_argument("--low", type=_finite, default=-1.0)
    genp.add_argument("--high", type=_finite, default=1.0)
    genp.add_argument("--fields", action="store_true",
                      help="also draw local fields")
    genp.add_argument("-o", "--output")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage().rstrip(), file=sys.stderr)
        return 1

    if args.verbose:
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.DEBUG if args.verbose > 1 else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s")

    try:
        return (gen if args.command == "gen" else run)(args)
    except NumericError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (UsageError, SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
