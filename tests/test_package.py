"""The package namespace: what a run needs, nothing more."""

import inspect

import kingspeps as kp

PUBLIC = {
    "ALL_TRANSFORMS", "ClusterTopology", "ContractionParams", "DropletParams",
    "SearchParams", "cluster", "errors", "exact_spectrum", "generate_instance",
    "low_energy_spectrum", "merge_solutions", "parse_ising", "potts_energy",
    "unpack_droplets", "write_solution",
}


def test_exports_only_the_public_names():
    assert sorted(kp.__all__) == sorted(PUBLIC)
    # importing a submodule binds it on the package, so modules other
    # than ``errors`` are not counted
    names = {name for name, value in vars(kp).items()
             if not name.startswith("_")
             and not (inspect.ismodule(value) and name != "errors")}
    assert names == PUBLIC
