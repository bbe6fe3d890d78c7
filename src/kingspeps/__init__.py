"""Low-energy configurations of Potts/Ising/QUBO problems on king's graphs.

The workflow: load or build a grid model (clustering an Ising graph if
needed), represent its Boltzmann weights as a 2D tensor network,
contract the network approximately with boundary matrix-product states,
and run a branch-and-bound search over conditional probabilities that
merges equivalent partial configurations and records the localized
excitations the merges absorb.

The package namespace holds what a run needs; everything else is
imported from its own module (``kingspeps.peps``, ``kingspeps.search``
and so on).
"""

from . import errors
from .potts import ClusterTopology, cluster, potts_energy
from .instance_io import generate_instance, parse_ising, write_solution
from .tensor_core import ContractionParams
from .peps import ALL_TRANSFORMS
from .search import (DropletParams, SearchParams, low_energy_spectrum,
                     merge_solutions, unpack_droplets)
from .oracle import exact_spectrum

__version__ = "0.1.0"

__all__ = [
    "ALL_TRANSFORMS", "ClusterTopology", "ContractionParams",
    "DropletParams", "SearchParams", "cluster", "errors", "exact_spectrum",
    "generate_instance", "low_energy_spectrum", "merge_solutions",
    "parse_ising", "potts_energy", "unpack_droplets", "write_solution",
]
