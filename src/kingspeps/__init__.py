"""Low-energy configurations of Potts/Ising/QUBO problems on king's graphs.

The workflow: load or build a grid model (clustering an Ising graph if
needed), represent its Boltzmann weights as a 2D tensor network,
contract the network approximately with boundary matrix-product states,
and run a branch-and-bound search over conditional probabilities that
merges equivalent partial configurations and records the localized
excitations the merges absorb.
"""

from . import errors
from .ising import IsingGraph, ising_energy
from .potts import (ClusterTopology, PottsHamiltonian, cluster,
                    cluster_spin_values, decode, encode, king_adjacent,
                    potts_energy)
from .instance_io import (generate_instance, parse_ising, parse_potts,
                          serialize_ising, solution_to_dict, write_solution)
from .tensor_core import (BoundaryMps, ContractionParams, compress,
                          left_canonicalize, overlap, svd_truncate)
from .peps import (ALL_TRANSFORMS, LatticeTransform, PepsNetwork,
                   bottom_environments, build_network,
                   conditional_distribution, contract_network)
from .search import (Branches, Droplet, DropletParams, SearchParams,
                     Solution, boundary_sites, branch, low_energy_spectrum,
                     merge_and_collect, merge_solutions, prune,
                     unpack_droplets)
from .oracle import (ExactSpectrum, config_energies, exact_conditional,
                     exact_spectrum)

__version__ = "0.1.0"

__all__ = [
    "ALL_TRANSFORMS", "BoundaryMps", "Branches", "ClusterTopology",
    "ContractionParams",
    "Droplet", "DropletParams", "ExactSpectrum",
    "IsingGraph", "LatticeTransform", "PepsNetwork",
    "PottsHamiltonian", "SearchParams", "Solution",
    "bottom_environments", "boundary_sites", "branch",
    "build_network", "cluster", "cluster_spin_values", "compress",
    "conditional_distribution", "config_energies", "contract_network",
    "decode", "encode", "errors", "exact_conditional", "exact_spectrum",
    "generate_instance", "ising_energy", "king_adjacent",
    "left_canonicalize", "low_energy_spectrum", "merge_and_collect",
    "merge_solutions", "overlap", "parse_ising", "parse_potts",
    "potts_energy", "prune", "serialize_ising",
    "solution_to_dict", "svd_truncate", "unpack_droplets", "write_solution",
]
