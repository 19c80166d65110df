"""Projection-based embedding of molecular subsystems into qubit Hamiltonians.

Pipeline: geometry -> STO-3G integrals -> restricted Hartree-Fock ->
occupied-orbital localization and active/environment split -> projected
embedded SCF -> Jordan-Wigner qubit Hamiltonian plus classical energy
constants -> optional exact ground state.
"""

from .basis import BasisSet, build_basis
from .embedding import (
    EmbeddedProblem,
    drop_environment_orbitals,
    embedding_potential,
    huzinaga_projector,
    mu_projector,
    run_embedded_scf,
    same_level_energy,
    wf_in_lowlevel_constant,
)
from .exceptions import (
    ConvergenceError,
    InputError,
    PartitionError,
    ProjectionError,
    QembedError,
)
from .integrals import IntegralSet, compute_integrals
from .localize import (
    Partition,
    assign_by_population,
    population_localize,
    spade_partition,
)
from .molecule import Molecule, load_xyz, nuclear_repulsion, parse_xyz
from .qubits import (
    FermionOperator,
    MOIntegrals,
    QubitHamiltonian,
    jordan_wigner,
    mo_transform,
    second_quantize,
)
from .scf import SCFResult, run_rhf
from .solver import GroundState, fci_oracle, ground_state

__version__ = "0.1.0"

__all__ = [
    "BasisSet",
    "ConvergenceError",
    "EmbeddedProblem",
    "FermionOperator",
    "GroundState",
    "InputError",
    "IntegralSet",
    "MOIntegrals",
    "Molecule",
    "Partition",
    "PartitionError",
    "ProjectionError",
    "QembedError",
    "QubitHamiltonian",
    "SCFResult",
    "assign_by_population",
    "build_basis",
    "compute_integrals",
    "drop_environment_orbitals",
    "embedding_potential",
    "fci_oracle",
    "ground_state",
    "huzinaga_projector",
    "jordan_wigner",
    "load_xyz",
    "mo_transform",
    "mu_projector",
    "nuclear_repulsion",
    "parse_xyz",
    "population_localize",
    "run_embedded_scf",
    "run_rhf",
    "same_level_energy",
    "second_quantize",
    "spade_partition",
    "wf_in_lowlevel_constant",
]
