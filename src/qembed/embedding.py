"""Subsystem embedding: projectors, embedded SCF, and energy bookkeeping.

The active occupied orbitals are re-solved self-consistently in the
mean field of the frozen environment density. For a restricted Hartree-Fock
environment the embedding potential g[gamma_act + gamma_env] - g[gamma_act]
is linear in the density, so it is the Coulomb-minus-half-exchange matrix
J - K/2 of gamma_env alone; that one build also gives the environment's
energy and its two-electron interaction with the active density.
Inter-subsystem orthogonality
is enforced either by a level-shift projector (scaled overlap-projected
environment density, fixed across iterations) or by the Huzinaga operator
(anticommutator of the live Fock matrix with the environment density,
rebuilt every cycle). With both subsystems treated at the restricted
Hartree-Fock level the total embedded energy reproduces the full-system
result, which is the main correctness lever used by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InputError, ProjectionError
from .integrals import IntegralSet
from .localize import Partition
from .molecule import Molecule
from .scf import SCFResult, fock_build, run_rhf, two_electron_matrix

ENV_LEAK_FATAL = 0.1
DEFAULT_MU = 1e6


@dataclass(frozen=True)
class EmbeddedProblem:
    """Embedded one-electron Hamiltonian plus all classical energy pieces."""

    h_emb: np.ndarray          # h_core + v_emb + projector
    projector: np.ndarray      # at convergence, for the Huzinaga route
    v_emb: np.ndarray          # J - K/2 of gamma_env
    gamma_act: np.ndarray
    n_act_electrons: int
    E_env: float               # tr(gamma_env h_core) + g(gamma_env)
    g_cross: float             # tr(gamma_act v_emb), nonadditive two-electron energy
    E_correction: float        # tr(gamma_act (v_emb + projector))
    E_nuc: float

    @property
    def classical_energy(self) -> float:
        return self.E_env + self.g_cross - self.E_correction + self.E_nuc


def mu_projector(gamma_env: np.ndarray, s: np.ndarray, mu: float = DEFAULT_MU) -> np.ndarray:
    """Level-shift projector mu * S gamma_env S.

    With the factor-2 closed-shell density convention a pure environment
    orbital is shifted by 2*mu; the large-mu exactness limit is unaffected.
    The product is symmetrized, since its round-off is scaled by mu.
    """
    sgs = s @ gamma_env @ s
    return mu * 0.5 * (sgs + sgs.T)


def huzinaga_projector(fock: np.ndarray, gamma_env: np.ndarray, s: np.ndarray) -> np.ndarray:
    """-1/2 (F gamma_env S + S gamma_env F); flips environment orbital energies."""
    fgs = fock @ gamma_env @ s
    return -0.5 * (fgs + fgs.T)


def environment_populations(c: np.ndarray, gamma_env: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Environment weight of each orbital column; 1 for a pure environment orbital."""
    sgs = s @ gamma_env @ s
    return 0.5 * np.einsum("pi,pq,qi->i", c, sgs, c)


def run_embedded_scf(
    partition: Partition,
    integrals: IntegralSet,
    mol: Molecule,
    projector_kind: str = "huzinaga",
    mu: float = DEFAULT_MU,
) -> tuple[EmbeddedProblem, SCFResult]:
    """Solve the projected active subsystem and assemble its energy constants.

    The returned SCFResult holds the embedded orbitals over the full AO
    basis; the EmbeddedProblem freezes the projector at its converged value
    (for the level-shift route it is constant anyway).
    """
    if projector_kind not in ("huzinaga", "mu"):
        raise InputError(f"unknown projector kind {projector_kind!r}")
    s, eri, h_core = integrals.S, integrals.eri, integrals.h_core
    gamma_act, gamma_env = partition.gamma_act, partition.gamma_env
    n_act = 2 * partition.n_active
    v_emb = two_electron_matrix(gamma_env, eri)
    e_env = float(np.einsum("pq,pq->", gamma_env, h_core)
                  + 0.5 * np.einsum("pq,pq->", gamma_env, v_emb))
    g_cross = float(np.einsum("pq,pq->", gamma_act, v_emb))

    h_bare = h_core + v_emb
    if projector_kind == "mu":
        projector = mu_projector(gamma_env, s, mu)
        h_scf, f_extra = h_bare + projector, None
    else:
        h_scf, f_extra = h_bare, lambda fock: huzinaga_projector(fock, gamma_env, s)
    scf_emb = run_rhf(mol, integrals, h_override=h_scf, n_electrons_override=n_act,
                      f_extra=f_extra, gamma0=gamma_act)
    if projector_kind == "huzinaga":
        projector = huzinaga_projector(fock_build(scf_emb.gamma, h_bare, eri), gamma_env, s)

    leaks = environment_populations(scf_emb.C_occ, gamma_env, s)
    if leaks.size and float(leaks.max()) > ENV_LEAK_FATAL:
        raise ProjectionError(
            f"occupied embedded orbital keeps environment population {leaks.max():.3e}"
        )

    problem = EmbeddedProblem(
        h_emb=h_bare + projector,
        projector=projector,
        v_emb=v_emb,
        gamma_act=gamma_act,
        n_act_electrons=n_act,
        E_env=e_env,
        g_cross=g_cross,
        E_correction=float(np.einsum("pq,pq->", gamma_act, v_emb + projector)),
        E_nuc=mol.e_nuc,
    )
    return problem, scf_emb


def same_level_energy(problem: EmbeddedProblem, gamma_emb_act: np.ndarray,
                      integrals: IntegralSet) -> float:
    """Total energy with both subsystems at the mean-field level.

    The first-order term corrects for the difference between the frozen and
    relaxed active densities; with matching levels of theory this total
    matches the full-system SCF energy.
    """
    h_core, eri = integrals.h_core, integrals.eri
    e_act = float(np.einsum("pq,pq->", gamma_emb_act, h_core)
                  + 0.5 * np.einsum("pq,pq->", gamma_emb_act,
                                    two_electron_matrix(gamma_emb_act, eri)))
    correction = float(np.einsum("pq,pq->", gamma_emb_act - problem.gamma_act,
                                 problem.v_emb + problem.projector))
    return e_act + problem.E_env + problem.g_cross + correction + problem.E_nuc


def drop_environment_orbitals(scf_emb: SCFResult, partition: Partition, s: np.ndarray) -> np.ndarray:
    """Delete the environment-derived orbitals from the embedded MO set.

    Exactly as many orbitals are removed as the partition's environment
    holds, chosen by largest environment population; occupied active
    orbitals and all remaining virtuals are kept in energy order. Removal of
    an orbital whose environment weight is below 0.5 signals a projection
    failure.
    """
    n_env = partition.n_env
    if n_env == 0:
        return scf_emb.C
    pops = environment_populations(scf_emb.C, partition.gamma_env, s)
    order = np.argsort(pops)
    dropped = order[-n_env:]
    if float(pops[dropped].min()) < 0.5:
        raise ProjectionError(
            "ambiguous environment orbital removal: smallest selected population "
            f"is {pops[dropped].min():.3f}"
        )
    return scf_emb.C[:, np.sort(order[:-n_env])]
