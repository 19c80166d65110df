"""Restricted Hartree-Fock with DIIS acceleration.

The solver is deliberately generic: the one-electron part can be overridden
and a density/Fock-dependent extra term can be injected each iteration.
Subsystem embedding reuses this loop unchanged, with the projector supplied
through those two hooks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import ConvergenceError, InputError
from .integrals import IntegralSet
from .molecule import Molecule

MAX_ITERATIONS = 200
CONV_GRADIENT = 1e-8
CONV_ENERGY = 1e-10
DIIS_SIZE = 8
S_LINDEP_CUTOFF = 1e-7

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SCFResult:
    C: np.ndarray          # (K, K) MO coefficients, columns S-orthonormal
    eps: np.ndarray        # (K,) orbital energies, ascending
    gamma: np.ndarray      # (K, K) density, trace against S = n_electrons
    fock: np.ndarray       # (K, K) converged Fock matrix (including any hooks)
    E_total: float
    n_occ: int
    n_iterations: int
    history: tuple[float, ...] = ()   # total energy per iteration

    @property
    def C_occ(self) -> np.ndarray:
        return self.C[:, : self.n_occ]


def density_matrix(c_occ: np.ndarray) -> np.ndarray:
    """Closed-shell AO density, 2 * C_occ C_occ^T."""
    return 2.0 * c_occ @ c_occ.T


def two_electron_matrix(gamma: np.ndarray, eri: np.ndarray) -> np.ndarray:
    """Coulomb minus half exchange contracted with a (factor-2) density."""
    n = len(gamma)
    j = (eri.reshape(n * n, n * n) @ gamma.T.ravel()).reshape(n, n)   # sum_rs (pq|rs) gamma_sr
    k = np.tensordot(eri, gamma, ((1, 2), (0, 1)))                     # sum_rs (pr|sq) gamma_rs
    return j - 0.5 * k


def fock_build(gamma: np.ndarray, h: np.ndarray, eri: np.ndarray) -> np.ndarray:
    return h + two_electron_matrix(gamma, eri)


def electronic_energy(gamma: np.ndarray, h: np.ndarray, fock: np.ndarray) -> float:
    """0.5 tr(gamma (h + F)); equals tr(gamma h) + half the two-electron trace."""
    return 0.5 * float(np.einsum("pq,pq->", gamma, h + fock))


def orthogonalizer(s: np.ndarray) -> np.ndarray:
    """Symmetric S^-1/2; falls back to canonical columns if S is near-singular."""
    w, v = np.linalg.eigh(s)
    keep = w > S_LINDEP_CUTOFF
    if not np.any(keep):
        raise ConvergenceError("overlap matrix is numerically singular")
    if np.all(keep):
        return (v / np.sqrt(w)) @ v.T
    return v[:, keep] / np.sqrt(w[keep])


def solve_roothaan(fock: np.ndarray, s: np.ndarray, x: Optional[np.ndarray] = None):
    """Generalized eigenproblem F C = S C eps via symmetric orthogonalization."""
    if x is None:
        x = orthogonalizer(s)
    f_ortho = x.T @ fock @ x
    eps, c_ortho = np.linalg.eigh(f_ortho)
    return x @ c_ortho, eps


class _Diis:
    """Pulay extrapolation over orthogonalized gradient residuals."""

    def __init__(self):
        self.focks: list[np.ndarray] = []
        self.errors: list[np.ndarray] = []

    def extrapolate(self, fock: np.ndarray, error: np.ndarray) -> np.ndarray:
        self.focks.append(fock)
        self.errors.append(error)
        if len(self.focks) > DIIS_SIZE:
            self.focks.pop(0)
            self.errors.pop(0)
        while len(self.focks) > 1:
            n = len(self.focks)
            b = -np.ones((n + 1, n + 1))
            b[-1, -1] = 0.0
            errors = np.reshape(self.errors, (n, -1))
            b[:n, :n] = errors @ errors.T
            rhs = np.zeros(n + 1)
            rhs[-1] = -1.0
            try:
                coeffs = np.linalg.solve(b, rhs)[:n]
            except np.linalg.LinAlgError:
                coeffs = None
            if coeffs is not None and np.max(np.abs(coeffs)) <= 1e6:
                return np.tensordot(coeffs, self.focks, 1)
            # B is singular or near it: drop the oldest pair and retry
            self.focks.pop(0)
            self.errors.pop(0)
        return fock


def run_rhf(
    mol: Molecule,
    integrals: IntegralSet,
    *,
    h_override: Optional[np.ndarray] = None,
    n_electrons_override: Optional[int] = None,
    f_extra: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    gamma0: Optional[np.ndarray] = None,
) -> SCFResult:
    """Converge the closed-shell SCF fixed point.

    h_override replaces the core Hamiltonian (embedding potential and static
    projectors enter this way); f_extra(fock) is evaluated every cycle
    and added to the Fock matrix (for projectors that depend on the live Fock
    matrix). Convergence requires both the orbital gradient norm below 1e-8
    and the energy change below 1e-10. Each iteration is logged at DEBUG level.
    """
    n_electrons = mol.n_electrons if n_electrons_override is None else n_electrons_override
    if n_electrons % 2 != 0:
        raise InputError(f"odd electron count {n_electrons} in restricted SCF")
    n_occ = n_electrons // 2
    h = integrals.h_core if h_override is None else h_override
    s = integrals.S
    eri = integrals.eri
    e_nuc = mol.e_nuc
    x = orthogonalizer(s)

    if gamma0 is None:
        c, _ = solve_roothaan(h, s, x)
        gamma = density_matrix(c[:, :n_occ])
    else:
        gamma = gamma0

    def fock_and_energy(gamma):
        fock = fock_build(gamma, h, eri)
        if f_extra is not None:
            fock = fock + f_extra(fock)
        return fock, electronic_energy(gamma, h, fock)

    diis = _Diis()
    energy = 0.0
    history: list[float] = []
    for iteration in range(1, MAX_ITERATIONS + 1):
        fock, e_elec = fock_and_energy(gamma)
        grad = fock @ gamma @ s - s @ gamma @ fock
        error = x.T @ grad @ x   # the orbital gradient in the orthogonal basis
        grad_norm = np.linalg.norm(error)
        de = e_elec - energy
        energy = e_elec
        history.append(e_elec + e_nuc)
        _log.debug("  scf iter %3d  E=%+.12f  dE=%+.3e  |grad|=%.3e",
                   iteration, e_elec + e_nuc, de, grad_norm)
        if iteration > 1 and grad_norm < CONV_GRADIENT and abs(de) < CONV_ENERGY:
            # rebuild the final quadruple from the converged orbitals so that
            # gamma = 2 C_occ C_occ^T holds exactly, not just to SCF tolerance
            c, eps = solve_roothaan(fock, s, x)
            gamma = density_matrix(c[:, :n_occ])
            fock, e_elec = fock_and_energy(gamma)
            history.append(e_elec + e_nuc)
            return SCFResult(
                C=c, eps=eps, gamma=gamma, fock=fock,
                E_total=e_elec + e_nuc,
                n_occ=n_occ, n_iterations=iteration,
                history=tuple(history),
            )
        c, eps = solve_roothaan(diis.extrapolate(fock, error), s, x)
        gamma = density_matrix(c[:, :n_occ])

    raise ConvergenceError(
        f"SCF did not converge in {MAX_ITERATIONS} iterations "
        f"(last |grad| = {grad_norm:.3e}, dE = {de:.3e})"
    )
