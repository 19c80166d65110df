"""Occupied-orbital localization and active/environment partitioning.

Two partitioning routes are provided: SPADE (SVD of the active-atom block of
the symmetrically orthogonalized occupied coefficients, cut at the largest
gap between consecutive singular values) and a population threshold over
Pipek-Mezey-style localized orbitals using Lowdin charges. Virtual orbitals
are never touched.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet
from .exceptions import ConvergenceError, PartitionError
from .scf import SCFResult, density_matrix

PM_ANGLE_TOL = 1e-8
PM_MAX_SWEEPS = 1000
GAP_TIE_TOL = 1e-12


@dataclass(frozen=True)
class Partition:
    """Occupied-space split into active and environment orbital sets."""

    C_lmo: np.ndarray            # (K, n_occ) localized/rotated occupied coefficients
    n_active: int                # orbitals in gamma_act
    n_env: int                   # orbitals in gamma_env
    gamma_act: np.ndarray
    gamma_env: np.ndarray
    active_aos: tuple[int, ...]
    active_atoms: tuple[int, ...]
    populations: np.ndarray      # per-LMO fraction of Lowdin population on active atoms
    singular_values: np.ndarray = field(default=None)  # SPADE route only


def lowdin_half(s: np.ndarray) -> np.ndarray:
    """S^(1/2) by eigendecomposition."""
    w, v = np.linalg.eigh(s)
    return (v * np.sqrt(w)) @ v.T


def _check_active_atoms(n_atoms: int, active_atoms) -> tuple[int, ...]:
    atoms = tuple(sorted(set(int(a) for a in active_atoms)))
    if not atoms:
        raise PartitionError("active atom set is empty")
    if any(a < 0 or a >= n_atoms for a in atoms):
        raise PartitionError(f"active atom index out of range: {atoms}")
    if len(atoms) == n_atoms:
        raise PartitionError("all atoms marked active: environment would be empty")
    return atoms


def _active_region(basis: BasisSet, active_atoms) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The checked, sorted active atoms and the indices of their AOs."""
    atom_of = basis.atom_of_function()
    atoms = _check_active_atoms(int(atom_of.max()) + 1, active_atoms)
    return atoms, tuple(int(i) for i in np.flatnonzero(np.isin(atom_of, atoms)))


def _fix_signs(c: np.ndarray) -> np.ndarray:
    """Flip each column so that its largest-magnitude coefficient is positive."""
    lead = c[np.argmax(np.abs(c), axis=0), np.arange(c.shape[1])]
    return np.where(lead < 0, -c, c)


def _build_partition(c_lmo, active_idx, env_idx, populations, active_aos,
                     active_atoms, singular_values=None) -> Partition:
    return Partition(
        C_lmo=c_lmo,
        n_active=len(active_idx),
        n_env=len(env_idx),
        gamma_act=density_matrix(c_lmo[:, active_idx]),
        gamma_env=density_matrix(c_lmo[:, env_idx]),
        active_aos=active_aos,
        active_atoms=active_atoms,
        populations=populations,
        singular_values=singular_values,
    )


def spade_partition(scf: SCFResult, s: np.ndarray, basis: BasisSet, active_atoms) -> Partition:
    """Rotate occupied orbitals by the SVD of their active-atom rows and split.

    The right singular vectors order the occupied space by weight on the
    active atoms; the active count is set by the largest drop between
    consecutive singular values (padded with zeros past the row rank). A
    non-unique maximal gap is reported rather than tie-broken.
    """
    active_atoms, active_aos = _active_region(basis, active_atoms)
    c_occ = scf.C_occ
    n_occ = c_occ.shape[1]
    block = (lowdin_half(s) @ c_occ)[list(active_aos), :]
    _, sigma, vt = np.linalg.svd(block, full_matrices=True)
    sigma_full = np.zeros(n_occ)
    sigma_full[: len(sigma)] = sigma
    if n_occ == 1:
        n_act = 1
    else:
        if sigma_full[0] - sigma_full[-1] < GAP_TIE_TOL:
            raise PartitionError(
                "SPADE gap undefined: all singular values equal within tolerance"
            )
        gaps = sigma_full[:-1] - sigma_full[1:]
        n_act = int(np.argmax(gaps)) + 1
        best = gaps[n_act - 1]
        if np.sum(np.abs(gaps - best) < GAP_TIE_TOL) > 1:
            raise PartitionError(
                f"SPADE partition ambiguous: maximal singular-value gap {best:.3e} "
                "is attained more than once"
            )
    # the active rows of S^(1/2) c_occ V are U Sigma, so each rotated orbital's
    # active-atom weight is its squared singular value
    return _build_partition(
        _fix_signs(c_occ @ vt.T), range(n_act), range(n_act, n_occ), sigma_full**2,
        active_aos, active_atoms, singular_values=sigma_full,
    )


def population_localize(scf: SCFResult, s: np.ndarray, basis: BasisSet) -> np.ndarray:
    """Jacobi-sweep maximization of the sum of squared Lowdin atomic charges.

    Operates on occupied orbitals only. Returns the localized coefficient
    matrix (K, n_occ) with a sign convention of positive leading coefficient.
    """
    # build_basis appends AOs atom by atom, so each atom's AOs are one
    # contiguous block and its charges are segment sums from the block start
    starts = np.flatnonzero(np.diff(basis.atom_of_function(), prepend=-1))
    c = scf.C_occ
    k = c.shape[0]
    m = np.vstack([c, lowdin_half(s) @ c])   # [C; S^(1/2) C], rotated together
    for _ in range(PM_MAX_SWEEPS):
        max_angle = 0.0
        for i, j in itertools.combinations(range(c.shape[1]), 2):
            ci, cj = m[k:, i], m[k:, j]
            q_ii, q_jj, q_ij = np.add.reduceat(np.stack([ci * ci, cj * cj, ci * cj]), starts, axis=1)
            d = q_ii - q_jj
            a_ij = q_ij @ q_ij - 0.25 * (d @ d)
            b_ij = q_ij @ d
            if np.hypot(a_ij, b_ij) < 1e-16:
                continue
            angle = 0.25 * np.arctan2(b_ij, -a_ij)
            if abs(angle) < 1e-12:
                continue
            max_angle = max(max_angle, abs(angle))
            cos_g, sin_g = np.cos(angle), np.sin(angle)
            m[:, [i, j]] = m[:, [i, j]] @ np.array([[cos_g, -sin_g], [sin_g, cos_g]])
        if max_angle < PM_ANGLE_TOL:
            return _fix_signs(m[:k])
    raise ConvergenceError(f"orbital localization not converged in {PM_MAX_SWEEPS} sweeps")


def assign_by_population(
    c_lmo: np.ndarray,
    s: np.ndarray,
    basis: BasisSet,
    active_atoms,
    threshold: float = 0.95,
) -> Partition:
    """Assign each localized orbital by its Lowdin population fraction.

    An orbital joins the active set when the fraction of its population on
    active-atom AOs exceeds the threshold (the fraction is normalized, so the
    total population of each orbital counts as 1).
    """
    active_atoms, active_aos = _active_region(basis, active_atoms)
    c_bar = lowdin_half(s) @ c_lmo
    per_orbital = np.sum(c_bar**2, axis=0)
    populations = np.sum(c_bar[list(active_aos), :] ** 2, axis=0) / per_orbital
    is_active = populations > threshold
    active_idx, env_idx = np.flatnonzero(is_active), np.flatnonzero(~is_active)
    if not active_idx.size:
        raise PartitionError(
            f"no orbital exceeds the active-population threshold {threshold}; "
            "consider lowering it to include more orbitals"
        )
    return _build_partition(
        c_lmo, active_idx, env_idx, populations, active_aos, active_atoms
    )
