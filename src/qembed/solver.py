"""Exact ground states: qubit-Hamiltonian diagonalization and a determinant FCI oracle.

The qubit route restricts the basis to occupation strings with the requested
particle number and S_z before diagonalizing (sparse Lanczos with a seeded
start vector, dense fallback for small blocks). The sector matrix is built
from the Pauli words grouped by X mask: each group flips every sector state
by the same bits, found by binary search in the ascending state array, and
weights it by a sum of signed Z phases, after the string-driven sigma build
of Knowles & Handy, Chem. Phys. Lett. 111, 315 (1984). The determinant route
builds the configuration-interaction matrix from Slater-Condon rules over
spin orbitals and never touches the Pauli machinery, so the two paths check
each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .exceptions import ConvergenceError, InputError
from .integrals import IntegralSet
from .molecule import Molecule, nuclear_repulsion
from .qubits import QubitHamiltonian
from .scf import SCFResult, run_rhf

MAX_QUBITS = 24
MAX_SECTOR_BYTES = 2 * 2**30
SIGN_BLOCK = 1 << 20  # (state, word) pairs per sign-matrix block
DENSE_CUTOFF = 600
EIG_TOL = 1e-9
LANCZOS_SEED = 0


@dataclass(frozen=True)
class GroundState:
    energy: float
    n_qubits: int
    sector: str


def _sector_basis(n_qubits: int, n_electrons: Optional[int], s_z: Optional[float]) -> np.ndarray:
    """Ascending occupation bitstrings in the requested (N, S_z) sector.

    Spin orbitals are interleaved (even bit = alpha), so S_z of a string is
    half the difference of set even and odd bits. None leaves that quantum
    number free.
    """
    states = np.arange(1 << n_qubits, dtype=np.int64)
    n = np.bitwise_count(states)
    keep = np.ones(states.shape, dtype=bool)
    if n_electrons is not None:
        keep &= n == n_electrons
    if s_z is not None:
        n_alpha = np.bitwise_count(states & np.int64(0x5555555555555555))
        keep &= 2 * n_alpha.astype(np.int64) - n == round(2 * s_z)
    return states[keep]


def _x_mask_groups(h: QubitHamiltonian) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Parse every Pauli word into (x, z) masks and group the words by x.

    Returns (x, z, factors) per distinct x mask. factors has one row per word:
    its coefficient times the real sign of its phase i^(number of Y), in
    column 0 for an even Y count (real phase) and in column 1 for an odd one
    (imaginary phase).
    """
    words = list(h.terms)
    letters = np.frombuffer("".join(words).encode("ascii"), dtype=np.uint8)
    letters = letters.reshape(len(words), h.n_qubits)
    bits = np.int64(1) << np.arange(h.n_qubits, dtype=np.int64)
    is_y = letters == ord("Y")
    x = np.where(is_y | (letters == ord("X")), bits, 0).sum(axis=1)
    z = np.where(is_y | (letters == ord("Z")), bits, 0).sum(axis=1)
    n_y = is_y.sum(axis=1)
    coeffs = np.fromiter(h.terms.values(), dtype=float, count=len(words))
    factors = np.zeros((len(words), 2))
    factors[np.arange(len(words)), n_y % 2] = np.where(n_y % 4 < 2, coeffs, -coeffs)
    order = np.argsort(x, kind="stable")
    x, z, factors = x[order], z[order], factors[order]
    bounds = np.append(np.unique(x, return_index=True)[1], len(x))
    return [(x[lo], z[lo:hi], factors[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _flip_hits(states: np.ndarray, x) -> tuple[np.ndarray, np.ndarray]:
    """Columns j whose flipped state states[j] ^ x is in the sector, and its row indices."""
    flipped = states ^ x
    rows = np.searchsorted(states, flipped)
    np.minimum(rows, len(states) - 1, out=rows)
    cols = np.flatnonzero(states[rows] == flipped)
    return cols, rows[cols]


def _assemble_sector_matrix(h: QubitHamiltonian, states: np.ndarray) -> scipy.sparse.csr_matrix:
    """Project the Pauli sum onto the (ascending) sector basis.

    The words sharing one x mask act as one bit-flip permutation times a
    diagonal sum of signed Z phases, so each group adds at most one entry per
    row and per column and the CSR arrays are filled in place, row by row. A
    first pass counts the entries and refuses a matrix over MAX_SECTOR_BYTES
    before anything of that size is allocated. Each Pauli word carries a
    phase of exactly +-1 or +-i, so real and imaginary contributions
    accumulate separately; the imaginary part must cancel for a Hermitian
    operator with real coefficients and is checked.
    """
    dim = len(states)
    groups = _x_mask_groups(h)
    per_row = np.zeros(dim, dtype=np.int64)
    nnz = 0
    for x, _z, _f in groups:
        cols, _rows = _flip_hits(states, x)
        per_row[cols] += 1  # the hit rows are the hit columns, flipped
        nnz += len(cols)
        # 12 bytes per entry (float64 value, int32 column), plus about 40
        # vectors of the sector dimension: build buffers and the Lanczos basis
        needed = 12 * nnz + 8 * 40 * dim
        if needed > MAX_SECTOR_BYTES:
            raise InputError(
                f"sector of dimension {dim} needs {needed / 2**20:.0f} MB or more for "
                f"its sparse matrix, over the {MAX_SECTOR_BYTES / 2**20:.0f} MB limit"
            )
    indptr = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(per_row, out=indptr[1:])
    index_type = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64
    indices = np.empty(nnz, dtype=index_type)
    data = np.empty(nnz)
    fill = indptr[:-1].copy()
    for x, z, factors in groups:
        cols, rows = _flip_hits(states, x)
        block = max(1, SIGN_BLOCK // len(z))
        for lo in range(0, len(cols), block):
            c, r = cols[lo:lo + block], rows[lo:lo + block]
            signs = 1.0 - 2.0 * (np.bitwise_count(states[c, None] & z) & 1)
            vals = signs @ factors
            if np.abs(vals[:, 1]).max() > 1e-10:
                raise InputError("Hamiltonian is not real in the occupation basis")
            at = fill[r]
            indices[at] = c
            data[at] = vals[:, 0]
            fill[r] += 1
    return scipy.sparse.csr_matrix(
        (data, indices, indptr.astype(index_type)), shape=(dim, dim)
    )


def ground_state(
    h: QubitHamiltonian,
    n_electrons: Optional[int] = None,
    s_z: Optional[float] = 0.0,
    method: str = "auto",
) -> GroundState:
    """Lowest eigenvalue of the qubit Hamiltonian in an occupation sector.

    With n_electrons=None the full space is searched (s_z is then ignored).
    method: "auto" picks dense diagonalization for small blocks and Lanczos
    otherwise; "dense"/"sparse" force a route.
    """
    n = h.n_qubits
    if n > MAX_QUBITS:
        raise InputError(f"{n} qubits exceeds the exact-diagonalization limit {MAX_QUBITS}")
    if n_electrons is None:
        if n > 14:
            raise InputError(f"full-space search over {n} qubits is not supported; give a sector")
        states = _sector_basis(n, None, None)
        sector = "full space"
    else:
        states = _sector_basis(n, n_electrons, s_z)
        sector = f"(n={n_electrons}, s_z={s_z})"
    if not states.size:
        raise InputError(f"empty sector {sector} for {n} qubits")
    mat = _assemble_sector_matrix(h, states)
    dim = len(states)
    if method == "dense" or (method == "auto" and dim <= DENSE_CUTOFF) or dim < 5:
        energy = float(np.linalg.eigvalsh(mat.toarray())[0])
    else:
        rng = np.random.default_rng(LANCZOS_SEED)
        v0 = rng.standard_normal(dim)
        try:
            vals = scipy.sparse.linalg.eigsh(
                mat, k=1, which="SA", v0=v0, tol=EIG_TOL, maxiter=5000
            )[0]
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise ConvergenceError(f"Lanczos did not converge: {exc}") from exc
        energy = float(vals[0])
    return GroundState(energy=energy, n_qubits=n, sector=sector)


# --- determinant-space FCI oracle -----------------------------------------

MAX_FCI_ORBITALS = 8


def _spin_h(h_mo: np.ndarray) -> np.ndarray:
    m = h_mo.shape[0]
    h_so = np.zeros((2 * m, 2 * m))
    h_so[0::2, 0::2] = h_mo
    h_so[1::2, 1::2] = h_mo
    return h_so


def _parity(occupied: tuple[int, ...], removed: list[int], added: list[int]) -> float:
    posr = sum(occupied.index(r) for r in removed)
    final = sorted(set(occupied) - set(removed) | set(added))
    posa = sum(final.index(a) for a in added)
    return -1.0 if (posr + posa) % 2 else 1.0


def fci_oracle(
    mol: Molecule,
    integrals: IntegralSet,
    scf: Optional[SCFResult] = None,
    s_z: float = 0.0,
) -> float:
    """Exact total energy by dense diagonalization in the determinant basis.

    Builds its own MO integrals from the canonical SCF orbitals and applies
    Slater-Condon rules directly; shares nothing with the qubit pipeline.
    """
    if scf is None:
        scf = run_rhf(mol, integrals)
    k = integrals.n_functions
    if k > MAX_FCI_ORBITALS:
        raise InputError(f"{k} orbitals exceeds the FCI oracle limit {MAX_FCI_ORBITALS}")
    c = scf.C
    h_mo = c.T @ integrals.h_core @ c
    g_mo = np.einsum("pqrs,pi,qj,rk,sl->ijkl", integrals.eri, c, c, c, c, optimize=True)
    h_so = _spin_h(h_mo)

    def g_phys(i: int, j: int, a: int, b: int) -> float:
        # <ij|ab> over spin orbitals; chemists' (i a | j b) with spin deltas
        if (i ^ a) & 1 or (j ^ b) & 1:
            return 0.0
        return g_mo[i >> 1, a >> 1, j >> 1, b >> 1]

    n_e = mol.n_electrons
    twice_sz = round(2 * s_z)
    n_alpha = (n_e + twice_sz) // 2
    n_beta = n_e - n_alpha
    dets = []
    for occ_a in combinations(range(k), n_alpha):
        for occ_b in combinations(range(k), n_beta):
            dets.append(tuple(sorted([2 * p for p in occ_a] + [2 * p + 1 for p in occ_b])))
    dim = len(dets)
    mat = np.zeros((dim, dim))
    occ_sets = [frozenset(d) for d in dets]
    for i_det in range(dim):
        occ_i = dets[i_det]
        # diagonal
        e = sum(h_so[p, p] for p in occ_i)
        e += 0.5 * sum(
            g_phys(p, q, p, q) - g_phys(p, q, q, p) for p in occ_i for q in occ_i
        )
        mat[i_det, i_det] = e
        for j_det in range(i_det + 1, dim):
            diff_i = occ_sets[i_det] - occ_sets[j_det]
            if len(diff_i) > 2:
                continue
            diff_j = occ_sets[j_det] - occ_sets[i_det]
            if len(diff_i) == 1:
                (p,) = diff_i
                (r,) = diff_j
                common = occ_sets[i_det] & occ_sets[j_det]
                val = h_so[p, r] + sum(
                    g_phys(p, q, r, q) - g_phys(p, q, q, r) for q in common
                )
                sign = _parity(occ_i, [p], [r])
            else:
                p, q = sorted(diff_i)
                r, s = sorted(diff_j)
                val = g_phys(p, q, r, s) - g_phys(p, q, s, r)
                sign = _parity(occ_i, [p, q], [r, s])
            mat[i_det, j_det] = mat[j_det, i_det] = sign * val
    return float(np.linalg.eigvalsh(mat)[0]) + nuclear_repulsion(mol)
