"""Exact ground states: qubit-Hamiltonian diagonalization and a determinant FCI oracle.

The qubit route restricts the basis to occupation strings with the requested
particle number and S_z before diagonalizing: dense for small blocks,
otherwise LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 517 (2001)) with block
size 1, a Jacobi preconditioner and a seeded start. The sector matrix is
built from the Pauli terms grouped by X mask. A group flips every state by
the same bits, and its value on a state is a sum of signed Z phases whose
sign factors into an alpha-string and a beta-string sign, as in the
string-driven CI of Knowles & Handy, Chem. Phys. Lett. 111, 315 (1984): the
values of a group over the alpha × beta grid are one small matrix product
of two sign tables, and its partners are looked up in a rank table over all
bitstrings. The determinant route does its own MO transform and writes H
through the alpha and beta replacement matrices E_kl = <I|a+_k a_l|J> of the
same string-driven CI, one alpha string at a time. At S_z = 0 it splits H
into the blocks even and odd under swapping the alpha and beta strings, and
diagonalizes the odd block only when a Cholesky test cannot show that it lies
above the even block's lowest eigenvalue. It enumerates its own strings and
never touches the Pauli machinery, so the two paths check each other.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import ConvergenceError, InputError
from .integrals import IntegralSet
from .molecule import Molecule, nuclear_repulsion
from .qubits import QubitHamiltonian
from .scf import SCFResult, run_rhf

MAX_QUBITS = 24
MAX_SECTOR_BYTES = 2 * 2**30
CELL_BLOCK = 1 << 16  # (state, group) cells per sector-matrix block
DENSE_CUTOFF = 600
EIG_TOL = 1e-9
EIG_MAXITER = 500
EIG_SEED = 0


@dataclass(frozen=True)
class GroundState:
    energy: float
    n_qubits: int
    sector: str


def _twice_sz(s_z: float) -> int:
    """2 S_z as an integer; an S_z that is not a multiple of 1/2 is refused."""
    if not float(2 * s_z).is_integer():
        raise InputError(f"s_z={s_z} is not a multiple of 1/2")
    return int(2 * s_z)


def _sector_basis(n_qubits: int, n_electrons: Optional[int], s_z: Optional[float]) -> np.ndarray:
    """Ascending occupation bitstrings in the (N, S_z) sector; None leaves one free.

    Spin orbitals are interleaved (even bit = alpha). Each allowed (n_alpha, n_beta)
    split ORs every alpha string with every beta string, so no other string is built.
    """
    twice_sz = None if s_z is None else _twice_sz(s_z)
    halves = [np.zeros(1, dtype=np.int64)] * 2  # all strings over the even, the odd bits
    for q in range(n_qubits):
        halves[q % 2] = np.concatenate([halves[q % 2], halves[q % 2] | (1 << q)])
    alphas, betas = halves
    n_alpha, n_beta = np.bitwise_count(alphas), np.bitwise_count(betas)
    parts = [(alphas[n_alpha == a, None] | betas[n_beta == b]).ravel()
             for a in range(int(n_alpha.max()) + 1) for b in range(int(n_beta.max()) + 1)
             if n_electrons in (None, a + b) and twice_sz in (None, a - b)]
    return np.sort(np.concatenate([np.zeros(0, dtype=np.int64), *parts]))


def _signs(masks: np.ndarray) -> np.ndarray:
    """(-1) to the number of set bits, as float."""
    return 1.0 - 2.0 * (np.bitwise_count(masks) & 1)


def _sector_blocks(h: QubitHamiltonian, states: np.ndarray, rank: np.ndarray, with_values: bool):
    """Walk the (state, group) cells of the sector in blocks of about CELL_BLOCK.

    A group is the words of one x mask whose phase i^(number of Y) is real,
    or those whose phase is imaginary. Groups of equal word count k form a
    run, cut into chunks of at most CELL_BLOCK // (number of beta strings)
    groups. Within a chunk the states are walked in alpha-then-beta order,
    over the grid of the sector's distinct alpha strings (even bits) and
    distinct beta strings (odd bits), a few alpha strings per block; grid
    cells outside the sector (rank -1) are skipped.

    Yields (pos, partners, imag, values) per block: the rank of each state,
    the rank of each state flipped by each group's x mask (-1 outside the
    sector), which groups are imaginary, and, with_values, each cell's value
    sum_w f_w (-1)^|s∧z_w| over the group's words, where f_w is the
    coefficient times the real sign of i^(number of Y). The sign is a
    product of an alpha and a beta sign, so the values of one group over the
    grid are the matrix product of an (alpha × k) and a (k × beta) table.
    It is evaluated one alpha string at a time, (1 × k) by (k × beta) for
    every group of the chunk in one batched call, so no value depends on the
    block size: numpy hands a single row to a matrix-vector kernel, whose
    rounding differs from the matrix-matrix one.
    """
    x, z = h.x.astype(np.int64), h.z.astype(np.int64)
    n_y = np.bitwise_count(x & z)
    factors = np.where(n_y % 4 < 2, h.coeffs, -h.coeffs)
    imag = n_y % 2 == 1
    order = np.lexsort((imag, x))
    x, z, factors, imag = x[order], z[order], factors[order], imag[order]
    opens_group = np.ones(len(x), dtype=bool)
    opens_group[1:] = (x[1:] != x[:-1]) | (imag[1:] != imag[:-1])
    starts = np.flatnonzero(opens_group)
    sizes = np.diff(np.r_[starts, len(x)])

    alpha_mask = sum(1 << q for q in range(0, h.n_qubits, 2))
    alphas = np.unique(states & alpha_mask)
    betas = np.unique(states & ~alpha_mask)
    per_chunk = max(1, CELL_BLOCK // len(betas))
    for k in np.unique(sizes):
        run = starts[sizes == k]
        for lo in range(0, len(run), per_chunk):
            first = run[lo:lo + per_chunk]
            words = first[:, None] + np.arange(k)
            per_block = max(1, CELL_BLOCK // (len(first) * len(betas)))
            if with_values:
                # (group, alpha, word) and (group, word, beta) tables of (-1)^|s∧z|
                a_table = _signs(z[words][:, None] & alphas[:, None]) * factors[words][:, None]
                b_table = _signs(z[words][:, :, None] & betas)[:, None]
            for a in range(0, len(alphas), per_block):
                cells = (alphas[a:a + per_block, None] | betas).ravel()
                pos = rank[cells]
                inside = pos >= 0
                values = None
                if with_values:
                    grid = np.matmul(a_table[:, a:a + per_block, None], b_table)
                    values = np.ascontiguousarray(grid.reshape(len(first), -1)[:, inside].T)
                yield pos[inside], rank[cells[inside, None] ^ x[first]], imag[first], values


def _assemble_sector_matrix(
    h: QubitHamiltonian, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project the Pauli sum onto the (ascending) sector basis, as CSR (data, indices, indptr).

    Row s holds, for each x-mask group that flips s into the sector, the
    value of the group at s in column rank(s ^ x): a Hermitian operator with
    real coefficients is real symmetric once its imaginary part cancels.
    Flipped states are found through a rank table over all 2^n bitstrings
    (int32, -1 outside the sector). A first pass over the blocks of
    `_sector_blocks` counts the entries of each row and refuses a matrix over
    MAX_SECTOR_BYTES before anything of that size is allocated; a second
    pass writes each row's entries in place, in the caller's state order,
    in the same group order whatever the block size. Each Pauli word
    carries a phase of exactly +-1 or +-i; the imaginary groups must cancel
    on every cell that flips into the sector, and are checked. Only real
    groups are stored and their x masks are distinct, so the columns of a
    row are distinct too.
    """
    dim = len(states)
    rank = np.full(1 << h.n_qubits, -1, dtype=np.int32)
    rank[states] = np.arange(dim, dtype=np.int32)
    per_row = np.zeros(dim, dtype=np.int64)
    nnz = 0
    for pos, partners, imag, _ in _sector_blocks(h, states, rank, with_values=False):
        hit = partners >= 0
        hit[:, imag] = False
        counts = np.count_nonzero(hit, axis=1)
        per_row[pos] += counts
        nnz += int(counts.sum())
        # 12 bytes per entry (float64 value, int32 column), about 40 vectors
        # of the sector dimension (build buffers and eigensolver), and the
        # rank table
        needed = 12 * nnz + 8 * 40 * dim + rank.nbytes
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
    for pos, partners, imag, vals in _sector_blocks(h, states, rank, with_values=True):
        hit = partners >= 0
        if imag.any():
            if np.abs(vals[:, imag][hit[:, imag]]).max(initial=0.0) > 1e-10:
                raise InputError("Hamiltonian is not real in the occupation basis")
            hit[:, imag] = False
        counts = np.count_nonzero(hit, axis=1)
        # state-major, so each row's entries are contiguous and in group order
        cell = np.flatnonzero(hit)
        at = np.repeat(fill[pos] - (np.cumsum(counts) - counts), counts) + np.arange(len(cell))
        indices[at] = partners.ravel()[cell]
        data[at] = vals.ravel()[cell]
        fill[pos] += counts
    return data, indices, indptr.astype(index_type)


def _dense_matrix(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """The CSR arrays as a dense array; a row's columns are distinct, so one assignment fills it."""
    dim = len(indptr) - 1
    mat = np.zeros((dim, dim))
    mat[np.repeat(np.arange(dim), np.diff(indptr)), indices] = data
    return mat


def _lowest_eigenvalue(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray) -> float:
    """Lowest eigenvalue of the CSR matrix by LOBPCG with block size 1 and a Jacobi preconditioner.

    scipy is imported here, so only this route pays for loading it. The
    start is a seeded random unit vector, which overlaps every symmetry
    block, plus the unit vector of the lowest diagonal entry. The residual
    |Hv - Ev| must reach EIG_TOL * max(1, |E|), the bound ARPACK applies.
    """
    import scipy.sparse
    import scipy.sparse.linalg

    dim = len(indptr) - 1
    mat = scipy.sparse.csr_matrix((data, indices, indptr), shape=(dim, dim))
    diag = mat.diagonal()
    start = np.random.default_rng(EIG_SEED).standard_normal(len(diag))
    start /= np.linalg.norm(start)
    start[np.argmin(diag)] += 1.0
    precond = scipy.sparse.diags(1.0 / (diag - diag.min() + 0.1))
    # E lies at or below every diagonal entry, so this is within the bound
    tol = EIG_TOL * max(1.0, -diag.min())
    with warnings.catch_warnings():
        # a missed tolerance is checked and raised below
        warnings.simplefilter("ignore", UserWarning)
        vals, vecs = scipy.sparse.linalg.lobpcg(
            mat, start[:, None], M=precond, tol=tol, maxiter=EIG_MAXITER, largest=False
        )
    energy = float(vals[0])
    vec = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    residual = float(np.linalg.norm(mat @ vec - energy * vec))
    bound = EIG_TOL * max(1.0, abs(energy))
    if not residual <= bound:
        raise ConvergenceError(f"LOBPCG did not converge in {EIG_MAXITER} iterations: "
                               f"residual {residual:.3g} above {bound:.3g}")
    return energy


def ground_state(
    h: QubitHamiltonian,
    n_electrons: Optional[int] = None,
    s_z: Optional[float] = 0.0,
    method: str = "auto",
) -> GroundState:
    """Lowest eigenvalue of the qubit Hamiltonian in an occupation sector.

    With n_electrons=None the full space is searched (s_z is then ignored).
    method: "auto" picks dense diagonalization for small blocks and LOBPCG
    otherwise; "dense"/"sparse" force a route.
    """
    n = h.n_qubits
    if n > MAX_QUBITS:
        raise InputError(f"{n} qubits exceeds the exact-diagonalization limit {MAX_QUBITS}")
    if n_electrons is None and n > 14:
        raise InputError(f"full-space search over {n} qubits is not supported; give a sector")
    states = _sector_basis(n, n_electrons, None if n_electrons is None else s_z)
    sector = "full space" if n_electrons is None else f"(n={n_electrons}, s_z={s_z})"
    if not states.size:
        raise InputError(f"empty sector {sector} for {n} qubits")
    csr = _assemble_sector_matrix(h, states)
    dim = len(states)
    if method == "dense" or (method == "auto" and dim <= DENSE_CUTOFF) or dim < 5:
        energy = float(np.linalg.eigvalsh(_dense_matrix(*csr))[0])
    else:
        energy = _lowest_eigenvalue(*csr)
    return GroundState(energy=energy, n_qubits=n, sector=sector)


# --- determinant-space FCI oracle -----------------------------------------

MAX_FCI_ORBITALS = 8


def _replacement_matrices(k: int, n: int) -> np.ndarray:
    """E[kl, I, J] = <I|a+_k a_l|J> over the ascending n-electron strings of k orbitals."""
    strings = np.flatnonzero(np.bitwise_count(np.arange(1 << k)) == n)
    rank = np.zeros(1 << k, dtype=np.int64)
    rank[strings] = np.arange(len(strings))
    bits = 1 << np.arange(k)
    emptied = strings ^ bits[:, None]  # [l, J]: string J with orbital l flipped
    # a+_k a_l |J> is nonzero when l is in J and k is not in J without l
    p, q, j = np.nonzero((strings & bits[:, None] != 0) & (emptied & bits[:, None, None] == 0))
    passed = (np.bitwise_count(strings[j] & (bits[q] - 1))
              + np.bitwise_count(emptied[q, j] & (bits[p] - 1)))
    e = np.zeros((k, k, len(strings), len(strings)))
    e[p, q, rank[emptied[q, j] | bits[p]], j] = 1.0 - 2.0 * (passed & 1)
    return e.reshape(k * k, len(strings), len(strings))


def _ci_blocks(h: np.ndarray, g: np.ndarray, n_alpha: int, n_beta: int):
    """The CI matrix over MO integrals h and g = (kl|mn), as two blocks (H+, H-) of its spectrum.

    With the alpha and beta replacement matrices E_kl, H = A x 1 + 1 x B +
    sum (kl|mn) E^a_kl x E^b_mn, where A = sum h'_kl E^a_kl + 1/2 sum (kl|mn)
    E^a_kl E^a_mn and h'_kl = h_kl - 1/2 sum_m (km|ml) (Knowles & Handy, Chem.
    Phys. Lett. 111, 315 (1984)). H is built one alpha string i at a time, so
    the whole (I, J, I', J') tensor is never held. With n_alpha = n_beta,
    swapping the strings of |IJ> commutes with H, and the rows go straight into
    the symmetric basis {(|IJ> + |JI>)/sqrt 2, |II>} (H+) and the antisymmetric
    one {(|IJ> - |JI>)/sqrt 2} (H-); otherwise H+ is all of H and H- is empty.
    """
    k = len(h)
    h_eff = (h - 0.5 * np.einsum("kmml->kl", g)).ravel()
    g = g.reshape(k * k, k * k)

    def one_spin(e):  # A or B, and G_kl = sum_mn (kl|mn) E_mn
        ge = (g @ e.reshape(k * k, -1)).reshape(e.shape)
        return np.tensordot(h_eff, e, 1) + 0.5 * np.tensordot(e, ge, ((0, 2), (0, 1))), ge

    e_b = _replacement_matrices(k, n_beta)
    e_a = e_b if n_alpha == n_beta else _replacement_matrices(k, n_alpha)
    a, g_a = one_spin(e_a)
    b = a if e_b is e_a else one_spin(e_b)[0]
    n_a, n_b = len(a), len(b)
    # H[(i, J), (I', J')] = sum_x left[i, I', x] right[x, J, J'] over the k^2 + 2
    # pairs of alpha and beta factors (G^a_kl, E^b_kl), (A, 1) and (1, B)
    left = np.ascontiguousarray(np.concatenate([g_a, [a, np.eye(n_a)]]).transpose(1, 2, 0))
    right = np.concatenate([e_b, [np.eye(n_b), b]]).reshape(k * k + 2, -1)
    if n_alpha != n_beta:
        mat = [(left[i] @ right).reshape(n_a, n_b, n_b).swapaxes(0, 1) for i in range(n_a)]
        return np.concatenate(mat).reshape(n_a * n_b, -1), np.zeros((0, 0))
    sym, anti = np.triu_indices(n_a), np.triu_indices(n_a, 1)  # pairs I <= J, I < J
    plus, minus = np.empty((len(sym[0]), len(sym[0]))), np.empty((len(anti[0]), len(anti[0])))
    for i in range(n_a):
        t = (left[i] @ right[:, i * n_b:]).reshape(n_a, n_b - i, n_b)  # [I', J - i, J']
        swapped = t.transpose(2, 1, 0)  # H[(i, J), (J', I')] at [I', J - i, J']
        plus[sym[0] == i] = (t + swapped)[sym[0], :, sym[1]].T
        minus[anti[0] == i] = (t - swapped)[anti[0], 1:, anti[1]].T
    weight = np.where(sym[0] == sym[1], np.sqrt(0.5), 1.0)  # t + swapped counts |II> twice
    plus *= weight[:, None] * weight
    return plus, minus


def fci_energy(h_ao: np.ndarray, eri_ao: np.ndarray, c: np.ndarray,
               n_alpha: int, n_beta: int) -> float:
    """Lowest electronic energy of n_alpha + n_beta electrons in the orbitals (columns) of c.

    H- of `_ci_blocks` is diagonalized only when (H- - E+) has no Cholesky factor.
    """
    k = c.shape[1]
    if k > MAX_FCI_ORBITALS:
        raise InputError(f"{k} orbitals exceeds the FCI oracle limit {MAX_FCI_ORBITALS}")
    if not (0 <= n_alpha <= k and 0 <= n_beta <= k):
        raise InputError(f"empty determinant space ({n_alpha} alpha and {n_beta} beta "
                         f"electrons) for {k} orbitals")
    g = eri_ao
    for _ in range(4):  # contract the leading AO index; its MO index goes last
        g = np.tensordot(g, c, (0, 0))
    plus, minus = _ci_blocks(c.T @ h_ao @ c, g, n_alpha, n_beta)
    e_plus = float(np.linalg.eigvalsh(plus)[0])
    minus.flat[::len(minus) + 1] -= e_plus
    try:
        np.linalg.cholesky(minus)
    except np.linalg.LinAlgError:  # H- has an eigenvalue at or below E+
        return e_plus + min(0.0, float(np.linalg.eigvalsh(minus)[0]))
    return e_plus


def fci_oracle(mol: Molecule, integrals: IntegralSet, scf: Optional[SCFResult] = None,
               s_z: float = 0.0) -> float:
    """Exact total energy: `fci_energy` in the canonical SCF orbitals plus nuclear repulsion."""
    if scf is None:
        scf = run_rhf(mol, integrals)
    n_e = mol.n_electrons
    twice_sz = _twice_sz(s_z)
    if (n_e + twice_sz) % 2:
        raise InputError(f"s_z={s_z} is impossible for {n_e} electrons")
    n_alpha = (n_e + twice_sz) // 2
    energy = fci_energy(integrals.h_core, integrals.eri, scf.C, n_alpha, n_e - n_alpha)
    return energy + nuclear_repulsion(mol)
