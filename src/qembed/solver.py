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
bitstrings. The determinant route builds the dense configuration-interaction
matrix from Slater-Condon rules as array expressions: determinants are int64
occupation masks, the diagonal comes from the occupation matrix, and blocks
of determinant pairs that differ by one or two spin orbitals read their
indices from the differing bits and their fermionic signs from popcounts
(bit-string determinant CI as in Olsen et al., J. Chem. Phys. 89, 2185
(1988)). It enumerates its own determinants and never touches the Pauli
machinery, so the two paths check each other.
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
FCI_PAIR_BLOCK = 1 << 15  # determinant pairs per Slater-Condon block


def _spin_strings(k: int, n: int, spin: int) -> np.ndarray:
    """Occupation masks of every n-electron string over k spatial orbitals.

    Spatial orbital p sits on spin-orbital bit 2p + spin (even bit = alpha).
    """
    strings = np.arange(1 << k, dtype=np.int64)
    strings = strings[np.bitwise_count(strings) == n]
    return sum(((strings >> p) & 1) << (2 * p + spin) for p in range(k))


def _below(dets: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Number of occupied spin orbitals of each determinant below its single bit."""
    return np.bitwise_count(dets & (bits - 1))


def fci_oracle(
    mol: Molecule,
    integrals: IntegralSet,
    scf: Optional[SCFResult] = None,
    s_z: float = 0.0,
) -> float:
    """Exact total energy by dense diagonalization in the determinant basis.

    Builds its own MO integrals from the canonical SCF orbitals and applies
    Slater-Condon rules directly; shares nothing with the qubit pipeline.
    Determinants are int64 occupation masks over interleaved spin orbitals.
    The pairs j > i are walked in blocks of FCI_PAIR_BLOCK; in each block the
    pairs differing by one or two spin orbitals get their element from the
    antisymmetrized integrals <pq||rs> and the fermionic sign of
    a+_r a+_s a_q a_p, read from popcounts of the occupation below each index.
    """
    if scf is None:
        scf = run_rhf(mol, integrals)
    k = integrals.n_functions
    if k > MAX_FCI_ORBITALS:
        raise InputError(f"{k} orbitals exceeds the FCI oracle limit {MAX_FCI_ORBITALS}")
    n_e = mol.n_electrons
    twice_sz = _twice_sz(s_z)
    if (n_e + twice_sz) % 2:
        raise InputError(f"s_z={s_z} is impossible for {n_e} electrons")
    n_alpha = (n_e + twice_sz) // 2
    n_beta = n_e - n_alpha
    if not (0 <= n_alpha <= k and 0 <= n_beta <= k):
        raise InputError(f"empty determinant space (n={n_e}, s_z={s_z}) for {k} orbitals")
    c = scf.C
    h_mo = c.T @ integrals.h_core @ c
    g_mo = np.einsum("pqrs,pi,qj,rk,sl->ijkl", integrals.eri, c, c, c, c, optimize=True)
    n = 2 * k
    spatial, spin = np.divmod(np.arange(n), 2)
    h_so = np.kron(h_mo, np.eye(2))
    same = spin[:, None] == spin
    # <pq|rs> = (pr|qs) when p, r and q, s share a spin
    chem = g_mo[np.ix_(spatial, spatial, spatial, spatial)] * same[:, :, None, None] * same
    phys = chem.transpose(0, 2, 1, 3)
    anti = phys - phys.transpose(0, 1, 3, 2)
    # <pq||pq> and, for singles, <pq||rq> gathered as [p, r, q]
    pair_energy = np.einsum("pqpq->pq", anti)
    single_field = np.einsum("pqrq->prq", anti)

    dets = (_spin_strings(k, n_alpha, 0)[:, None] | _spin_strings(k, n_beta, 1)).ravel()
    dim = len(dets)
    occ = ((dets[:, None] >> np.arange(n)) & 1).astype(float)
    mat = np.zeros((dim, dim))
    mat.flat[::dim + 1] = occ @ np.diag(h_so) + 0.5 * ((occ @ pair_energy) * occ).sum(axis=1)
    # pair t = (i, j > i) in row-major order; row i starts at row_start[i]
    row_len = np.arange(dim - 1, -1, -1)
    row_start = np.cumsum(row_len) - row_len
    n_pairs = dim * (dim - 1) // 2
    for lo in range(0, n_pairs, FCI_PAIR_BLOCK):
        t = np.arange(lo, min(lo + FCI_PAIR_BLOCK, n_pairs))
        i = np.searchsorted(row_start, t, side="right") - 1
        j = t - row_start[i] + i + 1
        n_diff = np.bitwise_count(dets[i] ^ dets[j])

        # singles: a+_r a_p |D_i> = sign |D_j>
        hit = n_diff == 2
        i1, j1 = i[hit], j[hit]
        d = dets[i1]
        p_bit, r_bit = d & ~dets[j1], dets[j1] & ~d
        p, r = np.bitwise_count(p_bit - 1), np.bitwise_count(r_bit - 1)
        sign = 1.0 - 2.0 * ((_below(d, p_bit) + _below(d ^ p_bit, r_bit)) & 1)
        val = sign * (h_so[p, r] + (occ[i1] * single_field[p, r]).sum(axis=1))
        mat[np.r_[i1, j1], np.r_[j1, i1]] = np.r_[val, val]

        # doubles: a+_r a+_s a_q a_p |D_i> = sign |D_j>, with p < q and r < s
        hit = n_diff == 4
        i2, j2 = i[hit], j[hit]
        d = dets[i2]
        removed, added = d & ~dets[j2], dets[j2] & ~d
        p_bit, r_bit = removed & -removed, added & -added
        q_bit, s_bit = removed ^ p_bit, added ^ r_bit
        p, q, r, s = (np.bitwise_count(b - 1) for b in (p_bit, q_bit, r_bit, s_bit))
        d_pq = d ^ p_bit ^ q_bit
        exponent = (_below(d, p_bit) + _below(d ^ p_bit, q_bit)
                    + _below(d_pq, s_bit) + _below(d_pq, r_bit))
        val = (1.0 - 2.0 * (exponent & 1)) * anti[p, q, r, s]
        mat[np.r_[i2, j2], np.r_[j2, i2]] = np.r_[val, val]
    return float(np.linalg.eigvalsh(mat)[0]) + nuclear_repulsion(mol)
