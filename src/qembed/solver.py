"""Exact ground states: qubit-Hamiltonian diagonalization and a determinant FCI oracle.

The qubit route diagonalizes in one (N, S_z) sector: the grid of its alpha
strings (even qubits) times its beta strings (odd qubits), as in the
string-driven CI of Knowles & Handy, Chem. Phys. Lett. 111, 315 (1984).
Small sectors are solved densely, one Z2 block at a time: the generators
are the GF(2) null space of the x masks (Bravyi, Gambetta, Mezzacapo &
Temme, arXiv:1701.08213), no word couples two states of different parities
under them, and the lowest eigenvalue of any block is the sector's. Larger
sectors are solved whole by a Davidson iteration (Davidson, J. Comput.
Phys. 17, 87 (1975)) in numpy around scipy.sparse's matrix product, with a
shifted diagonal preconditioner and a seeded start.
The sector matrix is built from the Pauli terms grouped by X mask. A group
flips the alpha and the beta string of every state apart,
so a state's partner is the pair of ranks of its two flipped strings, and
the group's value on a state is a sum of signed Z phases whose sign factors
into an alpha-string and a beta-string sign: the values of a group over the
grid are one small matrix product of two sign tables. Only the upper
triangle is stored, as COO arrays. MAX_SECTOR_BYTES is the route's one size
rule, checked in order of cost: 320 bytes per state (the Davidson vectors),
counted from binomials before any string exists; then 32 per cell of the
partner-rank tables (X-mask groups times alpha plus beta strings), before
they are built; then 17 per stored entry and 32 per sign-table cell of the
largest class of groups, before any array of the entry count is allocated.
The determinant route does its own MO transform and writes H through the
alpha and beta replacement matrices E_kl = <I|a+_k a_l|J> of the same
string-driven CI, one alpha string at a time. At S_z = 0 it splits H into
the blocks even and odd under swapping the alpha and beta strings, and
diagonalizes the odd block only when a Cholesky test cannot show that it
lies above the even block's lowest eigenvalue. Its one size rule,
MAX_FCI_BYTES, bounds those dense arrays, counted from binomials before any
string. It enumerates and ranks its own strings and never touches the Pauli
machinery, so the two paths check each other.
"""

from __future__ import annotations

import itertools
import logging
import math
from typing import Optional

import numpy as np

from .exceptions import ConvergenceError, InputError
from .integrals import IntegralSet
from .molecule import Molecule
from .qubits import QubitHamiltonian
from .scf import SCFResult, run_rhf

# a sector needs 320 bytes per state, 32 per cell of its partner-rank tables,
# 17 per stored entry and 32 per cell of its largest sign tables (see
# _check_sector_size and _assemble_sector_matrix), each counted before it is
# built; one under this limit has fewer than 1.27e8 entries and 6.7e6 states,
# so int32 indexes both
MAX_SECTOR_BYTES = 2 * 2**30
DENSE_CUTOFF = 600
EIG_TOL = 1e-9
EIG_MAXITER = 500
EIG_SEED = 0
EIG_SUBSPACE = 12

_log = logging.getLogger(__name__)


def _twice_sz(s_z: float) -> int:
    """2 S_z as an integer; an S_z that is not a multiple of 1/2 is refused."""
    if not float(2 * s_z).is_integer():
        raise InputError(f"s_z={s_z} is not a multiple of 1/2")
    return int(2 * s_z)


def _check_sector_size(dim: int, matrix_bytes: int = 0) -> None:
    """InputError when a sector's vectors plus matrix_bytes need more than MAX_SECTOR_BYTES.

    The vectors are about 40 of the sector dimension, 320 bytes a state: the
    Davidson basis and its images (2 * EIG_SUBSPACE = 24) and a few temporaries.
    """
    needed = 8 * 40 * dim + matrix_bytes
    if needed > MAX_SECTOR_BYTES:
        raise InputError(f"sector of dimension {dim} needs {needed / 2**20:.0f} MB, "
                         f"over the {MAX_SECTOR_BYTES / 2**20:.0f} MB limit")


def _strings(bits: range, n: int) -> np.ndarray:
    """The ascending uint64 strings that set n of the ascending bit positions `bits`.

    They are grown one bit at a time: the strings over the bits so far with c
    set are those without the new bit, then those with c - 1 set plus the new
    bit, which are all larger. A count from which n can no longer be reached
    is dropped, so every string ever held is the low bits of one in the result.
    """
    none = np.zeros(0, dtype=np.uint64)
    by_count = [np.zeros(1, dtype=np.uint64)] + [none] * n
    for seen, q in enumerate(bits, 1):
        bit, fewest = np.uint64(1 << q), n - (len(bits) - seen)
        by_count = [none if c < fewest else by_count[0] if c == 0
                    else np.concatenate([by_count[c], by_count[c - 1] | bit]) for c in range(n + 1)]
    return by_count[n]


def _sector_basis(n_qubits: int, n_electrons: int, s_z: float) -> tuple[np.ndarray, np.ndarray]:
    """The ascending uint64 alpha strings (even bits) and beta strings (odd bits) of a sector.

    Spin orbitals are interleaved (even bit = alpha). State a * len(betas) + b
    of the sector is alphas[a] | betas[b]. The states are counted from
    binomials first: a sector without states, or one whose vectors alone
    exceed MAX_SECTOR_BYTES, raises InputError before any string is built.
    """
    twice_sz = _twice_sz(s_z)
    n_alpha, n_beta = (n_electrons + twice_sz) // 2, (n_electrons - twice_sz) // 2
    orbitals = (n_qubits + 1) // 2, n_qubits // 2  # even, odd qubits
    if (n_electrons + twice_sz) % 2 or not (0 <= n_alpha <= orbitals[0]
                                            and 0 <= n_beta <= orbitals[1]):
        raise InputError(f"empty sector (n={n_electrons}, s_z={s_z}) for {n_qubits} qubits")
    _check_sector_size(math.comb(orbitals[0], n_alpha) * math.comb(orbitals[1], n_beta))
    return _strings(range(0, n_qubits, 2), n_alpha), _strings(range(1, n_qubits, 2), n_beta)


def _signs(masks: np.ndarray) -> np.ndarray:
    """(-1) to the number of set bits, as float."""
    return 1.0 - 2.0 * (np.bitwise_count(masks) & 1)


def _partner_ranks(strings: np.ndarray, flips: np.ndarray) -> np.ndarray:
    """[g, i]: the rank of strings[i] ^ flips[g] among the ascending strings, -1 if it is none.

    int32, as are the partner states built from them: a sector has far fewer than 2^31 states.
    """
    flipped = strings ^ flips[:, None]
    at = np.minimum(np.searchsorted(strings, flipped), len(strings) - 1).astype(np.int32)
    return np.where(strings[at] == flipped, at, np.int32(-1))


def _assemble_sector_matrix(
    h: QubitHamiltonian, alphas: np.ndarray, betas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sector matrix's upper triangle as COO (rows, cols, data), rows and columns int32.

    A sum with an odd-Y word has imaginary elements and is refused before
    anything is built. A group is the words of one x mask: it takes state
    (a, b) to state ra[g, a] * n_beta + rb[g, b], from the ranks of the
    flipped alpha and beta strings (-1 outside the sector). Each pair of
    entries is stored once, in the row of the lower state: group g keeps
    (a, b) where ra[g, a] > a or, when it flips no alpha bit, where
    rb[g, b] >= b. No (row, col) pair appears twice, as the two states of an
    entry differ by its group's x mask. The rank tables are counted before
    they are built, and their kept counts give the entry count and the size of
    every sign table, so a matrix over MAX_SECTOR_BYTES is refused before
    anything of its size is allocated.

    An entry's value is sum_w f_w (-1)^|s∧z_w| at its row's state s, f_w the
    coefficient times the sign of i^(number of Y). That sign is an alpha
    times a beta sign, so a group of k words gives the product of a (kept
    alpha × k) and a (k × kept beta) sign table. The kept counts of a flip
    depend only on its popcount, so the groups of equal k and equal kept
    counts form a few classes, each one batched product into the output.
    """
    x, z = h.x, h.z
    n_y = np.bitwise_count(x & z)
    if (n_y % 2).any():
        raise InputError("Hamiltonian is not real in the occupation basis: "
                         "a word has an odd number of Y")
    order = np.argsort(x, kind="stable")
    z, factors = z[order], np.where(n_y % 4 == 0, h.coeffs, -h.coeffs)[order]
    flips, starts, sizes = np.unique(x[order], return_index=True, return_counts=True)

    n_beta = len(betas)
    dim = len(alphas) * n_beta
    # 32 bytes per (group, string) cell of the rank tables: the int32 ranks and
    # keep masks held through the build, and the int64 flipped strings and
    # searchsorted ranks of _partner_ranks (14-17 measured by tracemalloc with
    # halves of equal size, 24 with one beta string)
    rank_bytes = 32 * len(flips) * (len(alphas) + n_beta)
    _check_sector_size(dim, rank_bytes)
    alpha_mask = np.uint64(sum(1 << q for q in range(0, h.n_qubits, 2)))
    ra = _partner_ranks(alphas, flips & alpha_mask)
    rb = _partner_ranks(betas, flips & ~alpha_mask)
    # ra[g, a] == a exactly when g flips no alpha bit, and only then are the beta strings halved
    keep_a = ra >= np.arange(len(alphas))
    keep_b = rb >= np.where(flips[:, None] & alpha_mask, 0, np.arange(n_beta))
    n_a, n_b = keep_a.sum(1), keep_b.sum(1)
    nnz = int(n_a @ n_b)
    classes, of_class = np.unique(np.c_[sizes, n_a, n_b], axis=0, return_inverse=True)
    # the (group, kept string, word) cells of one class's alpha and beta sign tables
    cells = np.bincount(of_class, minlength=len(classes)) * classes[:, 0] * classes[:, 1:].sum(1)
    # per entry 16 bytes (float64 value, int32 row and column) and the 1-byte
    # diagonal mask of _lowest_eigenvalue; 32 bytes per cell of the largest
    # class's sign tables and their temporaries (19-26 measured by tracemalloc)
    _check_sector_size(dim, rank_bytes + 17 * nnz + 32 * int(cells.max(initial=0)))
    rows, cols, data = np.empty(nnz, dtype=np.int32), np.empty(nnz, dtype=np.int32), np.empty(nnz)
    at = 0
    for c, (k, na, nb) in enumerate(classes.tolist()):
        groups = np.flatnonzero(of_class == c)
        size = len(groups) * na * nb
        if not size:
            continue
        words = starts[groups][:, None] + np.arange(k)
        zw = z[words]
        ia = np.nonzero(keep_a[groups])[1].reshape(-1, na)  # [group, i]: rank of kept alpha i
        ib = np.nonzero(keep_b[groups])[1].reshape(-1, nb)
        cells = (len(groups), na, nb)
        # (group, alpha, word) @ (group, word, beta)
        np.matmul(_signs(alphas[ia][:, :, None] & zw[:, None]) * factors[words][:, None],
                  _signs(zw[:, :, None] & betas[ib][:, None]), out=data[at:at + size].reshape(cells))
        np.add(ia[:, :, None] * n_beta, ib[:, None], out=rows[at:at + size].reshape(cells))
        np.add(np.take_along_axis(ra[groups], ia, 1)[:, :, None] * n_beta,
               np.take_along_axis(rb[groups], ib, 1)[:, None], out=cols[at:at + size].reshape(cells))
        at += size
    return rows, cols, data


def _davidson(apply, diag: np.ndarray) -> float:
    """Lowest eigenvalue of the symmetric operator `apply` with diagonal `diag`, by Davidson.

    The start is a seeded random unit vector, which overlaps every symmetry
    block, plus the unit vector of the lowest diagonal entry. Each correction
    is the residual divided by diag - min(diag) + 0.1 (Davidson, J. Comput.
    Phys. 17, 87 (1975), with a fixed shift), orthonormalized twice against
    the basis. The basis holds at most EIG_SUBSPACE vectors and their images;
    when it is full it restarts from the Ritz vector. The residual
    |Hx - Ex| must reach EIG_TOL * max(1, |E|), the bound ARPACK applies,
    within EIG_MAXITER operator products. A correction that vanishes means
    the basis spans an invariant subspace whose Ritz value still misses it.
    """
    dim = len(diag)
    basis, images = np.empty((EIG_SUBSPACE, dim)), np.empty((EIG_SUBSPACE, dim))
    precond = diag - diag.min() + 0.1
    vec = np.random.default_rng(EIG_SEED).standard_normal(dim)
    vec /= np.linalg.norm(vec)
    vec[np.argmin(diag)] += 1.0
    n = 0
    for products in range(1, EIG_MAXITER + 1):
        size = np.linalg.norm(vec)
        for _ in range(2):
            vec -= (basis[:n] @ vec) @ basis[:n]
        norm = np.linalg.norm(vec)
        if norm <= 1e-10 * size:  # nothing but rounding is left outside the basis
            raise ConvergenceError(f"Davidson did not converge: its basis spans an invariant "
                                   f"subspace at residual {residual:.3g}, above {bound:.3g}")
        basis[n] = vec / norm
        images[n] = apply(basis[n])
        n += 1
        vals, vecs = np.linalg.eigh(basis[:n] @ images[:n].T)
        energy, ritz = float(vals[0]), vecs[:, 0]
        vec, image = ritz @ basis[:n], ritz @ images[:n]
        residual_vec = image - energy * vec
        residual = float(np.linalg.norm(residual_vec))
        bound = EIG_TOL * max(1.0, abs(energy))
        _log.debug("  davidson product %3d  E=%+.12f  |r|=%.3e", products, energy, residual)
        if residual <= bound:
            return energy
        if n == EIG_SUBSPACE:  # restart from the Ritz vector and its image
            norm = np.linalg.norm(vec)
            basis[0], images[0], n = vec / norm, image / norm, 1
        vec = residual_vec / precond
    raise ConvergenceError(f"Davidson did not converge in {EIG_MAXITER} operator products: "
                           f"residual {residual:.3g} above {bound:.3g}")


def _lowest_eigenvalue(rows: np.ndarray, cols: np.ndarray, data: np.ndarray, dim: int) -> float:
    """Lowest eigenvalue of the upper-triangle COO matrix U, by `_davidson`.

    scipy.sparse is imported here, so only this route pays for loading it.
    H is applied as U + U^T - diag U, U^T sharing U's arrays.
    """
    import scipy.sparse

    upper = scipy.sparse.coo_matrix((data, (rows, cols)), shape=(dim, dim))
    lower = upper.T
    # by mask, as coo_matrix.diagonal also holds the shifted rows: 4 more bytes an entry
    on = rows == cols
    diag = np.zeros(dim)
    diag[rows[on]] = data[on]
    del on  # 1 byte an entry, not held through the iteration
    return _davidson(lambda v: upper @ v + lower @ v - diag * v, diag)


def _z2_generators(x: np.ndarray, n_qubits: int) -> np.ndarray:
    """A basis of the GF(2) null space of the x masks: the uint64 v with |v ∧ x| even for every x.

    Z^v commutes with every word, so a word keeps the parity |s ∧ v| of each
    basis state s (Bravyi, Gambetta, Mezzacapo & Temme, arXiv:1701.08213).
    The masks are row-reduced one bit at a time: the first unused mask with
    the bit set becomes its pivot and is XORed out of every other mask with
    it. A bit without a pivot is free, and its generator is the bit plus the
    pivot bits of the pivot masks that hold it.
    """
    rows, unused = x.copy(), np.ones(len(x), dtype=bool)
    pivot_bits, pivot_rows, free = [], [], []
    for q in range(n_qubits):
        bit = np.uint64(1 << q)
        hit = (rows & bit) != 0
        at = np.flatnonzero(hit & unused)
        if not len(at):
            free.append(bit)
            continue
        pivot = rows[at[0]]
        hit[at[0]], unused[at[0]] = False, False
        rows[hit] ^= pivot
        pivot_bits.append(bit)
        pivot_rows.append(at[0])
    bits, reduced = np.array(pivot_bits, dtype=np.uint64), rows[pivot_rows]
    return np.array([f | np.bitwise_or.reduce(bits[(reduced & f) != 0], initial=np.uint64(0))
                     for f in free], dtype=np.uint64)


def _z2_blocks(h: QubitHamiltonian, alphas: np.ndarray,
               betas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(block, place, sizes): each sector state's Z2 block, its place in it, and the block sizes.

    A state's label is its parities under the `_z2_generators`, packed into
    uint64 bits, and for state (a, b) it is la[a] ^ lb[b]. States of one label
    form a block, ranked in state order, and H couples no two blocks.
    """
    gens = _z2_generators(h.x, h.n_qubits)
    bits = np.uint64(1) << np.arange(len(gens), dtype=np.uint64)

    def labels(strings):
        return (bits * (np.bitwise_count(strings[:, None] & gens) & 1)).sum(1, dtype=np.uint64)

    # return_inverse, as np.unique with no return option imports numpy.ma
    _, block = np.unique((labels(alphas)[:, None] ^ labels(betas)).ravel(), return_inverse=True)
    sizes = np.bincount(block)
    place = np.empty(len(block), dtype=np.intp)
    place[np.argsort(block, kind="stable")] = np.arange(len(block)) - np.repeat(
        np.cumsum(sizes) - sizes, sizes)
    return block, place, sizes


def ground_state(h: QubitHamiltonian, n_electrons: int, s_z: float = 0.0) -> float:
    """Lowest eigenvalue of the qubit Hamiltonian in the (n_electrons, s_z) sector.

    A sector of at most DENSE_CUTOFF states is split into its `_z2_blocks`;
    each block's upper triangle is filled from the entries of its states and
    diagonalized densely, and the lowest of their eigenvalues is returned.
    Without a splitting generator the one block is the whole sector matrix.
    A larger sector is solved whole by `_davidson`.
    """
    alphas, betas = _sector_basis(h.n_qubits, n_electrons, s_z)
    rows, cols, data = _assemble_sector_matrix(h, alphas, betas)
    dim = len(alphas) * len(betas)
    if dim <= DENSE_CUTOFF:
        block, place, sizes = _z2_blocks(h, alphas, betas)
        of_entry, lowest = block[rows], np.inf
        for k, size in enumerate(sizes.tolist()):
            on = of_entry == k
            upper = np.zeros((size, size))
            upper[place[rows[on]], place[cols[on]]] = data[on]
            lowest = min(lowest, float(np.linalg.eigvalsh(upper, UPLO="U")[0]))
        return lowest
    return _lowest_eigenvalue(rows, cols, data, dim)


# --- determinant-space FCI oracle -----------------------------------------

# the oracle's dense arrays (see _fci_bytes), counted before any string is
# built; this admits every space of up to 8 orbitals (at most 258 MB) and
# refuses the whole CH4 (9 orbitals, 1,509 MB), and its largest admitted block
# (4,536 rows) takes seconds in eigvalsh
MAX_FCI_BYTES = 2**29


def _replacement_matrices(k: int, n: int) -> np.ndarray:
    """E[kl, I, J] = <I|a+_k a_l|J> over the n-electron strings of k orbitals, in ascending order.

    A string is the ascending orbitals o_1 < ... < o_n it occupies; its rank
    among the strings in ascending order of their bitstrings is
    sum_i C(o_i, i), the combinatorial number system, so no bitstring and no
    table over all 2^k of them is built. a+_p a_l on J replaces its a-th
    orbital l by p, where p is l or outside J; the sign passes the a orbitals
    below l and the orbitals of J without l below p.
    """
    occ = np.array(list(itertools.combinations(range(k), n)), dtype=np.int64)  # [J, i]
    binom = np.array([[math.comb(o, i) for i in range(n + 1)] for o in range(k)],
                     dtype=np.int64).reshape(k, n + 1)
    rank = binom[occ, np.arange(1, n + 1)].sum(1)
    drop = np.arange(n - 1) + (np.arange(n - 1) >= np.arange(n)[:, None])  # [a]: places but a
    rest = occ[:, drop]  # [J, a, :]: string J without its a-th orbital
    orbitals = np.arange(k)
    below = (rest[..., None] < orbitals).sum(2)  # [J, a, p]: orbitals of rest below p
    j, a, p = np.nonzero(~(rest[..., None] == orbitals).any(2))
    kept, below = rest[j, a], below[j, a, p]  # a kept orbital above p moves up one place
    target = binom[kept, np.arange(1, n) + (kept > p[:, None])].sum(1) + binom[p, below + 1]
    e = np.zeros((k, k, len(occ), len(occ)))
    e[p, occ[j, a], target, rank[j]] = 1.0 - 2.0 * ((a + below) & 1)
    return e.reshape(k * k, len(occ), len(occ))


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
        whole = np.empty((n_a, n_b, n_a, n_b))
        for i in range(n_a):
            whole[i] = (left[i] @ right).reshape(n_a, n_b, n_b).swapaxes(0, 1)
        return whole.reshape(n_a * n_b, -1), np.zeros((0, 0))
    sym, anti = np.triu_indices(n_a), np.triu_indices(n_a, 1)  # pairs I <= J, I < J
    plus, minus = np.empty((len(sym[0]), len(sym[0]))), np.empty((len(anti[0]), len(anti[0])))
    for i in range(n_a):
        t = (left[i] @ right[:, i * n_b:]).reshape(n_a, n_b - i, n_b)  # [I', J - i, J']
        swapped = t.transpose(2, 1, 0)  # H[(i, J), (J', I')] at [I', J - i, J']
        plus[sym[0] == i] = (t + swapped)[sym[0], :, sym[1]].T
        minus[anti[0] == i] = (t - swapped)[anti[0], 1:, anti[1]].T
    weight = np.where(sym[0] == sym[1], np.sqrt(0.5), 1.0)  # t + swapped counts |II> twice
    plus *= weight[:, None]  # two passes in place, so no second array the size of H+
    plus *= weight
    return plus, minus


def _fci_bytes(k: int, n_alpha: int, n_beta: int) -> int:
    """Bytes of the dense arrays `fci_energy` builds for n_alpha + n_beta electrons in k orbitals.

    Counted from binomials: six arrays the size of the replacement matrices
    E of each distinct string count, for E, its product with (kl|mn) and the
    copies the build makes (4.1-5.5 measured by tracemalloc, the MO transform
    included); and the CI blocks, with one more copy of the larger, for
    LAPACK's copy.
    """
    n_a, n_b = math.comb(k, n_alpha), math.comb(k, n_beta)
    if n_alpha == n_beta:
        pairs, plus, minus = n_a**2, n_a * (n_a + 1) // 2, n_a * (n_a - 1) // 2
    else:
        pairs, plus, minus = n_a**2 + n_b**2, n_a * n_b, 0
    return 8 * (6 * k * k * pairs + 2 * plus**2 + minus**2)


def fci_fits(k: int, n_alpha: int, n_beta: int) -> bool:
    """Whether the dense arrays of n_alpha + n_beta electrons in k orbitals fit MAX_FCI_BYTES."""
    return _fci_bytes(k, n_alpha, n_beta) <= MAX_FCI_BYTES


def fci_energy(h_ao: np.ndarray, eri_ao: np.ndarray, c: np.ndarray,
               n_alpha: int, n_beta: int) -> float:
    """Lowest electronic energy of n_alpha + n_beta electrons in the orbitals (columns) of c.

    An empty determinant space, or one that fails `fci_fits`, raises
    InputError before anything is built. H- of `_ci_blocks` is diagonalized
    only when (H- - E+) has no Cholesky factor.
    """
    k = c.shape[1]
    if not (0 <= n_alpha <= k and 0 <= n_beta <= k):
        raise InputError(f"empty determinant space ({n_alpha} alpha and {n_beta} beta "
                         f"electrons) for {k} orbitals")
    if not fci_fits(k, n_alpha, n_beta):
        raise InputError(f"{n_alpha} alpha and {n_beta} beta electrons in {k} orbitals need "
                         f"{_fci_bytes(k, n_alpha, n_beta) / 2**20:.0f} MB for the FCI oracle, "
                         f"over the {MAX_FCI_BYTES / 2**20:.0f} MB limit")
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
    return energy + mol.e_nuc
