"""MO-basis integrals, second quantization, and the Jordan-Wigner mapping.

Spin orbitals are interleaved: qubit 2p is the alpha spin of spatial
orbital p, qubit 2p+1 the beta spin. Pauli words are written with qubit 0
as the first character. Internally Pauli strings are carried as arrays of
uint64 symplectic masks (x, z) for the operator X^x Z^z with a real phase,
so a product of ladder operators reduces to bit arithmetic over all terms
at once; this caps the map at 64 qubits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .exceptions import InputError

PRUNE_THRESHOLD = 1e-12
IMAG_TOLERANCE = 1e-10
MAX_JW_QUBITS = 64
JW_BLOCK = 1 << 16  # Pauli strings expanded per Jordan-Wigner block
_LETTERS = np.frombuffer(b"IXZY", dtype=np.uint8)  # index = x bit + 2 * z bit
_LETTER_CODES = str.maketrans("IXZY", "\0\1\2\3")


@dataclass(frozen=True)
class MOIntegrals:
    """One- and two-electron integrals over a reduced MO set.

    g is kept in chemists' convention (pq|rs); the physicists' reordering
    happens during second quantization.
    """

    h: np.ndarray          # (M, M)
    g: np.ndarray          # (M, M, M, M)
    constant: float = 0.0

    @property
    def n_orbitals(self) -> int:
        return self.h.shape[0]


def mo_transform(h_ao: np.ndarray, eri_ao: np.ndarray, c_red: np.ndarray,
                 constant: float = 0.0) -> MOIntegrals:
    """Congruence-transform the one- and two-electron AO integrals.

    The rank-4 transform proceeds one index at a time (O(K^5) work). h is
    returned exactly symmetric: with a mu projector h_ao carries entries of
    order 1e6 whose round-off asymmetry would otherwise reach the Pauli
    coefficients as an imaginary part.
    """
    h = c_red.T @ h_ao @ c_red
    h = 0.5 * (h + h.T)
    g = np.einsum("pqrs,pi->iqrs", eri_ao, c_red, optimize=True)
    g = np.einsum("iqrs,qj->ijrs", g, c_red, optimize=True)
    g = np.einsum("ijrs,rk->ijks", g, c_red, optimize=True)
    g = np.einsum("ijks,sl->ijkl", g, c_red, optimize=True)
    return MOIntegrals(h=h, g=g, constant=constant)


@dataclass(frozen=True)
class FermionOperator:
    """constant + sum of coeffs[t] a+_i ... a_l over the rows of each product.

    products holds (indices, coeffs) pairs: a (T, 2k) spin-orbital index
    array, creators in the first k columns, and its (T,) coefficients. len()
    is the number of terms, the constant counted when nonzero.
    """

    constant: float
    products: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __len__(self) -> int:
        return int(self.constant != 0.0) + sum(len(c) for _, c in self.products)


def second_quantize(mo: MOIntegrals) -> FermionOperator:
    """Expand the electronic Hamiltonian over interleaved spin orbitals.

    Integrals below PRUNE_THRESHOLD are dropped. The two-electron part uses
    the chemists'-index identity 1/2 (pq|rs) a+_ps a+_rt a_st a_qs summed
    over spins s, t, without the terms that vanish (i == j or k == l).
    """
    p, q = np.nonzero(np.abs(mo.h) >= PRUNE_THRESHOLD)
    one_body = (2 * np.stack([p, q], axis=-1)[:, None] + np.arange(2)[:, None]).reshape(-1, 2)
    one_coeffs = np.repeat(mo.h[p, q], 2)
    half_g = 0.5 * mo.g
    p, q, r, s = np.nonzero(np.abs(half_g) >= PRUNE_THRESHOLD)
    sp, tp = np.divmod(np.arange(4), 2)  # the spins of p and r
    two_body = (2 * np.stack([p, r, s, q], axis=-1)[:, None]
                + np.stack([sp, tp, tp, sp], axis=-1)).reshape(-1, 4)
    keep = (two_body[:, 0] != two_body[:, 1]) & (two_body[:, 2] != two_body[:, 3])
    return FermionOperator(float(mo.constant), (
        (one_body, one_coeffs), (two_body[keep], np.repeat(half_g[p, q, r, s], 4)[keep])))


@dataclass
class QubitHamiltonian:
    """Real-coefficient Pauli decomposition of a Hermitian operator."""

    n_qubits: int
    terms: dict[str, float] = field(default_factory=dict)

    @property
    def constant(self) -> float:
        return self.terms.get("I" * self.n_qubits, 0.0)

    def term_count(self) -> int:
        return len(self.terms)

    def to_json_dict(self) -> dict:
        identity = "I" * self.n_qubits
        return {
            "n_qubits": self.n_qubits,
            "constant": self.constant,
            "terms": [
                {"pauli": word, "coeff": coeff}
                for word, coeff in sorted(self.terms.items())
                if word != identity
            ],
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, data: dict) -> "QubitHamiltonian":
        n = int(data["n_qubits"])
        terms = {t["pauli"]: float(t["coeff"]) for t in data["terms"]}
        if data.get("constant", 0.0) != 0.0:
            terms["I" * n] = float(data["constant"])
        pauli_masks(terms, n)  # validates every word
        return cls(n_qubits=n, terms=terms)


def pauli_masks(words, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """uint64 (x, z) masks of Pauli words, so that word = i^(number of Y) X^x Z^z.

    Raises InputError for a word whose length is not n_qubits or that has a
    letter outside IXYZ.
    """
    if n_qubits > MAX_JW_QUBITS or any(len(word) != n_qubits for word in words):
        raise InputError(f"Pauli words need {n_qubits} letters, at most {MAX_JW_QUBITS}")
    raw = "".join(words).translate(_LETTER_CODES).encode("ascii", errors="replace")
    codes = np.frombuffer(raw, dtype=np.uint8).reshape(len(words), n_qubits)
    if (codes > 3).any():
        raise InputError("Pauli word with a letter outside IXYZ")
    bits = np.uint64(1) << np.arange(n_qubits, dtype=np.uint64)
    return ((codes & 1) * bits).sum(axis=1), ((codes >> 1) * bits).sum(axis=1)


def _pauli_words(x: np.ndarray, z: np.ndarray, n_qubits: int) -> list[str]:
    """Words of (x, z) mask arrays from uint8 letter codes filled one qubit at a time."""
    codes = np.empty((n_qubits, len(x)), dtype=np.uint8)
    for q in range(n_qubits):
        codes[q] = ((x >> q) & 1) + 2 * ((z >> q) & 1)
    text = _LETTERS[codes].T.tobytes().decode("ascii")
    return [text[i:i + n_qubits] for i in range(0, len(text), n_qubits)]


def _ladder_products(ops: np.ndarray, coeffs: np.ndarray):
    """JW images of coeff * a+_i ... a_l for every row of ops, as (x, z, phase).

    Each row has its creators first. a_p = 1/2 (X_p + i Y_p) Z_{p-1} ... Z_0
    and Y = i X Z, so a ladder operator is 1/2 X_p Z_chain -/+ 1/2 X_p Z_p
    Z_chain (minus for annihilation). Right-multiplying by it moves X_p past
    the Z^z collected so far, a sign (-1)^(z_p), and doubles the strings.
    """
    x, z = np.zeros((2, len(ops), 1), dtype=np.uint64)
    phase = np.asarray(coeffs, dtype=float)[:, None]
    for col in range(ops.shape[1]):
        bit = np.uint64(1) << ops[:, col, None].astype(np.uint64)
        phase = np.where(z & bit, -0.5, 0.5) * phase
        x ^= bit
        z ^= bit - np.uint64(1)
        branch = 1.0 if 2 * col < ops.shape[1] else -1.0
        x = np.concatenate([x, x], axis=1)
        z = np.concatenate([z, z ^ bit], axis=1)
        phase = np.concatenate([phase, branch * phase], axis=1)
    return x.ravel(), z.ravel(), phase.ravel()


def _merge(xs: list, zs: list, phases: list):
    """Sum lists of (x, z, phase) string arrays into one result sorted by (x, z).

    Each list is emptied as soon as it is joined, so at most five arrays of
    the joined length are live at once.
    """
    x = np.concatenate(xs)
    xs.clear()
    z = np.concatenate(zs)
    zs.clear()
    order = np.lexsort((z, x))
    x = x[order]
    z = z[order]
    phase = np.concatenate(phases)
    phases.clear()
    phase = phase[order]
    starts = np.flatnonzero(np.r_[True, (x[1:] != x[:-1]) | (z[1:] != z[:-1])])
    return x[starts], z[starts], np.add.reduceat(phase, starts)


def _hermitian_pairs(indices: np.ndarray, coeffs: np.ndarray):
    """One row per Hermitian pair among products of one width, with its coefficient.

    Creators and annihilators are each sorted into descending order with the
    sign of the permutation, rows that repeat a creator or an annihilator are
    dropped (they are zero), and equal rows are summed under an int64 key of 6
    bits per index. The conjugate T+ of a row T is the key with its two halves
    swapped. The even-Y strings of T are (T + T+)/2, so a pair becomes the row
    with the smaller key and the coefficient c_T + c_T+, and a self-conjugate
    row keeps c_T. Raises ValueError when |c_T - c_T+| exceeds IMAG_TOLERANCE.
    """
    n, width = indices.shape
    k = width // 2
    cols = [indices[:, i].astype(np.uint8) for i in range(width)]
    sign = np.ones(n)
    for lo in (0, k):  # bubble-sort each half, one sign flip per swap
        for end in range(lo + k - 1, lo, -1):
            for i in range(lo, end):
                swap = cols[i] < cols[i + 1]
                sign[swap] = -sign[swap]
                cols[i], cols[i + 1] = np.maximum(cols[i], cols[i + 1]), np.minimum(cols[i], cols[i + 1])
    nonzero = np.ones(n, dtype=bool)
    keys = np.zeros(n, dtype=np.int64)
    for i, col in enumerate(cols):
        if i % k:
            nonzero &= col != cols[i - 1]
        keys = keys << 6 | col
    keys, inverse = np.unique(keys[nonzero], return_inverse=True)
    c = np.bincount(inverse, weights=(sign * coeffs)[nonzero], minlength=len(keys))
    low = (1 << 6 * k) - 1
    conj = (keys >> 6 * k) | ((keys & low) << 6 * k)
    pos = np.minimum(np.searchsorted(keys, conj), len(keys) - 1)
    c_conj = np.where(keys[pos] == conj, c[pos], 0.0)
    mismatch = np.abs(c - c_conj).max(initial=0.0)
    if mismatch > IMAG_TOLERANCE:
        raise ValueError(f"non-Hermitian input: a fermion term and its conjugate differ by {mismatch:.3g}")
    kept = keys <= conj
    coeffs = np.where(keys < conj, c + c_conj, c)[kept]
    shifts = 6 * np.arange(width - 1, -1, -1, dtype=np.int64)
    return (keys[kept, None] >> shifts) & 63, coeffs


def jordan_wigner(ops: FermionOperator, n_qubits: int) -> QubitHamiltonian:
    """Map a Hermitian fermionic operator to a combined, pruned Pauli decomposition.

    Product blocks of equal width are joined and reduced to one row per
    Hermitian pair (`_hermitian_pairs`), which also rejects a non-Hermitian
    input. Each row expands to its even-Y strings only, JW_BLOCK strings at a
    time. Expanded blocks wait until they hold as many strings as the running
    result and are then summed into it with one sort, so each string is
    re-sorted O(log) times. A product has equal numbers of creators and
    annihilators, at most 5 of each.
    """
    if n_qubits > MAX_JW_QUBITS:
        raise InputError(f"{n_qubits} qubits exceeds the Jordan-Wigner limit {MAX_JW_QUBITS}")
    by_width: dict[int, list] = {}
    for indices, coeffs in ops.products:
        if indices.shape[1] % 2 or indices.shape[1] > 10:
            raise ValueError(f"product of {indices.shape[1]} ladder operators: "
                             "at most 5 creators, then as many annihilators")
        if indices.size and not 0 <= indices.min() <= indices.max() < n_qubits:
            raise ValueError(f"spin orbital index outside {n_qubits} qubits")
        by_width.setdefault(indices.shape[1], []).append((indices, coeffs))
    # the running result, then the blocks waiting to be merged into it
    xs, zs = [np.zeros(1, dtype=np.uint64)], [np.zeros(1, dtype=np.uint64)]
    phases = [np.array([float(ops.constant)])]
    n_result, n_pending = 1, 0
    for width, blocks in sorted(by_width.items()):
        indices, coeffs = _hermitian_pairs(*(np.concatenate(part) for part in zip(*blocks)))
        step = max(1, JW_BLOCK >> width)
        for lo in range(0, len(indices), step):
            bx, bz, bp = _ladder_products(indices[lo:lo + step], coeffs[lo:lo + step])
            even = np.bitwise_count(bx & bz) % 2 == 0
            xs.append(bx[even])
            zs.append(bz[even])
            phases.append(bp[even])
            n_pending += len(xs[-1])
            # the lists hold the only references, so a merge can free each part
            del bx, bz, bp, even
            if n_pending >= n_result:
                xs, zs, phases = ([part] for part in _merge(xs, zs, phases))
                n_result, n_pending = len(xs[0]), 0
    x, z, phase = _merge(xs, zs, phases)
    # X^x Z^z = (-i)^(number of Y) times the word, and that number is even
    kept = np.abs(phase) >= PRUNE_THRESHOLD
    values = np.where(np.bitwise_count(x & z) % 4 == 0, phase, -phase)[kept]
    words = _pauli_words(x[kept], z[kept], n_qubits)
    return QubitHamiltonian(n_qubits=n_qubits, terms=dict(zip(words, values.tolist())))


def dense_matrix(h: QubitHamiltonian) -> np.ndarray:
    """Dense matrix over the full 2^n space; for small-n validation only."""
    if h.n_qubits > 14:
        raise ValueError(f"dense matrix for {h.n_qubits} qubits is too large")
    x, z = (m.astype(np.int64) for m in pauli_masks(h.terms, h.n_qubits))
    cols = np.arange(1 << h.n_qubits)
    mat = np.zeros((len(cols), len(cols)), dtype=complex)
    for xw, zw, n_y, coeff in zip(x, z, np.bitwise_count(x & z), h.terms.values()):
        signs = 1.0 - 2.0 * (np.bitwise_count(cols & zw) % 2)
        mat[cols ^ xw, cols] += coeff * 1j ** int(n_y % 4) * signs
    return mat
