"""MO-basis integrals, second quantization, and the Jordan-Wigner mapping.

Spin orbitals are interleaved: qubit 2p is the alpha spin of spatial
orbital p, qubit 2p+1 the beta spin. A fermion operator is a sum of rows
c (T + T+) / 2, one per Hermitian pair, which second quantization writes in
closed form from the integrals and the Jordan-Wigner map expands to the
even-Y strings of c T. Pauli strings, the finished Hamiltonian
included, are carried as arrays of uint64 symplectic masks (x, z) for the
operator X^x Z^z with a real phase, so a product of ladder operators reduces
to bit arithmetic over all terms at once; this caps the map at 64 qubits.
Pauli words, qubit 0 first, are spelled out only for export (`terms`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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
    g = eri_ao
    for _ in range(4):  # contract the leading AO index; its MO index goes last
        g = np.tensordot(g, c_red, (0, 0))
    return MOIntegrals(h=h, g=g, constant=constant)


@dataclass(frozen=True)
class FermionOperator:
    """constant + sum of coeffs[t] (T_t + T_t+) / 2, T_t = a+_i ... a_l a row of a product.

    products holds (indices, coeffs) pairs: a (T, 2k) spin-orbital index
    array, creators in the first k columns, and its (T,) coefficients. A
    Hermitian operator written out in full, each term on its own row, is
    itself; `second_quantize` writes one row per Hermitian pair. len() is the
    number of rows, the constant counted when nonzero.
    """

    constant: float
    products: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __len__(self) -> int:
        return int(self.constant != 0.0) + sum(len(c) for _, c in self.products)


def second_quantize(mo: MOIntegrals) -> FermionOperator:
    """The electronic Hamiltonian over interleaved spin orbitals, one row per Hermitian pair.

    H = c + sum h_pq a+_ps a_qs + 1/2 sum (pq|rs) a+_ps a+_rt a_st a_qs over
    spins s, t. Spin orbital i = 2p + s. The one-body rows are a+_i a_j with
    i <= j and equal spins, coefficient h_pq, doubled when i != j. The
    two-body rows are a+_a a+_b a_c a_d with a > b, c > d and (a, b) <= (c, d)
    among the pairs of one spin kind (alpha-alpha, beta-beta or mixed); the
    coefficient is the antisymmetrized integral
    (ad|bc)' [s_a = s_d, s_b = s_c] - (ac|bd)' [s_a = s_c, s_b = s_d], with
    (pq|rs)' = ((pq|rs) + (rs|pq)) / 2, doubled unless (a, b) = (c, d)
    (Helgaker, Jorgensen & Olsen, Molecular Electronic-Structure Theory, 1.4).
    A row and its conjugate then carry the same coefficient, which holds when
    h = h^T and g = g.transpose(1, 0, 3, 2); integrals further from that than
    IMAG_TOLERANCE raise ValueError. Entries of h and of (pq|rs) / 2, then row
    coefficients, below PRUNE_THRESHOLD are dropped.
    """
    mismatch = max(np.abs(mo.h - mo.h.T).max(initial=0.0),
                   np.abs(mo.g - mo.g.transpose(1, 0, 3, 2)).max(initial=0.0))
    if mismatch > IMAG_TOLERANCE:
        raise ValueError(f"non-Hermitian integrals: an entry and its conjugate differ "
                         f"by {mismatch:.3g}")
    h = np.where(np.abs(mo.h) >= PRUNE_THRESHOLD, mo.h, 0.0)
    half_g = 0.5 * mo.g
    half_g[np.abs(half_g) < PRUNE_THRESHOLD] = 0.0
    g = half_g + half_g.transpose(2, 3, 0, 1)
    n = 2 * mo.n_orbitals
    i, j = np.triu_indices(n)
    i, j = i[i % 2 == j % 2], j[i % 2 == j % 2]
    a, b = np.tril_indices(n, -1)  # every pair a > b, in lexicographic order
    kind = a % 2 + b % 2  # the number of beta spin orbitals in the pair
    # pair first at or before pair second, both of one kind
    first, second = np.concatenate([pair[np.stack(np.triu_indices(len(pair)))]
                                    for pair in (np.flatnonzero(kind == k) for k in range(3))], axis=1)
    abcd = np.stack([a[first], b[first], a[second], b[second]])
    (p, r, s, q), spin = abcd >> 1, abcd & 1
    rows = [np.stack([i, j], axis=-1), abcd.T]
    coeffs = [np.where(i == j, 1.0, 2.0) * h[i // 2, j // 2],
              np.where(first == second, 1.0, 2.0) * (
                  np.where((spin[0] == spin[3]) & (spin[1] == spin[2]), g[p, q, r, s], 0.0)
                  - np.where((spin[0] == spin[2]) & (spin[1] == spin[3]), g[p, s, r, q], 0.0))]
    keep = [np.abs(c) >= PRUNE_THRESHOLD for c in coeffs]
    return FermionOperator(float(mo.constant),
                           tuple((r[k], c[k]) for r, c, k in zip(rows, coeffs, keep)))

@dataclass(frozen=True, eq=False)
class QubitHamiltonian:
    """Real Pauli sum: coeffs[t] times the word of masks (x[t], z[t]), no (x, z) pair twice."""

    n_qubits: int
    x: np.ndarray          # (T,) uint64
    z: np.ndarray          # (T,) uint64
    coeffs: np.ndarray     # (T,) float64

    @classmethod
    def from_terms(cls, n_qubits: int, terms) -> "QubitHamiltonian":
        """Parse (word, coefficient) pairs; a malformed or repeated word raises InputError."""
        terms = list(terms)
        x, z = pauli_masks([word for word, _ in terms], n_qubits)
        if len(np.unique(np.stack([x, z], axis=1), axis=0)) < len(x):
            raise InputError("repeated Pauli word")
        return cls(n_qubits, x, z, np.array([c for _, c in terms], dtype=float))

    @property
    def terms(self) -> dict[str, float]:
        """Word -> coefficient, sorted by word."""
        words, coeffs = self._sorted_terms()
        return dict(zip(words, coeffs))

    def term_count(self) -> int:
        return len(self.coeffs)

    def _sorted_terms(self) -> tuple[list[str], list[float]]:
        """Words and coefficients sorted by word; the one place words are built."""
        words = _word_bytes(self.x, self.z, self.n_qubits)
        order = np.argsort(words)
        return _decode(words[order], self.n_qubits), self.coeffs[order].tolist()

    def dump(self, path) -> None:
        """Write the Hamiltonian as json.dump(..., indent=1) writes it, plus a newline.

        The layout is {"n_qubits", "constant", "terms": [{"pauli", "coeff"}, ...]}
        with the terms sorted by word and the identity's coefficient as the
        constant. The term list is formatted directly, in one % pass, with
        json's own number formatting (a word is plain ASCII): json's indenting
        encoder runs in pure Python, and took as long as the whole full-system
        Jordan-Wigner map of methanol.
        """
        words, coeffs = self._sorted_terms()
        constant = 0.0
        if words and words[0] == "I" * self.n_qubits:   # the identity sorts first
            constant, words, coeffs = coeffs[0], words[1:], coeffs[1:]
        body = "[]"
        if words:
            values = [None] * (2 * len(words))
            values[::2] = words
            # json.dumps of a flat list runs the C encoder; numbers hold no ", "
            values[1::2] = json.dumps(coeffs)[1:-1].split(", ")
            terms = '  {\n   "pauli": "%s",\n   "coeff": %s\n  },\n' * len(words)
            body = f"[\n{terms[:-2] % tuple(values)}\n ]"
        with open(path, "w") as fh:
            fh.write(f'{{\n "n_qubits": {json.dumps(self.n_qubits)},\n'
                     f' "constant": {json.dumps(constant)},\n "terms": {body}\n}}\n')

    @classmethod
    def from_json_dict(cls, data: dict) -> "QubitHamiltonian":
        """Read the layout dump() writes; a missing or mistyped field raises InputError.

        n_qubits must be an int (not a bool), and every coefficient finite.
        """
        try:
            n = data["n_qubits"]
            if isinstance(n, bool) or not isinstance(n, int):
                raise TypeError(f"n_qubits {n!r} is not an integer")
            terms = [(t["pauli"], float(t["coeff"])) for t in data["terms"]]
            if data.get("constant", 0.0) != 0.0:
                terms.append(("I" * n, float(data["constant"])))
            if not all(math.isfinite(c) for _, c in terms):
                raise ValueError("a coefficient is not finite")
            return cls.from_terms(n, terms)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed Hamiltonian ({type(exc).__name__}: {exc})") from None


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


def _word_bytes(x: np.ndarray, z: np.ndarray, n_qubits: int) -> np.ndarray:
    """(T,) fixed-width ASCII words of (x, z) mask arrays, qubit 0 first.

    uint8 letter codes are filled one qubit row at a time and read transposed.
    """
    codes = np.empty((n_qubits, len(x)), dtype=np.uint8)
    for q in range(n_qubits):
        codes[q] = ((x >> q) & 1) + 2 * ((z >> q) & 1)
    return np.ascontiguousarray(_LETTERS[codes].T).view(f"S{n_qubits}").reshape(len(x))


def _decode(words: np.ndarray, n_qubits: int) -> list[str]:
    """The str of each fixed-width word, sliced from one decoded string."""
    text = words.tobytes().decode("ascii")
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

    When the strings span n <= 32 qubits, one stable argsort of the packed key
    (x << n) | z gives the permutation of np.lexsort((z, x)), so the sums are the
    same to the bit; wider strings take the lexsort. Each list is emptied as soon
    as it is joined, so at most five arrays of the joined length are live at once.
    """
    x = np.concatenate(xs)
    xs.clear()
    z = np.concatenate(zs)
    zs.clear()
    n = int(np.bitwise_or.reduce(x) | np.bitwise_or.reduce(z)).bit_length()
    order = np.argsort(x << np.uint64(n) | z, kind="stable") if 2 * n <= 64 else np.lexsort((z, x))
    x = x[order]
    z = z[order]
    phase = np.concatenate(phases)
    phases.clear()
    phase = phase[order]
    starts = np.flatnonzero(np.r_[True, (x[1:] != x[:-1]) | (z[1:] != z[:-1])])
    return x[starts], z[starts], np.add.reduceat(phase, starts)


def jordan_wigner(ops: FermionOperator, n_qubits: int) -> QubitHamiltonian:
    """Map a fermionic operator to a combined, pruned Pauli decomposition.

    A row c T stands for c (T + T+) / 2, and those are exactly the strings of
    c T with an even number of Y: the odd ones change sign under the
    conjugation. So each row expands to its even-Y strings only, JW_BLOCK
    strings at a time, which bounds the expansion temporaries. The strings of
    all blocks are then merged once: one sort sums equal strings. A product
    has equal numbers of creators and annihilators, at most 5 of each, so a
    row expands to at most 1,024 strings.
    """
    if n_qubits > MAX_JW_QUBITS:
        raise InputError(f"{n_qubits} qubits exceeds the Jordan-Wigner limit {MAX_JW_QUBITS}")
    for indices, coeffs in ops.products:
        width = indices.shape[1]
        if width % 2 or width > 10:
            raise ValueError(f"product of {width} ladder operators: "
                             "at most 5 creators, then as many annihilators")
        if indices.size and not 0 <= indices.min() <= indices.max() < n_qubits:
            raise ValueError(f"spin orbital index outside {n_qubits} qubits")
        if len(coeffs) != len(indices):
            raise ValueError(f"{len(coeffs)} coefficients for {len(indices)} index rows")
    # the constant, then the even-Y strings of every block, summed by one merge
    xs, zs = [np.zeros(1, dtype=np.uint64)], [np.zeros(1, dtype=np.uint64)]
    phases = [np.array([float(ops.constant)])]
    for indices, coeffs in ops.products:
        step = max(1, JW_BLOCK >> indices.shape[1])
        for lo in range(0, len(indices), step):
            bx, bz, bp = _ladder_products(indices[lo:lo + step], coeffs[lo:lo + step])
            even = np.bitwise_count(bx & bz) % 2 == 0
            xs.append(bx[even])
            zs.append(bz[even])
            phases.append(bp[even])
    x, z, phase = _merge(xs, zs, phases)
    # X^x Z^z = (-i)^(number of Y) times the word, and that number is even
    kept = np.abs(phase) >= PRUNE_THRESHOLD
    coeffs = np.where(np.bitwise_count(x & z) % 4 == 0, phase, -phase)
    return QubitHamiltonian(n_qubits, x[kept], z[kept], coeffs[kept])


def dense_matrix(h: QubitHamiltonian) -> np.ndarray:
    """Dense matrix over the full 2^n space; for small-n validation only."""
    if h.n_qubits > 14:
        raise ValueError(f"dense matrix for {h.n_qubits} qubits is too large")
    cols = np.arange(1 << h.n_qubits, dtype=np.uint64)
    mat = np.zeros((len(cols), len(cols)), dtype=complex)
    for xw, zw, n_y, coeff in zip(h.x, h.z, np.bitwise_count(h.x & h.z), h.coeffs):
        signs = 1.0 - 2.0 * (np.bitwise_count(cols & zw) % 2)
        mat[cols ^ xw, cols] += coeff * 1j ** int(n_y % 4) * signs
    return mat
