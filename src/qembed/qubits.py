"""MO-basis integrals, second quantization, and the Jordan-Wigner mapping.

Spin orbitals are interleaved: qubit 2p is the alpha spin of spatial
orbital p, qubit 2p+1 the beta spin. Pauli words are written with qubit 0
as the first character. Internally Pauli strings are carried in symplectic
form (x mask, z mask) with the operator X^x Z^z and an explicit phase, so
products reduce to bit arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

PRUNE_THRESHOLD = 1e-12
IMAG_TOLERANCE = 1e-10


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

    The rank-4 transform proceeds one index at a time (O(K^5) work).
    """
    h = c_red.T @ h_ao @ c_red
    g = np.einsum("pqrs,pi->iqrs", eri_ao, c_red, optimize=True)
    g = np.einsum("iqrs,qj->ijrs", g, c_red, optimize=True)
    g = np.einsum("ijrs,rk->ijks", g, c_red, optimize=True)
    g = np.einsum("ijks,sl->ijkl", g, c_red, optimize=True)
    return MOIntegrals(h=h, g=g, constant=constant)


def second_quantize(mo: MOIntegrals) -> list[tuple[tuple[tuple[int, int], ...], float]]:
    """Expand the electronic Hamiltonian over interleaved spin orbitals.

    Returns a list of (ladder operator sequence, coefficient) pairs, where
    each ladder operator is (spin orbital index, 1 for creation / 0 for
    annihilation). The two-electron part uses the chemists'-index identity
    1/2 (pq|rs) a+_ps a+_rt a_st a_qs summed over spins s, t.
    """
    m = mo.n_orbitals
    terms: list[tuple[tuple[tuple[int, int], ...], float]] = []
    if mo.constant != 0.0:
        terms.append(((), mo.constant))
    for p in range(m):
        for q in range(m):
            if abs(mo.h[p, q]) < PRUNE_THRESHOLD:
                continue
            for spin in (0, 1):
                terms.append((((2 * p + spin, 1), (2 * q + spin, 0)), float(mo.h[p, q])))
    for p in range(m):
        for q in range(m):
            for r in range(m):
                for s in range(m):
                    coeff = 0.5 * mo.g[p, q, r, s]
                    if abs(coeff) < PRUNE_THRESHOLD:
                        continue
                    for sp in (0, 1):
                        for tp in (0, 1):
                            i, j = 2 * p + sp, 2 * r + tp
                            k, l = 2 * s + tp, 2 * q + sp
                            if i == j or k == l:
                                continue
                            terms.append(
                                (((i, 1), (j, 1), (k, 0), (l, 0)), float(coeff))
                            )
    return terms


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

    def sorted_terms(self) -> list[tuple[str, float]]:
        return sorted(self.terms.items())

    def to_json_dict(self) -> dict:
        identity = "I" * self.n_qubits
        return {
            "n_qubits": self.n_qubits,
            "constant": self.terms.get(identity, 0.0),
            "terms": [
                {"pauli": word, "coeff": coeff}
                for word, coeff in self.sorted_terms()
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
        return cls(n_qubits=n, terms=terms)


def _ladder_symplectic(index: int, creation: bool):
    """JW image of one ladder operator as two symplectic strings.

    a_p = 1/2 (X_p + i Y_p) Z_{p-1} ... Z_0 and Y = i X Z, so the two terms
    are 1/2 X_p Z_chain -/+ 1/2 X_p Z_p Z_chain (minus for annihilation,
    plus for the creation-operator conjugate).
    """
    chain = (1 << index) - 1
    x = 1 << index
    sign = 0.5 if creation else -0.5
    return [
        (0.5, x, chain),
        (sign, x, chain | x),
    ]


def _multiply(strings: dict, factors: list) -> dict:
    """Right-multiply an accumulated {(x, z): phase} map by a 2-string factor."""
    out: dict = {}
    for (x1, z1), c1 in strings.items():
        for c2, x2, z2 in factors:
            sign = -1.0 if bin(z1 & x2).count("1") % 2 else 1.0
            key = (x1 ^ x2, z1 ^ z2)
            out[key] = out.get(key, 0.0) + sign * c1 * c2
    return out


def jordan_wigner(fermion_terms, n_qubits: int) -> QubitHamiltonian:
    """Map a fermionic operator to a combined, pruned Pauli decomposition.

    The input must be Hermitian; any imaginary residue above 1e-10 in a
    combined coefficient is an error rather than something to discard.
    """
    accum: dict[tuple[int, int], complex] = {}
    for ops, coeff in fermion_terms:
        strings = {(0, 0): complex(coeff)}
        for index, creation in ops:
            if index >= n_qubits:
                raise ValueError(f"spin orbital {index} outside {n_qubits} qubits")
            strings = _multiply(strings, _ladder_symplectic(index, bool(creation)))
        for key, val in strings.items():
            accum[key] = accum.get(key, 0.0) + val
    terms: dict[str, float] = {}
    for (x, z), phase in accum.items():
        n_y = bin(x & z).count("1")
        coeff = phase * (-1j) ** n_y
        if abs(coeff) < PRUNE_THRESHOLD:
            continue
        if abs(coeff.imag) > IMAG_TOLERANCE:
            raise ValueError(
                f"non-Hermitian input: Pauli coefficient {coeff} has imaginary part"
            )
        word = "".join(
            "IXZY"[((x >> q) & 1) + 2 * ((z >> q) & 1)] for q in range(n_qubits)
        )
        terms[word] = float(coeff.real)
    return QubitHamiltonian(n_qubits=n_qubits, terms=terms)


def word_to_masks(word: str) -> tuple[int, int, complex]:
    """Symplectic masks and phase for a Pauli word (qubit 0 = first char).

    The returned phase converts X^x Z^z back into the literal word operator:
    word = phase * X^x Z^z with phase = i^(number of Y letters).
    """
    x = z = 0
    n_y = 0
    for q, letter in enumerate(word):
        if letter in ("X", "Y"):
            x |= 1 << q
        if letter in ("Z", "Y"):
            z |= 1 << q
        if letter == "Y":
            n_y += 1
    return x, z, 1j**n_y


def dense_matrix(h: QubitHamiltonian) -> np.ndarray:
    """Dense matrix over the full 2^n space; for small-n validation only."""
    n = h.n_qubits
    if n > 14:
        raise ValueError(f"dense matrix for {n} qubits is too large")
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    for word, coeff in h.terms.items():
        x, z, phase = word_to_masks(word)
        cols = np.arange(dim)
        rows = cols ^ x
        signs = 1.0 - 2.0 * (popcount(cols & z) % 2).astype(float)
        mat[rows, cols] += coeff * phase * signs
    return mat


def popcount(values: np.ndarray) -> np.ndarray:
    """Bit population count over an integer array."""
    return np.bitwise_count(np.asarray(values))
