"""AO integrals over contracted Cartesian Gaussians (s and p shells).

Everything is evaluated with the Gaussian product theorem in a Hermite
intermediate basis: expansion coefficients E couple Cartesian powers to
Hermite Gaussians, and the Coulomb-type integrals contract those against
a table of Hermite derivatives R of the Boys function. One table holds every
primitive pair of every AO pair, so S and T are array expressions over it,
and V and the ERI tensor share one Hermite-Coulomb contraction (a nucleus is
a ket with E_000 = 1; the ERI runs over fixed blocks of primitive quartets).
This keeps the dense rank-4 ERI build tractable at desk scale (K up to ~30)
in pure numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import CARTESIAN_POWERS, BasisSet
from .molecule import Molecule

ERI_BLOCK = 4096   # primitive quartets contracted per batch in eri_tensor
_BOYS_SWITCH = 35.0
_BOYS_SERIES_TERMS = 130
_L_MAX = max(CARTESIAN_POWERS)
# Hermite indices (t, u, v) of a pair density, t+u+v <= 2*_L_MAX, by total order
_HERMITE = [
    (t, u, n - t - u) for n in range(2 * _L_MAX + 1) for t in range(n + 1) for u in range(n - t + 1)
]


@dataclass(frozen=True)
class IntegralSet:
    """Overlap, core Hamiltonian and two-electron tensor in the AO basis."""

    S: np.ndarray       # (K, K)
    T: np.ndarray       # (K, K) kinetic
    V: np.ndarray       # (K, K) nuclear attraction
    eri: np.ndarray     # (K, K, K, K), chemists' convention (mu nu | lam sig)

    @property
    def h_core(self) -> np.ndarray:
        return self.T + self.V

    @property
    def n_functions(self) -> int:
        return self.S.shape[0]


def boys(n_max: int, t: np.ndarray) -> np.ndarray:
    """Boys functions F_0..F_n_max, shape (n_max+1,) + t.shape.

    Small arguments use the ascending series with downward recursion from
    F_{n_max}; large arguments (t >= 35) the complete-integral asymptote with
    upward recursion. Absolute accuracy is ~1e-15 over the whole range.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty((n_max + 1,) + t.shape)
    small = t < _BOYS_SWITCH
    ts = t[small]
    # series for the top order, then downward: F_{m-1} = (2t F_m + e^-t)/(2m-1)
    term = np.full_like(ts, 1.0 / (2 * n_max + 1))
    acc = term.copy()
    for i in range(1, _BOYS_SERIES_TERMS):
        term = term * 2.0 * ts / (2 * n_max + 2 * i + 1)
        acc += term
    expt_s = np.exp(-ts)
    f = acc * expt_s
    out[n_max][small] = f
    for m in range(n_max, 0, -1):
        f = (2.0 * ts * f + expt_s) / (2 * m - 1)
        out[m - 1][small] = f
    big = ~small
    if np.any(big):
        tb = t[big]
        expt_b = np.exp(-tb)
        f = 0.5 * np.sqrt(np.pi / tb)
        out[0][big] = f
        for m in range(n_max):
            f = ((2 * m + 1) * f - expt_b) / (2.0 * tb)
            out[m + 1][big] = f
    return out


def _hermite_expansion(i_max: int, j_max: int, a, b, ab_dist):
    """Hermite expansion coefficients E[i, j, t] for one Cartesian direction.

    a, b, ab_dist are arrays over primitive pairs; the result has shape
    (i_max+1, j_max+1, i_max+j_max+1) + batch.
    """
    p = a + b
    mu = a * b / p
    xpa = -b * ab_dist / p   # P - A
    xpb = a * ab_dist / p    # P - B
    n_t = i_max + j_max + 1
    E = np.zeros((i_max + 1, j_max + 1, n_t + 1) + np.shape(a))
    E[0, 0, 0] = np.exp(-mu * ab_dist * ab_dist)
    inv2p = 1.0 / (2.0 * p)
    for i in range(i_max + 1):
        for j in range(j_max + 1):
            if i == 0 and j == 0:
                continue
            for t in range(i + j + 1):
                if j == 0:
                    E[i, j, t] = (
                        (inv2p * E[i - 1, j, t - 1] if t > 0 else 0.0)
                        + xpa * E[i - 1, j, t]
                        + (t + 1) * E[i - 1, j, t + 1]
                    )
                else:
                    E[i, j, t] = (
                        (inv2p * E[i, j - 1, t - 1] if t > 0 else 0.0)
                        + xpb * E[i, j - 1, t]
                        + (t + 1) * E[i, j - 1, t + 1]
                    )
    return E[:, :, :n_t]


def _hermite_coulomb(l_max: int, p, pc, t_arg):
    """Hermite Coulomb derivatives R[t, u, v] up to t+u+v <= l_max.

    p is the total exponent array, pc the (batch, 3) distance P-C, t_arg the
    Boys argument p*|PC|^2. Built by the standard downward index recursion on
    an auxiliary order n, vectorized over the batch axis.
    """
    fn = boys(l_max, t_arg)
    minus2p = -2.0 * p
    # rn[n][t,u,v]: auxiliary tables, consumed from highest n downwards
    rn = {n: {(0, 0, 0): (minus2p**n) * fn[n]} for n in range(l_max + 1)}
    for order in range(1, l_max + 1):
        for n in range(l_max - order + 1):
            table = rn[n]
            src = rn[n + 1]
            for t in range(order + 1):
                for u in range(order - t + 1):
                    v = order - t - u
                    if v > 0:
                        val = pc[..., 2] * src[(t, u, v - 1)]
                        if v > 1:
                            val = val + (v - 1) * src[(t, u, v - 2)]
                    elif u > 0:
                        val = pc[..., 1] * src[(t, u - 1, v)]
                        if u > 1:
                            val = val + (u - 1) * src[(t, u - 2, v)]
                    else:
                        val = pc[..., 0] * src[(t - 1, u, v)]
                        if t > 1:
                            val = val + (t - 1) * src[(t - 2, u, v)]
                    table[(t, u, v)] = val
    return rn[0]


@dataclass(frozen=True)
class _PairTable:
    """Every primitive pair of every AO pair mu >= nu, sorted by pair index."""

    mu: np.ndarray        # (n,) bra AO
    nu: np.ndarray        # (n,) ket AO
    pair: np.ndarray      # (n,) canonical pair index mu*(mu+1)/2 + nu, ascending
    b: np.ndarray         # (n,) ket exponent
    p: np.ndarray         # (n,) total exponent
    center: np.ndarray    # (n, 3) Gaussian-product centre
    cc: np.ndarray        # (n,) contraction-coefficient product
    lb: np.ndarray        # (3, n) ket Cartesian powers
    e: np.ndarray         # (3, j, t, n) E_d[l_a, j, t] at every ket power j <= l_b+2
    density: np.ndarray   # (len(_HERMITE), n) Hermite density E_x[t] E_y[u] E_z[v]


def _pair_index(mu, nu):
    """Canonical index of the unordered AO pair (mu, nu)."""
    hi, lo = np.maximum(mu, nu), np.minimum(mu, nu)
    return hi * (hi + 1) // 2 + lo


def _pair_table(basis: BasisSet) -> _PairTable:
    funcs = basis.functions
    ao = np.repeat(np.arange(len(funcs)), [len(f.exponents) for f in funcs])
    exps = np.concatenate([f.exponents for f in funcs])
    coeffs = np.concatenate([f.coeffs for f in funcs])
    centers = np.array([f.center for f in funcs])[ao]
    powers = np.array([f.powers for f in funcs])[ao].T
    i, j = np.nonzero(ao[:, None] >= ao[None, :])
    pair = _pair_index(ao[i], ao[j])
    order = np.argsort(pair, kind="stable")
    i, j, pair = i[order], j[order], pair[order]
    a, b = exps[i], exps[j]
    ab = centers[i] - centers[j]
    # gather each direction's table at the bra power: (j, t, n)
    e = np.stack([
        np.take_along_axis(
            _hermite_expansion(_L_MAX, _L_MAX + 2, a, b, ab[:, d]),
            powers[d, i][None, None, None, :], axis=0,
        )[0]
        for d in range(3)
    ])
    lb = powers[:, j]
    ex, ey, ez = np.take_along_axis(e, lb[:, None, None, :], axis=1)[:, 0]
    density = np.array([ex[t] * ey[u] * ez[v] for t, u, v in _HERMITE])
    return _PairTable(
        mu=ao[i], nu=ao[j], pair=pair, b=b, p=a + b,
        center=(a[:, None] * centers[i] + b[:, None] * centers[j]) / (a + b)[:, None],
        cc=coeffs[i] * coeffs[j], lb=lb, e=e, density=density,
    )


def _ket_overlap_1d(tab: _PairTable, shift: int) -> np.ndarray:
    """(3, n) one-dimensional overlaps E_d[l_a, l_b+shift, 0].

    A negative ket power is clipped to 0; every caller multiplies it by zero.
    """
    j = np.maximum(tab.lb + shift, 0)
    return np.take_along_axis(tab.e[:, :, 0], j[:, None, :], axis=1)[:, 0]


def _scatter_pairs(tab: _PairTable, values: np.ndarray, k: int) -> np.ndarray:
    """Sum per-primitive-pair values into a symmetric (K, K) matrix."""
    out = np.zeros((k, k))
    np.add.at(out, (tab.mu, tab.nu), values)
    return out + np.tril(out, -1).T


def overlap_matrix(basis: BasisSet) -> np.ndarray:
    """AO overlap via the Gaussian product theorem; exact for s/p Cartesians."""
    tab = _pair_table(basis)
    s = _ket_overlap_1d(tab, 0).prod(axis=0)
    return _scatter_pairs(tab, tab.cc * (np.pi / tab.p) ** 1.5 * s, basis.n_functions)


def kinetic_matrix(basis: BasisSet) -> np.ndarray:
    """Kinetic energy matrix from power-shifted overlaps per direction."""
    tab = _pair_table(basis)
    s_m2, s_0, s_p2 = (_ket_overlap_1d(tab, shift) for shift in (-2, 0, 2))
    lb, b = tab.lb, tab.b
    t1d = -2.0 * b * b * s_p2 + b * (2 * lb + 1) * s_0 - 0.5 * lb * (lb - 1) * s_m2
    total = sum(t1d[d] * s_0[(d + 1) % 3] * s_0[(d + 2) % 3] for d in range(3))
    return _scatter_pairs(tab, tab.cc * (np.pi / tab.p) ** 1.5 * total, basis.n_functions)


def _hermite_contract(alpha, pq, d_bra, d_ket):
    """Sum over i, j of d_bra[i] (-1)^(t'+u'+v') d_ket[j] R[t+t', u+u', v+v'].

    The densities hold the leading rows of _HERMITE ((t,u,v) for bra row i,
    (t',u',v') for ket row j); alpha is the reduced exponent and pq the
    (..., 3) distance between the two charge centres.
    """
    l_max = sum(_HERMITE[len(d_bra) - 1]) + sum(_HERMITE[len(d_ket) - 1])
    r = _hermite_coulomb(l_max, alpha, pq, alpha * np.sum(pq * pq, axis=-1))
    signed = [(-1) ** sum(h) * dk for h, dk in zip(_HERMITE, d_ket)]
    total = 0.0
    for (t, u, v), db in zip(_HERMITE, d_bra):
        ket = sum(dk * r[(t + tt, u + uu, v + vv)] for (tt, uu, vv), dk in zip(_HERMITE, signed))
        total = total + db * ket
    return total


def nuclear_attraction_matrix(basis: BasisSet, mol: Molecule) -> np.ndarray:
    """Electron-nucleus attraction matrix (attractive, negative-definite)."""
    tab = _pair_table(basis)
    pc = tab.center[None] - mol.positions()[:, None]   # (atoms, n, 3)
    # a point charge is a ket density with only E_000 = 1 and infinite exponent
    per_atom = _hermite_contract(tab.p, pc, tab.density, np.ones((1, 1)))
    values = -(mol.charges() @ per_atom) * tab.cc * 2.0 * np.pi / tab.p
    return _scatter_pairs(tab, values, basis.n_functions)


def eri_tensor(basis: BasisSet) -> np.ndarray:
    """Full (mu nu | lam sig) tensor from primitive quartets with bra pair >= ket pair.

    Quartets are contracted ERI_BLOCK at a time and summed per pair of AO
    pairs; one gather then fills all eight permutation images.
    """
    tab = _pair_table(basis)
    k = basis.n_functions
    # the ket rows of bra row r are the table prefix with pair index <= pair[r]
    n_ket = np.searchsorted(tab.pair, tab.pair, side="right")
    ends = np.cumsum(n_ket)
    n_quartets = int(ends[-1])
    pair_sums = np.zeros((k * (k + 1) // 2,) * 2)
    for start in range(0, n_quartets, ERI_BLOCK):
        q = np.arange(start, min(start + ERI_BLOCK, n_quartets))
        bra = np.searchsorted(ends, q, side="right")
        ket = q - (ends[bra] - n_ket[bra])
        p, pk = tab.p[bra], tab.p[ket]
        alpha = p * pk / (p + pk)
        values = _hermite_contract(
            alpha, tab.center[bra] - tab.center[ket], tab.density[:, bra], tab.density[:, ket]
        )
        values *= tab.cc[bra] * tab.cc[ket] * 2.0 * np.pi**2.5 / (p * pk * np.sqrt(p + pk))
        np.add.at(pair_sums, (tab.pair[bra], tab.pair[ket]), values)
    pair_sums += np.tril(pair_sums, -1).T
    ao = np.arange(k)
    index = _pair_index(ao[:, None], ao[None, :])
    return pair_sums[index[:, :, None, None], index[None, None]]


def compute_integrals(basis: BasisSet, mol: Molecule) -> IntegralSet:
    return IntegralSet(
        S=overlap_matrix(basis),
        T=kinetic_matrix(basis),
        V=nuclear_attraction_matrix(basis, mol),
        eri=eri_tensor(basis),
    )


def dump_integrals(integrals: IntegralSet, path) -> None:
    """Write S, h_core and the ERI tensor as index/value text for cross-checks."""
    k = integrals.n_functions
    rows, cols = np.tril_indices(k)              # AO pairs in canonical order
    bra, ket = np.tril_indices(len(rows))        # quartets with bra pair >= ket pair
    quartets = np.stack([rows[bra], cols[bra], rows[ket], cols[ket]])
    values = integrals.eri[tuple(quartets)]
    keep = np.abs(values) > 1e-14
    with open(path, "w") as fh:
        for name, mat in (("S", integrals.S), ("H", integrals.h_core)):
            fh.writelines(f"{name} {i} {j} {mat[i, j]:.15e}\n" for i, j in zip(*np.triu_indices(k)))
        fh.writelines(
            f"ERI {i} {j} {l} {s} {v:.15e}\n" for (i, j, l, s), v in zip(quartets[:, keep].T, values[keep])
        )
