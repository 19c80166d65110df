"""AO integrals over contracted Cartesian Gaussians (s and p shells).

Everything is evaluated with the Gaussian product theorem in a Hermite
intermediate basis: expansion coefficients E couple Cartesian powers to
Hermite Gaussians, and the Coulomb-type integrals contract those against
a table of Hermite derivatives R of the Boys function.

The unit of work is the exponent shell, the AOs on one atom that share an
exponent vector (STO-3G 2s and 2p do). One table holds every primitive pair
of every shell pair, bucketed by class (s.s, sp.s, sp.sp), with a (component
pair x Hermite) density per row. S and T are array expressions over it. V and
the ERI share one Hermite-Coulomb path (a nucleus is a ket with E_000 = 1): R
is built once per primitive pair and nucleus or per primitive shell quartet and
gathered into a signed Hermite matrix M. M @ D_ket^T is summed over the kets of
one bra primitive (its quartets, or the nuclei) before the bra density is applied,
so D_bra multiplies once per bra primitive, not once per ket (the contraction
order of PRISM, Gill & Pople, Int. J. Quantum Chem. 40, 753 (1991)). The K = 30
ERI tensor takes about 0.4 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import CARTESIAN_POWERS, BasisSet
from .molecule import Molecule

ERI_BLOCK = 4096   # primitive quartets per eri_tensor batch; a batch holds whole shell quartets
_BOYS_SWITCH = 35.0
_BOYS_SERIES_TERMS = 130   # ascending series terms, for the Taylor grid knots
_BOYS_STEP = 0.05
_BOYS_TAYLOR_TERMS = 8
_L_MAX = max(CARTESIAN_POWERS)
# Hermite indices (t, u, v) by total order, up to the order of R in a quartet
_HERMITE = [
    (t, u, n - t - u) for n in range(4 * _L_MAX + 1) for t in range(n + 1) for u in range(n - t + 1)
]
_DENSITY = [h for h in _HERMITE if sum(h) <= 2 * _L_MAX]   # Hermite rows of a pair density
# M[i, j] = (-1)^|h_j| R[h_i + h_j]: the position of h_i + h_j in _HERMITE and the ket sign
_SUM_INDEX = np.array([[_HERMITE.index(tuple(np.add(hi, hj))) for hj in _DENSITY] for hi in _DENSITY])
_KET_SIGN = np.array([(-1.0) ** sum(h) for h in _DENSITY])


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


@lru_cache(maxsize=None)  # one table per top order, built on first use
def _boys_table(n: int) -> np.ndarray:
    """F_{n+j}(t_k) / j! for j < _BOYS_TAYLOR_TERMS at the knots t_k = k * _BOYS_STEP <= 35.

    Shape (terms, knots). The top order comes from the ascending series, the rest by
    downward recursion.
    """
    t = np.arange(round(_BOYS_SWITCH / _BOYS_STEP) + 1) * _BOYS_STEP
    top = n + _BOYS_TAYLOR_TERMS - 1
    term = np.full_like(t, 1.0 / (2 * top + 1))
    acc = term.copy()
    for i in range(1, _BOYS_SERIES_TERMS):
        term = term * 2.0 * t / (2 * top + 2 * i + 1)
        acc += term
    expt = np.exp(-t)
    table = [acc * expt]
    for m in range(top, n, -1):   # F_{m-1} = (2t F_m + e^-t)/(2m-1)
        table.append((2.0 * t * table[-1] + expt) / (2 * m - 1))
    return np.array(table[::-1]) / np.cumprod([1.0, *range(1, _BOYS_TAYLOR_TERMS)])[:, None]


def boys(n_max: int, t: np.ndarray) -> np.ndarray:
    """Boys functions F_0..F_n_max, shape (n_max+1,) + t.shape.

    Small arguments (t < 35) take F_{n_max} from a Taylor expansion about the nearest
    knot of a grid (Helgaker, Jorgensen & Olsen, section 9.8), F_n(t_k - d) =
    sum_j F_{n+j}(t_k) d^j / j!, then recurse downward; large arguments the
    complete-integral asymptote with upward recursion. Absolute accuracy is ~1e-15 over
    the whole range.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty((n_max + 1,) + t.shape)
    small = t < _BOYS_SWITCH
    ts = t[small]
    knot = np.rint(ts * (1.0 / _BOYS_STEP)).astype(np.intp)
    d = knot * _BOYS_STEP - ts
    coeffs = _boys_table(n_max)[:, knot]
    f = coeffs[-1]
    for c in coeffs[-2::-1]:   # Horner in d
        f = f * d + c
    expt_s = np.exp(-ts)
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
    """Hermite expansion coefficients E[i, j, t] along one Cartesian axis per batch entry.

    a, b, ab_dist are arrays over primitive pairs, broadcast together into the
    batch, so one call may hold all three axes; the result has shape
    (i_max+1, j_max+1, i_max+j_max+1) + batch.
    """
    p = a + b
    mu = a * b / p
    xpa = -b * ab_dist / p   # P - A
    xpb = a * ab_dist / p    # P - B
    n_t = i_max + j_max + 1
    E = np.zeros((i_max + 1, j_max + 1, n_t + 1) + np.shape(xpa))   # xpa has the batch shape
    E[0, 0, 0] = np.exp(-mu * ab_dist * ab_dist)
    inv2p = 1.0 / (2.0 * p)
    for i, j in ((i, j) for i in range(i_max + 1) for j in range(j_max + 1) if i or j):
        # raise the ket power from E[i, j-1] when j > 0, else the bra power from E[i-1, 0]
        prev, x_p = (E[i, j - 1], xpb) if j else (E[i - 1, j], xpa)
        for t in range(i + j + 1):
            E[i, j, t] = (inv2p * prev[t - 1] if t > 0 else 0.0) + x_p * prev[t] + (t + 1) * prev[t + 1]
    return E[:, :, :n_t]


@lru_cache(maxsize=None)  # the index bookkeeping of one order, shared by every batch
def _hermite_steps(order: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """(i, d, lower, lower2, h_d - 1) for each h = _HERMITE[i] of one total order.

    R_h = PC_d R_{h - e_d} + (h_d - 1) R_{h - 2 e_d}, lowering the last nonzero index d;
    lower and lower2 are the positions of h - e_d and h - 2 e_d in _HERMITE (lower2 is
    unused when h_d = 1).
    """
    steps = []
    for i, h in enumerate(_HERMITE):
        if sum(h) == order:
            d = max(k for k in range(3) if h[k])
            lowered = [tuple(x - m * (k == d) for k, x in enumerate(h)) for m in (1, 2)]
            lower2 = _HERMITE.index(lowered[1]) if h[d] > 1 else 0
            steps.append((i, d, _HERMITE.index(lowered[0]), lower2, h[d] - 1))
    return tuple(steps)


def _hermite_coulomb(l_max: int, p, pc, t_arg):
    """Hermite Coulomb derivatives R[..., i] for the _HERMITE[i] of order <= l_max.

    p is the total exponent array, pc the (..., 3) distance P-C, t_arg the
    Boys argument p*|PC|^2. Built by the standard downward index recursion on
    an auxiliary order n, seeded with (-2p)^n F_n by a running product.
    """
    fn = boys(l_max, t_arg)
    pc_axes = [np.ascontiguousarray(pc[..., d]) for d in range(3)]
    rn, power = [], 1.0   # rn[n][i]: auxiliary tables by _HERMITE index, used from highest n down
    for n in range(l_max + 1):
        rn.append([power * fn[n]])
        power = power * (-2.0 * p)
    for order in range(1, l_max + 1):
        steps = _hermite_steps(order)
        for n in range(l_max - order + 1):
            src, dst = rn[n + 1], rn[n]
            for i, d, lower, lower2, k in steps:
                val = pc_axes[d] * src[lower]
                dst.append(val + k * src[lower2] if k else val)
    return np.stack(rn[0], axis=-1)


def _coulomb(alpha, pq, n_bra, d_ket, scale):
    """scale * M @ D_ket^T with M[i, j] = (-1)^|h_j| R[h_i + h_j], i < n_bra.

    d_ket is a (..., components, Hermite) density over the leading rows of _HERMITE, n_bra
    the number of bra Hermite rows; alpha is the reduced exponent, pq the (..., 3)
    distance between the centres. The caller sums the result over the kets of one bra
    and then applies the bra density once.
    """
    nk = d_ket.shape[-1]
    l_max = sum(_HERMITE[n_bra - 1]) + sum(_HERMITE[nk - 1])
    r = _hermite_coulomb(l_max, alpha, pq, alpha * np.sum(pq * pq, axis=-1))
    m = r[..., _SUM_INDEX[:n_bra, :nk]] * (scale[..., None, None] * _KET_SIGN[:nk])
    return m @ np.swapaxes(d_ket, -1, -2)


@dataclass(frozen=True)
class _PairClass:
    """Every primitive pair of the shell pairs of one class, rows contiguous per shell pair.

    A component pair is one (bra AO, ket AO); row values include contraction coefficients.
    """

    ao: np.ndarray        # (2, pairs, c) bra and ket AO of each component pair
    starts: np.ndarray    # (pairs,) first row of each shell pair
    sizes: np.ndarray     # (pairs,) rows of each shell pair
    p: np.ndarray         # (n,) total exponent
    center: np.ndarray    # (n, 3) Gaussian-product centre
    overlap: np.ndarray   # (n, c)
    kinetic: np.ndarray   # (n, c)
    density: np.ndarray   # (n, c, h) Hermite density E_x[t] E_y[u] E_z[v]


def _pair_index(mu, nu):
    """Canonical index of the unordered AO pair (mu, nu)."""
    hi, lo = np.maximum(mu, nu), np.minimum(mu, nu)
    return hi * (hi + 1) // 2 + lo


@lru_cache(maxsize=1)  # the last basis, by identity: the four integral functions share one table
def _pair_classes(basis: BasisSet) -> tuple[_PairClass, ...]:
    """Bucket every unordered pair of exponent shells by its (bra, ket) components."""
    funcs = basis.functions
    shells: dict[tuple, list[int]] = {}
    for mu, f in enumerate(funcs):
        shells.setdefault((f.atom_index, f.center.tobytes(), f.exponents.tobytes()), []).append(mu)
    aos = list(shells.values())
    # order shells by their components, so the bra of a pair is the larger: s.s, sp.s, sp.sp
    kinds = [(len(sh), tuple(funcs[mu].powers for mu in sh)) for sh in aos]
    buckets: dict[tuple, list[tuple[list[int], list[int]]]] = {}
    for a in range(len(aos)):
        for b in range(a + 1):
            bra, ket = (a, b) if kinds[a] >= kinds[b] else (b, a)
            buckets.setdefault((kinds[bra], kinds[ket]), []).append((aos[bra], aos[ket]))
    return tuple(_pair_class(funcs, buckets[key]) for key in sorted(buckets))


def _pair_class(funcs, pairs) -> _PairClass:
    parts = []
    for bra, ket in pairs:
        fa, fb = funcs[bra[0]], funcs[ket[0]]
        i, j = (x.ravel() for x in np.indices((len(fa.exponents), len(fb.exponents))))
        cc = np.array([funcs[m].coeffs[i] * funcs[n].coeffs[j] for m in bra for n in ket])
        centers = (np.repeat(f.center[:, None], len(i), axis=1) for f in (fa, fb))
        parts.append((fa.exponents[i], fb.exponents[j], *centers, cc))
    a, b, ra, rb, cc = (np.concatenate(x, axis=-1) for x in zip(*parts))
    # component pair c = (bra component, ket component), bra-major as in cc
    ia, ib = (x.ravel() for x in np.indices((len(pairs[0][0]), len(pairs[0][1]))))
    la = np.array([funcs[mu].powers for mu in pairs[0][0]])[ia].T   # (3, c)
    lb = np.array([funcs[mu].powers for mu in pairs[0][1]])[ib].T
    # [d, i, j, t, row]: the three directions in one expansion
    e = np.moveaxis(_hermite_expansion(la.max(), lb.max() + 2, a, b, ra - rb), 3, 0)
    order = la.sum(0).max() + lb.sum(0).max()
    herm = np.array([h for h in _DENSITY if sum(h) <= order]).T
    density = np.prod([e[d][la[d][:, None], lb[d][:, None], herm[d]] for d in range(3)], axis=0)
    # one-dimensional overlaps at ket powers lb - 2 (clipped: it meets lb(lb-1) = 0), lb, lb + 2
    shifted = [[e[d][la[d], np.maximum(lb[d] + k, 0), 0] for d in range(3)] for k in (-2, 0, 2)]
    (s_m2, s_0, s_p2), lb = np.array(shifted), lb[..., None]
    t1d = -2.0 * b * b * s_p2 + b * (2 * lb + 1) * s_0 - 0.5 * lb * (lb - 1) * s_m2
    kinetic = sum(t1d[d] * s_0[(d + 1) % 3] * s_0[(d + 2) % 3] for d in range(3))
    pref = cc * (np.pi / (a + b)) ** 1.5
    sizes = np.array([len(part[0]) for part in parts])
    return _PairClass(
        ao=np.array([[np.array(sh[side])[idx] for sh in pairs] for side, idx in ((0, ia), (1, ib))]),
        starts=np.cumsum(sizes) - sizes, sizes=sizes, p=a + b,
        center=((a * ra + b * rb) / (a + b)).T, overlap=(pref * s_0.prod(axis=0)).T,
        kinetic=(pref * kinetic).T, density=(density * cc[:, None]).transpose(2, 0, 1),
    )


def _one_electron(basis: BasisSet, row_values) -> np.ndarray:
    """Sum per-primitive-pair (n, c) values into a bitwise symmetric (K, K) matrix."""
    out = np.zeros((basis.n_functions,) * 2)
    for cls in _pair_classes(basis):
        sums = np.add.reduceat(row_values(cls), cls.starts, axis=0)
        out[cls.ao[0], cls.ao[1]] = out[cls.ao[1], cls.ao[0]] = sums
    return np.tril(out) + np.tril(out, -1).T


def overlap_matrix(basis: BasisSet) -> np.ndarray:
    """AO overlap via the Gaussian product theorem; exact for s/p Cartesians."""
    return _one_electron(basis, lambda cls: cls.overlap)


def kinetic_matrix(basis: BasisSet) -> np.ndarray:
    """Kinetic energy matrix from power-shifted overlaps per direction."""
    return _one_electron(basis, lambda cls: cls.kinetic)


def nuclear_attraction_matrix(basis: BasisSet, mol: Molecule) -> np.ndarray:
    """Electron-nucleus attraction matrix (attractive, negative-definite)."""
    def rows(cls):
        pc = cls.center[None] - mol.positions()[:, None]   # (atoms, n, 3)
        # a point charge is a ket density with only E_000 = 1 and infinite exponent
        scale = -mol.charges()[:, None] * 2.0 * np.pi / cls.p
        ket = _coulomb(cls.p, pc, cls.density.shape[-1], np.ones((1, 1)), scale).sum(axis=0)
        return (cls.density @ ket)[..., 0]

    return _one_electron(basis, rows)


def _shell_quartets(bra: _PairClass, ket: _PairClass, s_bra, s_ket) -> np.ndarray:
    """(quartets, bra components, ket components) ERI blocks of shell pairs s_bra x s_ket.

    The primitive quartets of one bra primitive are consecutive rows, so M @ D_ket^T is
    summed over them before D_bra is applied, once per bra primitive.
    """
    n_bra, n_ket = bra.sizes[s_bra], ket.sizes[s_ket]
    counts = n_bra * n_ket   # primitive quartets, contiguous per shell quartet
    q = np.repeat(np.arange(len(counts)), counts)
    local = np.arange(counts.sum()) - (np.cumsum(counts) - counts)[q]
    bra_row, ket_row = np.divmod(local, n_ket[q])
    rb = bra.starts[s_bra][q] + bra_row
    rk = ket.starts[s_ket][q] + ket_row
    p, pk = bra.p[rb], ket.p[rk]
    half = _coulomb(p * pk / (p + pk), bra.center[rb] - ket.center[rk], bra.density.shape[-1],
                    ket.density[rk], 2.0 * np.pi**2.5 / (p * pk * np.sqrt(p + pk)))
    first = np.flatnonzero(ket_row == 0)   # the first quartet of each bra primitive
    values = bra.density[rb[first]] @ np.add.reduceat(half, first, axis=0)
    return np.add.reduceat(values, np.cumsum(n_bra) - n_bra, axis=0)


def eri_tensor(basis: BasisSet) -> np.ndarray:
    """Full (mu nu | lam sig) tensor from the unique shell quartets of each class pair.

    Batches of about ERI_BLOCK primitive quartets hold whole shell quartets. Each block is
    written at both bra/ket images of a matrix over canonical AO pairs, which is then
    symmetrized from its lower triangle; one gather fills all eight permutation images.
    """
    k = basis.n_functions
    classes = _pair_classes(basis)
    pair = [_pair_index(*cls.ao) for cls in classes]
    pair_sums = np.zeros((k * (k + 1) // 2,) * 2)
    for x, bra in enumerate(classes):
        for y, ket in enumerate(classes[: x + 1]):
            every = np.ones((len(bra.sizes), len(ket.sizes)))
            s_bra, s_ket = np.nonzero(np.tril(every) if x == y else every)
            counts = bra.sizes[s_bra] * ket.sizes[s_ket]
            batch = (np.cumsum(counts) - counts) // ERI_BLOCK
            for sl in np.split(np.arange(len(counts)), np.flatnonzero(np.diff(batch)) + 1):
                values = _shell_quartets(bra, ket, s_bra[sl], s_ket[sl])
                i, j = pair[x][s_bra[sl]], pair[y][s_ket[sl]]
                pair_sums[i[:, :, None], j[:, None, :]] = values
                pair_sums[j[:, :, None], i[:, None, :]] = values.transpose(0, 2, 1)
    pair_sums = np.tril(pair_sums) + np.tril(pair_sums, -1).T
    index = _pair_index(*np.indices((k, k)))
    return pair_sums[index[:, :, None, None], index[None, None]]


def compute_integrals(basis: BasisSet, mol: Molecule) -> IntegralSet:
    return IntegralSet(
        S=overlap_matrix(basis),
        T=kinetic_matrix(basis),
        V=nuclear_attraction_matrix(basis, mol),
        eri=eri_tensor(basis),
    )
