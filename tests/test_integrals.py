"""Integral checks against closed-form primitive oracles.

The oracles here use only textbook formulas for s-type Gaussians (with the
Boys function written in terms of math.erf) and high-precision mpmath
references for the Boys function itself; p-type values are derivatives of the
s formulas with respect to the orbital centre. None of them share code with
the production Hermite-recursion path.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qembed.basis import build_basis
from qembed.integrals import (
    boys,
    compute_integrals,
    eri_tensor,
    kinetic_matrix,
    nuclear_attraction_matrix,
    overlap_matrix,
)
from qembed.molecule import Atom, Molecule, parse_xyz

# --- independent s-orbital primitives --------------------------------------


def f0(t: float) -> float:
    if t < 1e-14:
        return 1.0
    return 0.5 * math.sqrt(math.pi / t) * math.erf(math.sqrt(t))


def prim_overlap(a, b, ra, rb):
    r2 = float(np.sum((ra - rb) ** 2))
    return (math.pi / (a + b)) ** 1.5 * math.exp(-a * b / (a + b) * r2)


def prim_kinetic(a, b, ra, rb):
    p, mu = a + b, a * b / (a + b)
    r2 = float(np.sum((ra - rb) ** 2))
    return mu * (3.0 - 2.0 * mu * r2) * prim_overlap(a, b, ra, rb)


def prim_nuclear(a, b, ra, rb, rc, z):
    p = a + b
    cap_p = (a * ra + b * rb) / p
    r2 = float(np.sum((ra - rb) ** 2))
    pc2 = float(np.sum((cap_p - rc) ** 2))
    return -z * 2.0 * math.pi / p * math.exp(-a * b / p * r2) * f0(p * pc2)


def prim_eri(a, b, c, d, ra, rb, rc, rd):
    p, q = a + b, c + d
    cap_p = (a * ra + b * rb) / p
    cap_q = (c * rc + d * rd) / q
    ab2 = float(np.sum((ra - rb) ** 2))
    cd2 = float(np.sum((rc - rd) ** 2))
    pq2 = float(np.sum((cap_p - cap_q) ** 2))
    pre = 2.0 * math.pi**2.5 / (p * q * math.sqrt(p + q))
    return pre * math.exp(-a * b / p * ab2 - c * d / q * cd2) * f0(p * q / (p + q) * pq2)


def contracted_s(fn, funcs, indices, centers):
    """Sum a primitive formula over all contraction combinations."""
    import itertools

    funcs = [funcs[i] for i in indices]
    total = 0.0
    for prims in itertools.product(*[range(len(f.exponents)) for f in funcs]):
        coeff = 1.0
        args = []
        for f, k in zip(funcs, prims):
            coeff *= f.coeffs[k]
            args.append(f.exponents[k])
        total += coeff * fn(*args, *centers)
    return total


# --- p shells by differentiation ---------------------------------------------
# (x - A_x) exp(-a|r-A|^2) = (1/2a) d/dA_x exp(-a|r-A|^2): a p-type integral is
# the derivative of the s-type closed form above with respect to the centre of
# its p function, taken here with a five-point central difference.

FD_STENCIL = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))   # / (12 h)


def p_primitive(fn, powers, h):
    """Primitive formula for AOs with Cartesian powers `powers` (each s or p)."""
    n = len(powers)

    def wrapped(*args):
        exps, centers = args[:n], list(args[n:])
        for m, pw in enumerate(powers):
            if any(pw):
                inner = p_primitive(fn, powers[:m] + ((0, 0, 0),) + powers[m + 1:], h)
                step = h * np.array(pw, dtype=float)
                total = 0.0
                for k, w in FD_STENCIL:
                    shifted = centers[:m] + [centers[m] + k * step] + centers[m + 1:]
                    total += w * inner(*exps, *shifted)
                return total / (12.0 * h * 2.0 * exps[m])
        return fn(*args)

    return wrapped


def nuclear_sum(mol):
    """Primitive attraction to every nucleus of mol."""
    return lambda a, b, ra, rb: sum(prim_nuclear(a, b, ra, rb, at.position, at.z) for at in mol.atoms)


def contracted_p(fn, funcs, indices, h=1e-3):
    powers = tuple(funcs[i].powers for i in indices)
    return contracted_s(p_primitive(fn, powers, h), funcs, indices, [funcs[i].center for i in indices])


def tilted(xyz):
    """The molecule turned about a generic axis, so no p component vanishes by symmetry."""
    mol = parse_xyz(xyz)
    a, b = 0.61, -1.07
    rot = np.array([[1.0, 0.0, 0.0], [0.0, np.cos(a), -np.sin(a)], [0.0, np.sin(a), np.cos(a)]])
    rot = np.array([[np.cos(b), 0.0, np.sin(b)], [0.0, 1.0, 0.0], [-np.sin(b), 0.0, np.cos(b)]]) @ rot
    return Molecule(tuple(Atom(at.symbol, at.z, rot @ at.position + 0.3) for at in mol.atoms))


@pytest.fixture(scope="module")
def tilted_water():
    from conftest import XYZ

    mol = tilted(XYZ["water"])
    basis = build_basis(mol)
    return mol, basis, compute_integrals(basis, mol)


def test_p_shell_one_electron_by_differentiation(tilted_water):
    mol, basis, ints = tilted_water
    funcs = basis.functions
    for p in (2, 3, 4):           # O 2p_x, 2p_y, 2p_z
        for hs in (5, 6):         # H 1s
            s = contracted_p(prim_overlap, funcs, [p, hs])
            t = contracted_p(prim_kinetic, funcs, [p, hs])
            v = contracted_p(nuclear_sum(mol), funcs, [p, hs])
            assert abs(s) > 1e-3
            assert ints.S[p, hs] == pytest.approx(s, abs=1e-10)
            assert ints.T[p, hs] == pytest.approx(t, abs=1e-10)
            assert ints.V[p, hs] == pytest.approx(v, abs=1e-10)


def test_p_shell_eri_by_differentiation(tilted_water):
    _, basis, ints = tilted_water
    for quartet in [(2, 5, 6, 6), (3, 0, 5, 6), (4, 6, 1, 5), (5, 6, 2, 6)]:
        expected = contracted_p(prim_eri, basis.functions, list(quartet))
        assert ints.eri[quartet] == pytest.approx(expected, abs=1e-10)


def test_p_p_one_electron_by_mixed_differentiation():
    mol = tilted("2\n\nC 0 0 0\nO 0 0 1.128")
    basis = build_basis(mol)
    ints = compute_integrals(basis, mol)
    funcs = basis.functions
    # rounding in a mixed difference grows as 1/h^2; at h = 4e-3 the total
    # error is about 2e-11 for S, 4e-11 for T and 4e-10 for V (|V| up to 2.5)
    for c in (2, 3, 4):           # C 2p
        for o in (7, 8, 9):       # O 2p
            s = contracted_p(prim_overlap, funcs, [c, o], h=4e-3)
            t = contracted_p(prim_kinetic, funcs, [c, o], h=4e-3)
            v = contracted_p(nuclear_sum(mol), funcs, [c, o], h=4e-3)
            assert ints.S[c, o] == pytest.approx(s, abs=1e-10)
            assert ints.T[c, o] == pytest.approx(t, abs=1e-10)
            assert ints.V[c, o] == pytest.approx(v, abs=2e-9)


# --- Boys function ----------------------------------------------------------


def boys_reference(m: int, t: float) -> float:
    if t == 0.0:
        return 1.0 / (2 * m + 1)
    mpmath.mp.dps = 30
    return float(mpmath.gammainc(m + 0.5, 0, t) / (2 * mpmath.power(t, m + 0.5)))


@pytest.mark.parametrize(
    "t", [0.0, 1e-10, 1e-4, 0.3, 1.0, 4.7, 12.0, 25.0, 34.9, 35.0, 35.1, 60.0, 400.0]
)
def test_boys_absolute_accuracy(t):
    values = boys(4, np.array([t]))
    for m in range(5):
        assert values[m][0] == pytest.approx(boys_reference(m, t), abs=1e-14)


def test_boys_dense_sweep_below_the_switch():
    # the Taylor grid at its knots, halfway between knots (the farthest point from
    # one), a quarter of the way and just below the switch to the asymptote; every
    # order 0..4 from the top order n_max = 4 and from each lower n_max
    knots = np.arange(700) * 0.05
    ts = np.concatenate([knots, knots + 0.025, knots + 0.0125, [35.0 - 1e-12]])
    assert len(ts) >= 2000 and ts.max() < 35.0
    reference = np.array([[boys_reference(m, t) for t in ts] for m in range(5)])
    for n_max in range(5):
        assert np.abs(boys(n_max, ts) - reference[: n_max + 1]).max() <= 1e-14


def test_boys_batch_shapes():
    ts = np.linspace(0.0, 80.0, 33)
    out = boys(3, ts)
    assert out.shape == (4, 33)
    assert np.all(np.diff(out, axis=0) <= 0)  # F_m decreasing in m


# --- overlap ----------------------------------------------------------------


def test_overlap_diagonal_is_one(water):
    np.testing.assert_allclose(np.diag(water.ints.S), 1.0, atol=1e-10)


def test_overlap_decays_at_separation():
    mol = parse_xyz("2\n\nH 0 0 0\nH 0 0 40.0")
    s = overlap_matrix(build_basis(mol))
    assert abs(s[0, 1]) < 1e-12


def test_h2_overlap_against_primitive_double_sum(h2):
    funcs = h2.basis.functions
    centers = [funcs[0].center, funcs[1].center]
    expected = contracted_s(prim_overlap, funcs, [0, 1], centers)
    assert h2.ints.S[0, 1] == pytest.approx(expected, abs=1e-12)


def test_overlap_positive_definite(water, lih, ch4):
    for system in (water, lih, ch4):
        assert np.linalg.eigvalsh(system.ints.S).min() > 0.0


# --- kinetic ----------------------------------------------------------------


def test_h2_kinetic_against_primitive_double_sum(h2):
    funcs = h2.basis.functions
    for i, j in [(0, 0), (0, 1)]:
        centers = [funcs[i].center, funcs[j].center]
        expected = contracted_s(prim_kinetic, funcs, [i, j], centers)
        assert h2.ints.T[i, j] == pytest.approx(expected, abs=1e-12)


def test_kinetic_positive_semidefinite(water, ch4):
    for system in (water, ch4):
        assert np.linalg.eigvalsh(system.ints.T).min() > -1e-12


def test_kinetic_p_functions_by_quadrature(water):
    # independent oracle: <phi|T|phi> = 1/2 int grad(g_i) . grad(g_j) summed
    # over primitive pairs, each on a Gauss-Hermite grid matched to its width;
    # checks the oxygen 2p_z diagonal element
    f = water.basis.functions[4]  # 2p_z on oxygen
    nodes, weights = np.polynomial.hermite_e.hermegauss(40)
    total = 0.0
    for a_i, c_i in zip(f.exponents, f.coeffs):
        for a_j, c_j in zip(f.exponents, f.coeffs):
            sigma = 1.0 / math.sqrt(a_i + a_j)
            x, y, z = np.meshgrid(*[nodes * sigma] * 3, indexing="ij")
            w = (
                np.einsum("i,j,k->ijk", weights, weights, weights)
                * sigma**3
                * np.exp((x * x + y * y + z * z) / (2 * sigma**2))
            )
            r2 = x * x + y * y + z * z
            gi, gj = np.exp(-a_i * r2), np.exp(-a_j * r2)
            # grad(z e^-ar2) = (-2axz, -2ayz, 1 - 2az^2) e^-ar2
            dot = (
                4.0 * a_i * a_j * (x * x + y * y) * z * z
                + (1.0 - 2.0 * a_i * z * z) * (1.0 - 2.0 * a_j * z * z)
            )
            total += 0.5 * c_i * c_j * float(np.sum(w * dot * gi * gj))
    assert water.ints.T[4, 4] == pytest.approx(total, rel=1e-10)


def test_core_hamiltonian_translation_invariant(water):
    moved = water.mol.translated([1.7, -0.3, 2.2])
    ints2 = compute_integrals(build_basis(moved), moved)
    np.testing.assert_allclose(ints2.h_core, water.ints.h_core, atol=1e-12)
    np.testing.assert_allclose(ints2.S, water.ints.S, atol=1e-12)
    np.testing.assert_allclose(ints2.eri, water.ints.eri, atol=1e-12)


def test_spectra_rotation_invariant(water):
    # p components mix under rotation, so matrix entries change but the
    # spectra (and the SCF energy, tested elsewhere) are preserved
    theta = 0.813
    rot = np.array([
        [np.cos(theta), -np.sin(theta), 0.0],
        [np.sin(theta), np.cos(theta), 0.0],
        [0.0, 0.0, 1.0],
    ])
    rotated = Molecule(
        tuple(Atom(a.symbol, a.z, rot @ a.position) for a in water.mol.atoms)
    )
    b2 = build_basis(rotated)
    s2 = overlap_matrix(b2)
    t2 = kinetic_matrix(b2)
    v2 = nuclear_attraction_matrix(b2, rotated)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(s2), np.linalg.eigvalsh(water.ints.S), atol=1e-10
    )
    np.testing.assert_allclose(
        np.linalg.eigvalsh(t2 + v2), np.linalg.eigvalsh(water.ints.h_core), atol=1e-10
    )


def test_hydrogen_atom_core_element():
    mol = Molecule((Atom("H", 1, np.zeros(3)),), charge=-1)
    ints = compute_integrals(build_basis(mol), mol)
    assert ints.h_core[0, 0] == pytest.approx(-0.46658, abs=2e-4)


# --- electron repulsion -----------------------------------------------------


def test_one_center_ss_eri_closed_form():
    # single normalized s primitive: (ss|ss) = 2 sqrt(alpha/pi)
    from qembed.basis import BasisFunction, BasisSet, primitive_norm

    alpha = 0.731
    exps = np.array([alpha])
    coeffs = np.array([primitive_norm(alpha, (0, 0, 0))])
    func = BasisFunction(0, np.zeros(3), (0, 0, 0), exps, coeffs)
    toy = BasisSet((func,))
    value = eri_tensor(toy)[0, 0, 0, 0]
    assert value == pytest.approx(2.0 * math.sqrt(alpha / math.pi), abs=1e-13)


def test_h2_unique_eri_against_primitive_sextuple_sum(h2):
    funcs = h2.basis.functions
    eri = h2.ints.eri
    for (i, j, k, l) in [(0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1), (0, 1, 0, 1)]:
        centers = [funcs[m].center for m in (i, j, k, l)]
        expected = contracted_s(prim_eri, funcs, [i, j, k, l], centers)
        assert eri[i, j, k, l] == pytest.approx(expected, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_eri_eightfold_symmetry(data):
    from conftest import get_system

    eri = get_system("water").ints.eri
    k = eri.shape[0]
    idx = st.integers(0, k - 1)
    p, q, r, s = (data.draw(idx) for _ in range(4))
    ref = eri[p, q, r, s]
    for perm in [
        (q, p, r, s), (p, q, s, r), (q, p, s, r),
        (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
    ]:
        assert eri[perm] == pytest.approx(ref, abs=1e-12)


def test_eri_block_seams(water, monkeypatch):
    # 101 divides neither water's 32,886 primitive quartets nor any bra row's
    # ket range (multiples of 9), so blocks end mid-row and the last is partial
    import qembed.integrals

    monkeypatch.setattr(qembed.integrals, "ERI_BLOCK", 101)
    np.testing.assert_allclose(eri_tensor(water.basis), water.ints.eri, rtol=0, atol=1e-14)


def test_eri_positive_semidefinite_as_matrix(water):
    k = water.ints.S.shape[0]
    mat = water.ints.eri.reshape(k * k, k * k)
    assert np.linalg.eigvalsh(mat).min() > -1e-10


def test_nuclear_attraction_ss_oracle(h2):
    funcs = h2.basis.functions
    expected = 0.0
    for atom in h2.mol.atoms:
        expected += contracted_s(
            lambda a, b, ra, rb: prim_nuclear(a, b, ra, rb, atom.position, atom.z),
            funcs, [0, 1], [funcs[0].center, funcs[1].center],
        )
    assert h2.ints.V[0, 1] == pytest.approx(expected, abs=1e-12)


def test_eri_follows_atom_reordering():
    # exponent-shell pairs are not ordered like AO pairs; listing the H atoms
    # first and O before C reorders both, and the tensor must follow the AOs
    from conftest import XYZ

    header, atoms = XYZ["methanol"].splitlines()[:2], XYZ["methanol"].splitlines()[2:]
    order = [5, 2, 1, 3, 0, 4]
    base = build_basis(parse_xyz(XYZ["methanol"]))
    moved = build_basis(parse_xyz("\n".join(header + [atoms[i] for i in order])))
    perm = np.concatenate([np.flatnonzero(base.atom_of_function() == i) for i in order])
    expected = eri_tensor(base)[np.ix_(perm, perm, perm, perm)]
    np.testing.assert_allclose(eri_tensor(moved), expected, rtol=0, atol=1e-13)


def test_butane_eri_symmetric_definite_and_bounded(butane):
    import tracemalloc

    tracemalloc.start()
    try:
        eri = eri_tensor(butane.basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k = eri.shape[0]
    assert k == 30
    assert peak <= 64e6
    # every permutation image is the same stored value, so symmetry holds bitwise
    for perm in [(2, 3, 0, 1), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
                 (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0)]:
        assert np.array_equal(eri, eri.transpose(perm))
    assert np.linalg.eigvalsh(eri.reshape(k * k, k * k)).min() >= -1e-12


def test_one_pair_table_per_compute_integrals(water, monkeypatch):
    # water has three shell-pair classes (s.s, sp.s, sp.sp); S, T, V and the ERI
    # tensor of one compute_integrals call share one table
    import qembed.integrals

    built = []
    original = qembed.integrals._pair_class

    def counting(funcs, pairs):
        built.append(len(pairs))
        return original(funcs, pairs)

    monkeypatch.setattr(qembed.integrals, "_pair_class", counting)
    qembed.integrals._pair_classes.cache_clear()
    compute_integrals(build_basis(water.mol), water.mol)
    assert len(built) == 3


def test_pair_table_cache_follows_the_basis(water):
    # a new basis at another geometry must not reuse the table of the last one
    from qembed.integrals import _pair_classes

    atoms = list(water.mol.atoms)
    atoms[1] = Atom(atoms[1].symbol, atoms[1].z, atoms[1].position + np.array([0.0, 0.3, -0.1]))
    moved = Molecule(tuple(atoms))
    compute_integrals(build_basis(water.mol), water.mol)
    basis = build_basis(moved)
    cached = compute_integrals(basis, moved)
    _pair_classes.cache_clear()
    fresh = compute_integrals(basis, moved)
    for name in ("S", "T", "V", "eri"):
        assert np.array_equal(getattr(cached, name), getattr(fresh, name)), name
    assert not np.array_equal(cached.S, water.ints.S)


# --- contraction order: the per-quartet D_bra @ M @ D_ket^T reference ---------


def _hermite_matrix(alpha, pq, n_bra, n_ket, scale):
    """M itself: _coulomb against an identity ket density is exact (products by 1, sums of 0)."""
    import qembed.integrals

    return qembed.integrals._coulomb(alpha, pq, n_bra, np.eye(n_ket), scale)


def _shell_quartets_reference(bra, ket, s_bra, s_ket):
    """D_bra @ M @ D_ket^T for every primitive quartet, summed per shell quartet."""
    n_ket = ket.sizes[s_ket]
    counts = bra.sizes[s_bra] * n_ket
    offsets = np.cumsum(counts) - counts
    q = np.repeat(np.arange(len(counts)), counts)
    local = np.arange(counts.sum()) - offsets[q]
    rb = bra.starts[s_bra][q] + local // n_ket[q]
    rk = ket.starts[s_ket][q] + local % n_ket[q]
    p, pk = bra.p[rb], ket.p[rk]
    m = _hermite_matrix(p * pk / (p + pk), bra.center[rb] - ket.center[rk],
                        bra.density.shape[-1], ket.density.shape[-1],
                        2.0 * np.pi**2.5 / (p * pk * np.sqrt(p + pk)))
    values = bra.density[rb] @ m @ np.swapaxes(ket.density[rk], -1, -2)
    return np.add.reduceat(values, offsets, axis=0)


@pytest.mark.parametrize("name", ["h2", "water", "ch4", "methanol", "butane"])
def test_ket_first_contraction_matches_per_quartet_reference(name, monkeypatch):
    # the ERI sums M @ D_ket^T over the kets of a bra primitive before applying
    # D_bra, and V sums M @ 1 over the nuclei: the same numbers to round-off
    import qembed.integrals
    from conftest import XYZ

    mol = parse_xyz(XYZ[name])
    basis = build_basis(mol)
    eri, v = eri_tensor(basis), nuclear_attraction_matrix(basis, mol)

    def rows(cls):
        pc = cls.center[None] - mol.positions()[:, None]
        scale = -mol.charges()[:, None] * 2.0 * np.pi / cls.p
        m = _hermite_matrix(cls.p, pc, cls.density.shape[-1], 1, scale)
        return (cls.density @ m).sum(axis=0)[..., 0]

    monkeypatch.setattr(qembed.integrals, "_shell_quartets", _shell_quartets_reference)
    np.testing.assert_allclose(eri, eri_tensor(basis), rtol=0, atol=1e-14)
    # V entries reach 64 Ha, where one unit in the last place is 1.4e-14
    np.testing.assert_allclose(v, qembed.integrals._one_electron(basis, rows),
                               rtol=1e-15, atol=1e-14)
