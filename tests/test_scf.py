import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qembed.scf
from qembed.exceptions import ConvergenceError, InputError
from qembed.molecule import parse_xyz
from qembed.scf import (
    _Diis,
    density_matrix,
    electronic_energy,
    fock_build,
    run_rhf,
    solve_roothaan,
    two_electron_matrix,
)
from qembed.solver import fci_oracle


def h2_energy_closed_form() -> float:
    """Independent minimal-basis RHF: closed-form s-primitive formulas.

    The symmetric molecule has its occupied MO fixed by symmetry, so the
    energy follows from the integrals without any SCF iteration.
    """
    alphas = [3.425250914, 0.623913729, 0.168855403]
    ds = [0.154328967, 0.535328142, 0.444634542]
    cs = [d * (2 * a / math.pi) ** 0.75 for d, a in zip(ds, alphas)]
    r = 0.7414 / 0.52917721092

    def f0(t):
        if t < 1e-14:
            return 1.0
        return 0.5 * math.sqrt(math.pi / t) * math.erf(math.sqrt(t))

    def s_ab(a, b, r2):
        return (math.pi / (a + b)) ** 1.5 * math.exp(-a * b / (a + b) * r2)

    def t_ab(a, b, r2):
        mu = a * b / (a + b)
        return mu * (3 - 2 * mu * r2) * s_ab(a, b, r2)

    def v_ab(a, b, ra, rb, rc):
        p = a + b
        centre = (a * ra + b * rb) / p
        return -2 * math.pi / p * math.exp(-a * b / p * (ra - rb) ** 2) * f0(
            p * (centre - rc) ** 2
        )

    def g_abcd(a, b, c, d, ra, rb, rc, rd):
        p, q = a + b, c + d
        cp = (a * ra + b * rb) / p
        cq = (c * rc + d * rd) / q
        pre = 2 * math.pi**2.5 / (p * q * math.sqrt(p + q))
        return pre * math.exp(
            -a * b / p * (ra - rb) ** 2 - c * d / q * (rc - rd) ** 2
        ) * f0(p * q / (p + q) * (cp - cq) ** 2)

    pos = [0.0, r]

    def c2(fn, i, j):
        return sum(
            ca * cb * fn(a, b, (pos[i] - pos[j]) ** 2)
            for a, ca in zip(alphas, cs)
            for b, cb in zip(alphas, cs)
        )

    norm = 1.0 / math.sqrt(c2(s_ab, 0, 0))
    s12 = c2(s_ab, 0, 1) * norm**2

    def hcore(i, j):
        kin = c2(t_ab, i, j)
        nuc = sum(
            ca * cb * v_ab(a, b, pos[i], pos[j], rc)
            for a, ca in zip(alphas, cs)
            for b, cb in zip(alphas, cs)
            for rc in pos
        )
        return (kin + nuc) * norm**2

    def eri(i, j, k, l):
        return norm**4 * sum(
            ca * cb * cc * cd * g_abcd(a, b, c, d, pos[i], pos[j], pos[k], pos[l])
            for a, ca in zip(alphas, cs)
            for b, cb in zip(alphas, cs)
            for c, cc in zip(alphas, cs)
            for d, cd in zip(alphas, cs)
        )

    h_mo = (hcore(0, 0) + hcore(0, 1)) / (1 + s12)
    j_mo = (
        eri(0, 0, 0, 0) + eri(0, 0, 1, 1) + 4 * eri(0, 0, 0, 1) + 2 * eri(0, 1, 0, 1)
    ) / (2 * (1 + s12) ** 2)
    return 2 * h_mo + j_mo + 1.0 / r


H2_RHF_ORACLE = h2_energy_closed_form()  # -1.116684387...


def test_h2_energy_against_closed_form_oracle(h2):
    assert H2_RHF_ORACLE == pytest.approx(-1.1166843874, abs=1e-9)
    assert h2.scf.E_total == pytest.approx(H2_RHF_ORACLE, abs=1e-9)


def test_he_energy_reference(he):
    assert he.scf.E_total == pytest.approx(-2.8077839575, abs=1e-6)


def test_h2o_energy_regression(water):
    # frozen from this implementation after the integral stack was validated
    # against the closed-form, quadrature, and mpmath oracles
    assert water.scf.E_total == pytest.approx(-74.9630233741, abs=1e-8)


def test_density_matrix_identity_case():
    c_occ = np.array([[1.0], [0.0]])
    np.testing.assert_allclose(density_matrix(c_occ), [[2.0, 0.0], [0.0, 0.0]])


def test_density_trace_counts_electrons(water):
    gamma = density_matrix(water.scf.C_occ)
    n = np.einsum("pq,qp->", water.ints.S, gamma)
    assert n == pytest.approx(water.mol.n_electrons, abs=1e-8)


def test_density_idempotent(water, ch4):
    for system in (water, ch4):
        half = system.scf.gamma @ system.ints.S / 2.0
        assert np.linalg.norm(half @ half - half) < 1e-7


def test_fock_with_zero_density_is_core(water):
    f = fock_build(np.zeros_like(water.ints.S), water.ints.h_core, water.ints.eri)
    np.testing.assert_allclose(f, water.ints.h_core, atol=1e-14)


@settings(max_examples=15, deadline=None)
@given(a=st.floats(-3, 3, allow_nan=False), b=st.floats(-3, 3, allow_nan=False))
def test_two_electron_build_is_linear(a, b):
    from conftest import get_system

    water = get_system("water")
    rng = np.random.default_rng(7)
    g1 = rng.standard_normal((7, 7))
    g1 = g1 + g1.T
    g2 = rng.standard_normal((7, 7))
    g2 = g2 + g2.T
    lhs = two_electron_matrix(a * g1 + b * g2, water.ints.eri)
    rhs = a * two_electron_matrix(g1, water.ints.eri) + b * two_electron_matrix(
        g2, water.ints.eri
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def assert_relative(actual, reference, rtol=1e-12):
    assert np.abs(actual - reference).max() <= rtol * np.abs(reference).max()


@pytest.mark.parametrize("name", ["water", "methanol"])
def test_two_electron_matrix_matches_the_einsum_contractions(name, request):
    system = request.getfixturevalue(name)
    eri = system.ints.eri
    rng = np.random.default_rng(11)
    random = rng.standard_normal(eri.shape[:2])
    for gamma in (system.scf.gamma, random + random.T):
        j = np.einsum("pqrs,sr->pq", eri, gamma)
        k = np.einsum("prsq,rs->pq", eri, gamma)
        assert_relative(two_electron_matrix(gamma, eri), j - 0.5 * k)


class _VdotLoopDiis(_Diis):
    """The extrapolation with B built entry by entry from vdot, as the reference."""

    def extrapolate(self, fock, error):
        self.focks.append(fock)
        self.errors.append(error)
        if len(self.focks) > qembed.scf.DIIS_SIZE:
            self.focks.pop(0)
            self.errors.pop(0)
        while len(self.focks) > 1:
            n = len(self.focks)
            b = -np.ones((n + 1, n + 1))
            b[-1, -1] = 0.0
            for i in range(n):
                for j in range(i, n):
                    b[i, j] = b[j, i] = np.vdot(self.errors[i], self.errors[j])
            rhs = np.zeros(n + 1)
            rhs[-1] = -1.0
            try:
                coeffs = np.linalg.solve(b, rhs)[:n]
            except np.linalg.LinAlgError:
                self.focks.pop(0)
                self.errors.pop(0)
                continue
            if np.max(np.abs(coeffs)) > 1e6:
                self.focks.pop(0)
                self.errors.pop(0)
                continue
            return np.einsum("i,ipq->pq", coeffs, np.asarray(self.focks))
        return fock


def test_diis_matches_the_vdot_loop(methanol, monkeypatch):
    # replay the (Fock, residual) pairs of a methanol RHF run, which passes the
    # subspace size, through the product-built B matrix and the vdot loop
    steps = []
    extrapolate = _Diis.extrapolate

    def recorded(self, fock, error):
        steps.append((fock.copy(), error.copy()))
        return extrapolate(self, fock, error)

    monkeypatch.setattr(qembed.scf._Diis, "extrapolate", recorded)
    run_rhf(methanol.mol, methanol.ints)
    monkeypatch.undo()
    assert len(steps) >= 10 > qembed.scf.DIIS_SIZE
    diis, reference = _Diis(), _VdotLoopDiis()
    for fock, error in steps[:10]:
        assert_relative(diis.extrapolate(fock, error), reference.extrapolate(fock, error))
    assert len(diis.focks) == len(reference.focks) == qembed.scf.DIIS_SIZE


def test_roothaan_orthonormal_identity_overlap():
    rng = np.random.default_rng(3)
    f = rng.standard_normal((5, 5))
    f = f + f.T
    c, eps = solve_roothaan(f, np.eye(5))
    w, v = np.linalg.eigh(f)
    np.testing.assert_allclose(eps, w, atol=1e-12)
    np.testing.assert_allclose(np.abs(c), np.abs(v), atol=1e-12)


def test_roothaan_s_orthonormality(water):
    c, _ = solve_roothaan(water.scf.fock, water.ints.S)
    np.testing.assert_allclose(c.T @ water.ints.S @ c, np.eye(7), atol=1e-10)


def test_orthogonalizer_canonical_fallback():
    from qembed.scf import orthogonalizer

    s = np.array([[1.0, 1.0 - 1e-9], [1.0 - 1e-9, 1.0]])
    x = orthogonalizer(s)
    assert x.shape == (2, 1)  # near-dependent pair collapses to one vector
    np.testing.assert_allclose(x.T @ s @ x, np.eye(1), atol=1e-10)


def test_h2_orbital_energies_signs(h2):
    assert h2.scf.eps[0] < 0.0 < h2.scf.eps[1]


def test_converged_fock_self_consistency(h2, water):
    for system in (h2, water):
        f, s, c, eps = system.scf.fock, system.ints.S, system.scf.C, system.scf.eps
        assert np.abs(f @ c - s @ c @ np.diag(eps)).max() < 1e-8


def test_converged_commutator(water, lih):
    for system in (water, lih):
        f, g, s = system.scf.fock, system.scf.gamma, system.ints.S
        assert np.linalg.norm(f @ g @ s - s @ g @ f) < 1e-7


def test_electronic_energy_zero_density(water):
    assert electronic_energy(np.zeros((7, 7)), water.ints.h_core, water.ints.h_core) == 0.0


def test_total_equals_elec_plus_nuc(water):
    e = electronic_energy(water.scf.gamma, water.ints.h_core, water.scf.fock)
    assert water.scf.E_total == pytest.approx(e + water.mol.e_nuc, abs=1e-12)


def test_energy_plateau(water):
    hist = water.scf.history
    assert len(hist) >= 3
    assert max(hist[-3:]) - min(hist[-3:]) < 1e-9


def test_override_with_core_matches_plain_path(h2):
    plain = h2.scf
    override = run_rhf(h2.mol, h2.ints, h_override=h2.ints.h_core)
    assert override.E_total == plain.E_total
    np.testing.assert_array_equal(override.C, plain.C)


def test_variational_bound_vs_fci(h2, he, water):
    for system in (h2, he, water):
        e_fci = fci_oracle(system.mol, system.ints, system.scf)
        assert system.scf.E_total >= e_fci - 1e-10


def test_nonconvergence_reported(water, monkeypatch):
    import qembed.scf

    monkeypatch.setattr(qembed.scf, "MAX_ITERATIONS", 2)
    with pytest.raises(ConvergenceError, match="did not converge"):
        run_rhf(water.mol, water.ints)


def test_odd_electron_count_is_an_input_error(water):
    with pytest.raises(InputError, match="^odd electron count 9 in restricted SCF$"):
        run_rhf(water.mol, water.ints, n_electrons_override=9)


def test_lih_converges_from_core_guess():
    mol = parse_xyz("2\n\nLi 0 0 0\nH 0 0 1.5949")
    from qembed.basis import build_basis
    from qembed.integrals import compute_integrals

    ints = compute_integrals(build_basis(mol), mol)
    result = run_rhf(mol, ints)
    assert result.E_total == pytest.approx(-7.8620269, abs=1e-6)
