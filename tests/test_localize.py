import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qembed.exceptions import PartitionError
from qembed.localize import (
    assign_by_population,
    lowdin_half,
    population_localize,
    spade_partition,
)
from qembed.scf import SCFResult


def test_spade_water_oh_active_four_one(water):
    part = spade_partition(water.scf, water.ints.S, water.basis, [0, 1])
    assert part.n_active == 4
    assert part.n_env == 1


def test_spade_rejects_all_atoms_active(water):
    with pytest.raises(PartitionError, match="environment would be empty"):
        spade_partition(water.scf, water.ints.S, water.basis, [0, 1, 2])


def test_spade_rejects_bad_index(water):
    with pytest.raises(PartitionError, match="out of range"):
        spade_partition(water.scf, water.ints.S, water.basis, [5])


def test_spade_rotation_is_unitary(water, lih, ch4):
    for system in (water, lih, ch4):
        part = spade_partition(system.scf, system.ints.S, system.basis, [0])
        c_occ = system.scf.C_occ
        # the rotated orbitals span the same S-orthonormal set
        ovl = part.C_lmo.T @ system.ints.S @ part.C_lmo
        np.testing.assert_allclose(ovl, np.eye(c_occ.shape[1]), atol=1e-10)


def test_density_closure(water, ch4):
    for system, active in ((water, [0, 1]), (ch4, [0])):
        part = spade_partition(system.scf, system.ints.S, system.basis, active)
        np.testing.assert_allclose(
            part.gamma_act + part.gamma_env, system.scf.gamma, atol=1e-10
        )


def test_localized_density_unchanged(water):
    part = spade_partition(water.scf, water.ints.S, water.basis, [0, 1])
    np.testing.assert_allclose(
        2.0 * part.C_lmo @ part.C_lmo.T, water.scf.gamma, atol=1e-10
    )


def test_electron_count_split(water):
    part = spade_partition(water.scf, water.ints.S, water.basis, [0, 1])
    s = water.ints.S
    n_act = np.einsum("pq,qp->", s, part.gamma_act)
    n_env = np.einsum("pq,qp->", s, part.gamma_env)
    assert n_act + n_env == pytest.approx(water.mol.n_electrons, abs=1e-8)
    assert n_act == pytest.approx(8.0, abs=1e-8)


def test_subsystem_densities_disjoint(water, ch4):
    for system, active in ((water, [0, 2]), (ch4, [0, 1])):
        part = spade_partition(system.scf, system.ints.S, system.basis, active)
        s = system.ints.S
        overlap = np.einsum("pq,qr,rs,sp->", s, part.gamma_act, s, part.gamma_env)
        assert abs(overlap) < 1e-8


def test_subsystem_idempotency(water):
    part = spade_partition(water.scf, water.ints.S, water.basis, [0, 1])
    for gamma in (part.gamma_act, part.gamma_env):
        half = gamma @ water.ints.S / 2.0
        np.testing.assert_allclose(half @ half, half, atol=1e-9)


def test_fix_signs_matches_column_loop():
    from qembed.localize import _fix_signs

    c = np.random.default_rng(5).standard_normal((9, 6))
    c[:, 2] = 0.0   # an all-zero column is left as it is
    ref = c.copy()
    for k in range(ref.shape[1]):
        if ref[np.argmax(np.abs(ref[:, k])), k] < 0:
            ref[:, k] = -ref[:, k]
    np.testing.assert_array_equal(_fix_signs(c), ref)


def test_spade_populations_are_active_weights_of_rotated_orbitals(water, lih, ch4):
    # the populations are the squared singular values; check them against the
    # active rows of the Lowdin-orthogonalized rotated orbitals
    for system, atoms in ((water, [0, 1]), (water, [0]), (lih, [0]), (ch4, [0])):
        part = spade_partition(system.scf, system.ints.S, system.basis, atoms)
        c_bar = lowdin_half(system.ints.S) @ part.C_lmo
        direct = np.sum(c_bar[list(part.active_aos), :] ** 2, axis=0)
        np.testing.assert_allclose(part.populations, direct, rtol=0, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_spade_invariant_under_occupied_remixing(seed):
    from conftest import get_system

    water = get_system("water")
    n_occ = water.scf.n_occ
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n_occ, n_occ)))
    c = water.scf.C.copy()
    c[:, :n_occ] = c[:, :n_occ] @ q
    remixed = SCFResult(
        C=c, eps=water.scf.eps, gamma=water.scf.gamma, fock=water.scf.fock,
        E_total=water.scf.E_total,
        n_occ=n_occ, n_iterations=1,
    )
    ref = spade_partition(water.scf, water.ints.S, water.basis, [0, 1])
    alt = spade_partition(remixed, water.ints.S, water.basis, [0, 1])
    assert alt.n_active == ref.n_active
    np.testing.assert_allclose(alt.gamma_act, ref.gamma_act, atol=1e-8)


def test_spade_ambiguity_reported():
    # two orbitals sitting identically on the active block: every singular
    # value equal, so no gap is defined
    c = np.zeros((4, 4))
    c[0, 0] = c[1, 1] = 1.0
    c[2, 2] = c[3, 3] = 1.0
    fake = SCFResult(
        C=c, eps=np.zeros(4), gamma=2 * c[:, :2] @ c[:, :2].T, fock=np.eye(4),
        E_total=0.0, n_occ=2, n_iterations=1,
    )

    class FakeBasis:
        def atom_of_function(self):
            return np.array([0, 1, 2, 3])

    with pytest.raises(PartitionError, match="ambiguous|equal"):
        spade_partition(fake, np.eye(4), FakeBasis(), [0, 1])


def test_pm_single_orbital_unchanged(h2):
    c_lmo = population_localize(h2.scf, h2.ints.S, h2.basis)
    ref = h2.scf.C_occ
    sign = np.sign(ref[np.argmax(np.abs(ref[:, 0])), 0])
    np.testing.assert_allclose(c_lmo[:, 0], sign * ref[:, 0], atol=1e-12)


def test_pm_preserves_orthonormality_and_density(water):
    c_lmo = population_localize(water.scf, water.ints.S, water.basis)
    np.testing.assert_allclose(
        c_lmo.T @ water.ints.S @ c_lmo, np.eye(5), atol=1e-8
    )
    np.testing.assert_allclose(2 * c_lmo @ c_lmo.T, water.scf.gamma, atol=1e-8)


@pytest.mark.parametrize("name", ["water", "ch4", "nh3", "methanol"])
def test_pm_result_is_stationary(name):
    # every pair's Jacobi angle, recomputed with a loop over atoms as the
    # reference, vanishes at the returned orbitals
    from conftest import get_system

    system = get_system(name)
    c_lmo = population_localize(system.scf, system.ints.S, system.basis)
    c_bar = lowdin_half(system.ints.S) @ c_lmo
    atom_of = system.basis.atom_of_function()
    n_occ = c_lmo.shape[1]
    for i in range(n_occ):
        for j in range(i + 1, n_occ):
            a_ij = b_ij = 0.0
            for atom in range(atom_of.max() + 1):
                rows = atom_of == atom
                q_ii = c_bar[rows, i] @ c_bar[rows, i]
                q_jj = c_bar[rows, j] @ c_bar[rows, j]
                q_ij = c_bar[rows, i] @ c_bar[rows, j]
                a_ij += q_ij * q_ij - 0.25 * (q_ii - q_jj) ** 2
                b_ij += q_ij * (q_ii - q_jj)
            if np.hypot(a_ij, b_ij) >= 1e-16:
                assert abs(0.25 * np.arctan2(b_ij, -a_ij)) < 1e-7, (i, j)


def test_pm_water_orbitals_concentrated(water):
    c_lmo = population_localize(water.scf, water.ints.S, water.basis)
    c_bar = lowdin_half(water.ints.S) @ c_lmo
    atom_of = water.basis.atom_of_function()
    for i in range(c_lmo.shape[1]):
        per_atom = [
            float(np.sum(c_bar[atom_of == a, i] ** 2)) for a in range(3)
        ]
        assert sum(sorted(per_atom)[-2:]) > 0.8


def test_assign_threshold_zero_all_active(water):
    c_lmo = population_localize(water.scf, water.ints.S, water.basis)
    part = assign_by_population(c_lmo, water.ints.S, water.basis, [0], threshold=0.0)
    assert part.n_active == 5
    assert part.n_env == 0


def test_assign_threshold_above_one_empty(water):
    c_lmo = population_localize(water.scf, water.ints.S, water.basis)
    with pytest.raises(PartitionError, match="threshold"):
        assign_by_population(c_lmo, water.ints.S, water.basis, [2], threshold=1.0001)


def test_assign_water_oh_bond(water):
    c_lmo = population_localize(water.scf, water.ints.S, water.basis)
    part = assign_by_population(c_lmo, water.ints.S, water.basis, [0, 1], threshold=0.95)
    assert part.n_active <= 4
    np.testing.assert_allclose(
        part.gamma_act + part.gamma_env, water.scf.gamma, atol=1e-10
    )


def test_assign_stretched_water():
    from conftest import get_stretched_water

    system = get_stretched_water(2.0)
    c_lmo = population_localize(system.scf, system.ints.S, system.basis)
    part = assign_by_population(
        c_lmo, system.ints.S, system.basis, [0, 2], threshold=0.95
    )
    assert part.n_active <= 4
    np.testing.assert_allclose(
        part.gamma_act + part.gamma_env, system.scf.gamma, atol=1e-10
    )
