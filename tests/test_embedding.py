import dataclasses
import itertools

import numpy as np
import pytest

from qembed.embedding import (
    drop_environment_orbitals,
    environment_populations,
    huzinaga_projector,
    mu_projector,
    run_embedded_scf,
    same_level_energy,
)
from qembed.exceptions import InputError, ProjectionError
from qembed.localize import spade_partition
from qembed.scf import density_matrix, two_electron_matrix
from qembed.solver import fci_oracle


@pytest.fixture(scope="module")
def water_partition(water):
    return spade_partition(water.scf, water.ints.S, water.basis, [0, 1])


@pytest.fixture(scope="module")
def spade_splits(h2, lih, water, ch4):
    """(system, partition, problem) for every SPADE split of H2, LiH, water and CH4."""
    splits = []
    for system in (h2, lih, water, ch4):
        n_atoms = system.mol.n_atoms
        for size in range(1, n_atoms):
            for atoms in itertools.combinations(range(n_atoms), size):
                part = spade_partition(system.scf, system.ints.S, system.basis, atoms)
                problem, _ = run_embedded_scf(part, system.ints, system.mol)
                splits.append((system, part, problem))
    return splits


def test_potential_vanishes_for_empty_environment(h2):
    # H2 has one occupied orbital, so either atom as active leaves no environment
    part = spade_partition(h2.scf, h2.ints.S, h2.basis, [1])
    problem, _ = run_embedded_scf(part, h2.ints, h2.mol)
    assert part.n_env == 0
    np.testing.assert_array_equal(problem.v_emb, 0.0)


def test_potential_difference_form_equals_direct(spade_splits):
    # the paper's g[gamma_act + gamma_env] - g[gamma_act]; for a mean-field
    # environment it is the two-electron matrix of gamma_env alone
    assert len(spade_splits) == 2 + 2 + 6 + 30   # every proper non-empty active set
    for system, part, problem in spade_splits:
        eri = system.ints.eri
        diff = (two_electron_matrix(part.gamma_act + part.gamma_env, eri)
                - two_electron_matrix(part.gamma_act, eri))
        np.testing.assert_allclose(problem.v_emb, diff, rtol=0, atol=1e-12)


def test_active_environment_interaction_repulsive(spade_splits):
    for _, part, problem in spade_splits:
        if part.n_env:
            assert np.einsum("pq,pq->", part.gamma_act, problem.v_emb) > 0.0


def test_potential_symmetric(spade_splits):
    for _, _, problem in spade_splits:
        np.testing.assert_allclose(problem.v_emb, problem.v_emb.T, rtol=0, atol=1e-12)


def test_mu_projector_positive_semidefinite(water, water_partition):
    p = mu_projector(water_partition.gamma_env, water.ints.S, mu=1e6)
    np.testing.assert_allclose(p, p.T, atol=1e-9)
    assert np.linalg.eigvalsh(p).min() > -1e-6  # PSD up to roundoff at mu=1e6


def test_mu_projector_zero_env(water):
    np.testing.assert_allclose(
        mu_projector(np.zeros((7, 7)), water.ints.S), 0.0, atol=1e-14
    )


def test_mu_projector_linear_in_mu(water, water_partition):
    p1 = mu_projector(water_partition.gamma_env, water.ints.S, mu=1.0e4)
    p2 = mu_projector(water_partition.gamma_env, water.ints.S, mu=2.0e4)
    np.testing.assert_allclose(p2, 2.0 * p1, atol=1e-10)


def test_mu_projector_shifts_environment_levels(water):
    # environment built from canonical occupied orbitals, which are
    # eigenvectors of the converged Fock matrix: the shifted operator must
    # move exactly those levels by 2*mu (factor-2 density convention)
    s, fock = water.ints.S, water.scf.fock
    mu = 1.0e6
    for idx in (0, 2):
        psi = water.scf.C[:, [idx]]
        gamma_env = density_matrix(psi)
        shifted = fock + mu_projector(gamma_env, s, mu)
        val = (psi.T @ shifted @ psi).item()
        assert val == pytest.approx(water.scf.eps[idx] + 2.0 * mu, abs=1e-6)
        assert val > 1e5  # dominates the bare orbital energy
    # orbitals outside the environment are untouched
    psi_other = water.scf.C[:, [4]]
    gamma_env = density_matrix(water.scf.C[:, [0]])
    shifted = fock + mu_projector(gamma_env, s, mu)
    assert (psi_other.T @ shifted @ psi_other).item() == pytest.approx(
        water.scf.eps[4], abs=1e-8
    )


def test_huzinaga_zero_env(water):
    np.testing.assert_allclose(
        huzinaga_projector(water.scf.fock, np.zeros((7, 7)), water.ints.S),
        0.0, atol=1e-14,
    )


def test_huzinaga_symmetric(water, water_partition):
    p = huzinaga_projector(water.scf.fock, water_partition.gamma_env, water.ints.S)
    np.testing.assert_allclose(p, p.T, atol=1e-12)


def test_huzinaga_flips_environment_levels(water):
    # on a pure-environment eigenvector of F the projected operator gives
    # (F + P) psi = -eps * S psi
    s, fock = water.ints.S, water.scf.fock
    for idx in (0, 3):
        psi = water.scf.C[:, [idx]]
        gamma_env = density_matrix(psi)
        p = huzinaga_projector(fock, gamma_env, s)
        lhs = (fock + p) @ psi
        rhs = -water.scf.eps[idx] * (s @ psi)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_embedded_scf_trivial_environment_reproduces_full(h2):
    part = spade_partition(h2.scf, h2.ints.S, h2.basis, [0])
    assert part.n_env == 0
    problem, emb = run_embedded_scf(part, h2.ints, h2.mol)
    assert emb.E_total == pytest.approx(h2.scf.E_total, abs=1e-10)
    assert problem.classical_energy == pytest.approx(h2.mol.e_nuc, abs=1e-12)


def test_embedded_spectrum_huzinaga(water, water_partition):
    problem, emb = run_embedded_scf(water_partition, water.ints, water.mol,
                                    projector_kind="huzinaga")
    n_occ_emb = problem.n_act_electrons // 2
    assert np.all(emb.eps[:n_occ_emb] < 0.0)
    # the environment-derived level sits at positive energy
    pops = environment_populations(emb.C, water_partition.gamma_env, water.ints.S)
    env_levels = emb.eps[pops > 0.5]
    assert len(env_levels) == water_partition.n_env
    assert np.all(env_levels > 0.0)


def test_embedded_spectrum_mu(water, water_partition):
    mu = 1.0e6
    problem, emb = run_embedded_scf(water_partition, water.ints, water.mol,
                                    projector_kind="mu", mu=mu)
    big = emb.eps[emb.eps > 1e5]
    assert len(big) == water_partition.n_env
    assert np.all(np.abs(big - 2.0 * mu) / (2.0 * mu) < 0.01)


def test_huzinaga_commutation_surrogate(water, water_partition):
    # at convergence the environment subspace projector commutes with the
    # embedded density: the converged occupied orbitals carry no environment
    # component (the operator form of the anticommutator projector itself
    # only commutes when the environment orbitals are Fock eigenvectors,
    # which the eigen-flip test above covers)
    problem, emb = run_embedded_scf(water_partition, water.ints, water.mol)
    s = water.ints.S
    env_proj = s @ water_partition.gamma_env @ s
    comm = env_proj @ emb.gamma @ s - s @ emb.gamma @ env_proj
    assert np.linalg.norm(comm) < 1e-6
    assert np.linalg.norm(water_partition.gamma_env @ s @ emb.gamma) < 1e-6


def test_same_level_exactness_huzinaga(water, lih, ch4):
    for system, active in ((water, [0, 1]), (lih, [0]), (ch4, [0])):
        part = spade_partition(system.scf, system.ints.S, system.basis, active)
        problem, emb = run_embedded_scf(part, system.ints, system.mol)
        e = same_level_energy(problem, emb.gamma, system.ints)
        assert e == pytest.approx(system.scf.E_total, abs=1e-8)


def test_same_level_exactness_population_partition(water, ch4):
    # the exactness property is partition-agnostic: it must hold for the
    # population-threshold route just as for the SVD route
    from qembed.localize import assign_by_population, population_localize

    for system, active in ((water, [0, 1]), (ch4, [0])):
        c_lmo = population_localize(system.scf, system.ints.S, system.basis)
        part = assign_by_population(
            c_lmo, system.ints.S, system.basis, active, threshold=0.95
        )
        problem, emb = run_embedded_scf(part, system.ints, system.mol)
        e = same_level_energy(problem, emb.gamma, system.ints)
        assert e == pytest.approx(system.scf.E_total, abs=1e-8)


def test_same_level_mu_accuracy_and_monotonicity(water, water_partition):
    errors = []
    for mu in (1e2, 1e4, 1e6):
        problem, emb = run_embedded_scf(water_partition, water.ints, water.mol,
                                        projector_kind="mu", mu=mu)
        e = same_level_energy(problem, emb.gamma, water.ints)
        errors.append(abs(e - water.scf.E_total))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-5


def test_first_order_correction_diagnostic(water, water_partition):
    # at finite level shift the relaxed density differs from the frozen one;
    # the first-order term then carries a visible share of the energy and
    # dropping it degrades the agreement with the full SCF
    problem, emb = run_embedded_scf(water_partition, water.ints, water.mol,
                                    projector_kind="mu", mu=1e2)
    e_with = same_level_energy(problem, emb.gamma, water.ints)
    correction = float(np.einsum("pq,pq->", emb.gamma - problem.gamma_act,
                                 problem.v_emb + problem.projector))
    e_without = e_with - correction
    assert abs(correction) > 1e-4
    ref = water.scf.E_total
    assert abs(e_with - ref) < abs(e_without - ref)


def test_first_order_correction_vanishes_at_reference(water, water_partition):
    problem, _ = run_embedded_scf(water_partition, water.ints, water.mol)
    e_ref = same_level_energy(problem, problem.gamma_act, water.ints)
    # with gamma_emb == gamma_act the correction term is exactly zero, so the
    # energy is the plain subsystem decomposition
    h, eri = water.ints.h_core, water.ints.eri
    g_act = two_electron_matrix(problem.gamma_act, eri)
    e_decomp = (
        float(np.einsum("pq,pq->", problem.gamma_act, h))
        + 0.5 * float(np.einsum("pq,pq->", problem.gamma_act, g_act))
        + problem.E_env + problem.g_cross + problem.E_nuc
    )
    assert e_ref == pytest.approx(e_decomp, abs=1e-10)


def test_classical_constant_trivial_environment(h2):
    part = spade_partition(h2.scf, h2.ints.S, h2.basis, [1])
    problem, _ = run_embedded_scf(part, h2.ints, h2.mol)
    assert problem.classical_energy == pytest.approx(h2.mol.e_nuc, abs=1e-12)


def test_wf_route_whole_molecule_equals_fci(h2):
    from qembed.qubits import jordan_wigner, mo_transform, second_quantize
    from qembed.solver import ground_state

    part = spade_partition(h2.scf, h2.ints.S, h2.basis, [0])
    problem, emb = run_embedded_scf(part, h2.ints, h2.mol)
    c_red = drop_environment_orbitals(emb, part, h2.ints.S)
    mo = mo_transform(problem.h_emb, h2.ints.eri, c_red,
                      constant=problem.classical_energy)
    ham = jordan_wigner(second_quantize(mo), 2 * mo.n_orbitals)
    gs = ground_state(ham, n_electrons=problem.n_act_electrons, s_z=0)
    assert gs == pytest.approx(fci_oracle(h2.mol, h2.ints, h2.scf), abs=1e-10)


def test_embedding_beats_mean_field_at_equilibrium(water, water_partition):
    from qembed.qubits import jordan_wigner, mo_transform, second_quantize
    from qembed.solver import ground_state

    problem, emb = run_embedded_scf(water_partition, water.ints, water.mol)
    c_red = drop_environment_orbitals(emb, water_partition, water.ints.S)
    mo = mo_transform(problem.h_emb, water.ints.eri, c_red,
                      constant=problem.classical_energy)
    ham = jordan_wigner(second_quantize(mo), 2 * mo.n_orbitals)
    gs = ground_state(ham, n_electrons=problem.n_act_electrons, s_z=0)
    e_fci = fci_oracle(water.mol, water.ints, water.scf)
    assert abs(gs - e_fci) < abs(water.scf.E_total - e_fci)


def test_drop_environment_counts(water, water_partition):
    problem, emb = run_embedded_scf(water_partition, water.ints, water.mol)
    c_red = drop_environment_orbitals(emb, water_partition, water.ints.S)
    assert c_red.shape == (7, 6)  # one environment orbital removed


def test_drop_environment_keeps_the_rest_in_energy_order(water, ch4):
    for system, active in ((water, [0, 1]), (ch4, [0])):
        part = spade_partition(system.scf, system.ints.S, system.basis, active)
        _, emb = run_embedded_scf(part, system.ints, system.mol)
        pops = environment_populations(emb.C, part.gamma_env, system.ints.S)
        c_red = drop_environment_orbitals(emb, part, system.ints.S)
        expected = np.delete(emb.C, np.argsort(pops)[-part.n_env:], axis=1)
        np.testing.assert_array_equal(c_red, expected)


def test_unknown_projector_is_an_input_error(water, water_partition):
    with pytest.raises(InputError, match="unknown projector kind 'bogus'"):
        run_embedded_scf(water_partition, water.ints, water.mol, projector_kind="bogus")


def test_drop_environment_noop_without_env(h2):
    part = spade_partition(h2.scf, h2.ints.S, h2.basis, [0])
    problem, emb = run_embedded_scf(part, h2.ints, h2.mol)
    c_red = drop_environment_orbitals(emb, part, h2.ints.S)
    assert c_red.shape == (2, 2)


def test_drop_of_more_orbitals_than_the_environment_holds_is_ambiguous(water, water_partition):
    # water's one environment orbital plus one more: the second has population below 0.5
    _, emb = run_embedded_scf(water_partition, water.ints, water.mol)
    too_many = dataclasses.replace(water_partition, n_env=water_partition.n_env + 1)
    with pytest.raises(ProjectionError, match="^ambiguous environment orbital removal: "):
        drop_environment_orbitals(emb, too_many, water.ints.S)


def test_removed_orbitals_are_pure_environment(water, lih, ch4):
    for system, active in ((water, [0, 2]), (lih, [1]), (ch4, [0, 1])):
        part = spade_partition(system.scf, system.ints.S, system.basis, active)
        if part.n_env == 0:
            continue
        for kind in ("huzinaga", "mu"):
            problem, emb = run_embedded_scf(part, system.ints, system.mol,
                                            projector_kind=kind)
            pops = environment_populations(emb.C, part.gamma_env, system.ints.S)
            removed = np.sort(pops)[-part.n_env:]
            assert removed.min() > 0.9


def test_projection_safety_and_electron_bookkeeping(water, ch4):
    for system, active in ((water, [0, 1]), (ch4, [0])):
        part = spade_partition(system.scf, system.ints.S, system.basis, active)
        problem, emb = run_embedded_scf(part, system.ints, system.mol)
        pops = environment_populations(emb.C_occ, part.gamma_env, system.ints.S)
        assert pops.max() < 1e-3
        n = np.einsum("pq,qp->", system.ints.S, emb.gamma)
        assert n == pytest.approx(problem.n_act_electrons, abs=1e-6)
