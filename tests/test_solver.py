import logging
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import get_system, sector_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

import qembed.solver
from qembed.basis import build_basis
from qembed.embedding import drop_environment_orbitals, run_embedded_scf
from qembed.exceptions import ConvergenceError, InputError
from qembed.integrals import compute_integrals
from qembed.localize import assign_by_population, population_localize, spade_partition
from qembed.molecule import parse_xyz
from qembed.qubits import (
    QubitHamiltonian,
    dense_matrix,
    jordan_wigner,
    mo_transform,
    second_quantize,
)
from qembed.scf import run_rhf
from qembed.solver import (
    _assemble_sector_matrix,
    _ci_blocks,
    _fci_bytes,
    _replacement_matrices,
    _sector_basis,
    _z2_blocks,
    _z2_generators,
    fci_energy,
    fci_fits,
    fci_oracle,
    ground_state,
)


def grid_states(alphas, betas):
    """The occupation bitstrings of the sector, in the solver's alpha-major order."""
    return (alphas[:, None] | betas).ravel()


@pytest.fixture
def force_route(monkeypatch):
    """force_route("dense") or force_route("sparse") sends every later solve down that route."""
    def force(route):
        monkeypatch.setattr(qembed.solver, "DENSE_CUTOFF", {"dense": 1 << 62, "sparse": 0}[route])
    return force


def full_jw(system, constant=None):
    const = system.mol.e_nuc if constant is None else constant
    mo = mo_transform(system.ints.h_core, system.ints.eri, system.scf.C, constant=const)
    return jordan_wigner(second_quantize(mo), 2 * mo.n_orbitals)


def embedded_problem(system, active, localizer="spade", projector="huzinaga"):
    """Embedded problem and its kept orbitals, as `qembed embed` builds them."""
    if localizer == "spade":
        part = spade_partition(system.scf, system.ints.S, system.basis, active)
    else:
        c_lmo = population_localize(system.scf, system.ints.S, system.basis)
        part = assign_by_population(c_lmo, system.ints.S, system.basis, active)
    problem, emb = run_embedded_scf(part, system.ints, system.mol, projector_kind=projector)
    return problem, drop_environment_orbitals(emb, part, system.ints.S)


def embedded_jw(system, active, localizer="spade", projector="huzinaga"):
    """Embedded Hamiltonian and active electron count."""
    problem, c_red = embedded_problem(system, active, localizer, projector)
    mo = mo_transform(problem.h_emb, system.ints.eri, c_red, constant=problem.classical_energy)
    return jordan_wigner(second_quantize(mo), 2 * mo.n_orbitals), problem.n_act_electrons


def test_single_z_ground_state():
    # Z is -1 on an occupied qubit: the one-electron state lies at +1, the empty one at -1
    ham = QubitHamiltonian.from_terms(1, [("Z", -1.0)])
    gs = ground_state(ham, n_electrons=1, s_z=0.5)
    assert gs == pytest.approx(1.0, abs=1e-12)
    assert ground_state(ham, n_electrons=0, s_z=0) == pytest.approx(-1.0, abs=1e-12)


def test_h2_ground_state_matches_dense_oracle(h2):
    ham = full_jw(h2)
    # brute-force oracle: dense 16x16 diagonalization over the whole space
    from qembed.qubits import dense_matrix

    dense = np.linalg.eigvalsh(dense_matrix(ham).real)[0]
    gs = ground_state(ham, n_electrons=2, s_z=0)
    assert gs == pytest.approx(dense, abs=1e-10)
    assert gs == pytest.approx(-1.1372701750, abs=1e-9)


def test_sector_restriction_consistent_with_full_space(h2):
    # the (N, S_z) sectors of 2 alpha and 2 beta orbitals tile the 16 states
    ham = full_jw(h2)
    energies = [ground_state(ham, n_electrons=n_a + n_b, s_z=(n_a - n_b) / 2)
                for n_a in range(3) for n_b in range(3)]
    assert min(energies) == pytest.approx(np.linalg.eigvalsh(dense_matrix(ham).real)[0],
                                          abs=1e-10)


def test_oracle_equivalence_h2(h2):
    ham = full_jw(h2)
    gs = ground_state(ham, n_electrons=2, s_z=0)
    assert gs == pytest.approx(fci_oracle(h2.mol, h2.ints, h2.scf), abs=1e-10)


def test_oracle_equivalence_hehplus(heh_plus):
    ham = full_jw(heh_plus)
    gs = ground_state(ham, n_electrons=2, s_z=0)
    assert gs == pytest.approx(
        fci_oracle(heh_plus.mol, heh_plus.ints, heh_plus.scf), abs=1e-10
    )


def test_oracle_equivalence_lih(lih):
    ham = full_jw(lih)
    gs = ground_state(ham, n_electrons=4, s_z=0)
    assert gs == pytest.approx(
        fci_oracle(lih.mol, lih.ints, lih.scf), abs=1e-8
    )


def test_oracle_equivalence_water(water):
    ham = full_jw(water)
    gs = ground_state(ham, n_electrons=10, s_z=0)
    e_fci = fci_oracle(water.mol, water.ints, water.scf)
    assert gs == pytest.approx(e_fci, abs=1e-8)


def test_water_fci_regression(water):
    # frozen from this implementation (dense diagonalization, sector (10, 0))
    e_fci = fci_oracle(water.mol, water.ints, water.scf)
    assert e_fci == pytest.approx(-75.0125784863, abs=1e-8)


def test_oracle_equivalence_nh3_within_its_byte_count(nh3):
    # K = 8: 10 electrons in 16 spin orbitals, 56 strings of each spin, so at
    # S_z = 0 the blocks H+ and H- have 1,596 and 1,540 rows
    assert nh3.ints.n_functions == 8
    gs = ground_state(full_jw(nh3), n_electrons=10, s_z=0)
    tracemalloc.start()
    try:
        e_fci = fci_oracle(nh3.mol, nh3.ints, nh3.scf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gs == pytest.approx(e_fci, abs=1e-8)
    # both blocks, the room of one more H+ and slack: the blocks are built one alpha
    # string at a time and never hold the whole (I, J, I', J') tensor, which would
    # not fit; 55.7 MiB measured, within the oracle's own count of its arrays
    assert peak <= 1.25 * (2 * 1596**2 + 1540**2) * 8
    assert peak <= _fci_bytes(8, 5, 5)


@pytest.mark.parametrize("name", ["lih", "water"])
def test_triplet_oracle_matches_qubit_sector(name, request):
    system = request.getfixturevalue(name)
    n_e = system.mol.n_electrons
    gs = ground_state(full_jw(system), n_electrons=n_e, s_z=1)
    assert gs == pytest.approx(
        fci_oracle(system.mol, system.ints, system.scf, s_z=1), abs=1e-8
    )


def mo_integrals(system):
    """h and (kl|mn) in the canonical SCF orbitals, by one einsum."""
    c = system.scf.C
    return c.T @ system.ints.h_core @ c, np.einsum(
        "pqrs,pi,qj,rk,sl->ijkl", system.ints.eri, c, c, c, c, optimize=True)


@pytest.mark.parametrize("name", ["water", "methanol"])
def test_mo_transform_matches_the_one_einsum(name, request):
    system = request.getfixturevalue(name)
    h, g = mo_integrals(system)
    mo = mo_transform(system.ints.h_core, system.ints.eri, system.scf.C)
    for actual, reference in ((mo.h, h), (mo.g, g)):
        assert np.abs(actual - reference).max() <= 1e-12 * np.abs(reference).max()


@pytest.mark.parametrize("name", ["lih", "water"])
def test_ci_blocks_split_the_kron_matrix(name, request):
    # the whole CI matrix A x 1 + 1 x A + sum_kl G_kl x E_kl over the alpha x beta
    # string grid, with G_kl = sum_mn (kl|mn) E_mn; its spectrum is that of H+ and H-
    system = request.getfixturevalue(name)
    h, g = mo_integrals(system)
    k, n_half = len(h), system.mol.n_electrons // 2
    e = _replacement_matrices(k, n_half)
    g_e = np.tensordot(g.reshape(k * k, k * k), e, 1)
    h_eff = h - 0.5 * np.einsum("kmml->kl", g)
    a = np.tensordot(h_eff.ravel(), e, 1) + 0.5 * sum(ex @ gx for ex, gx in zip(e, g_e))
    one = np.eye(len(a))
    whole = np.kron(a, one) + np.kron(one, a) + sum(np.kron(gx, ex) for ex, gx in zip(e, g_e))
    plus, minus = _ci_blocks(h, g, n_half, n_half)
    n = len(one)
    assert (len(plus), len(minus)) == (n * (n + 1) // 2, n * (n - 1) // 2)
    both = np.sort(np.r_[np.linalg.eigvalsh(plus), np.linalg.eigvalsh(minus)])
    assert np.abs(both - np.linalg.eigvalsh(whole)).max() <= 1e-10


def test_replacement_matrices_match_a_loop_over_bitstrings():
    # reference: the n-electron bitstrings of k orbitals in ascending order, and
    # a+_p a_l applied to each one at a time, its sign from the electrons it passes
    for k in range(1, 7):
        for n in range(k + 1):
            strings = [s for s in range(1 << k) if bin(s).count("1") == n]
            expected = np.zeros((k, k, len(strings), len(strings)))
            for j, s in enumerate(strings):
                for l in (l for l in range(k) if s >> l & 1):
                    emptied = s ^ 1 << l
                    for p in (p for p in range(k) if not emptied >> p & 1):
                        passed = (bin(s & (1 << l) - 1).count("1")
                                  + bin(emptied & (1 << p) - 1).count("1"))
                        expected[p, l, strings.index(emptied | 1 << p), j] = (-1) ** passed
            assert np.array_equal(_replacement_matrices(k, n),
                                  expected.reshape(k * k, len(strings), -1))


def test_fci_energy_with_as_many_alpha_as_beta_strings(lih):
    # 4 alpha and 2 beta electrons in LiH's 6 orbitals: C(6, 4) = C(6, 2) = 15
    # strings each, but swapping them is no symmetry, so the whole matrix is solved
    e_fci = fci_energy(lih.ints.h_core, lih.ints.eri, lih.scf.C, 4, 2)
    gs = ground_state(full_jw(lih), n_electrons=6, s_z=1)
    assert e_fci + lih.mol.e_nuc == pytest.approx(gs, abs=1e-10)


@pytest.mark.parametrize("name", ["ch2", "nh"])
def test_triplet_ground_state_in_antisymmetric_block(name, request):
    # the lowest state is a triplet: at S_z = 0 it lies in H- alone, below
    # every eigenvalue of H+, so the Cholesky test must fail and send the
    # oracle to H-
    system = request.getfixturevalue(name)
    e_triplet = fci_oracle(system.mol, system.ints, system.scf, s_z=1)
    assert fci_oracle(system.mol, system.ints, system.scf, s_z=0) == pytest.approx(
        e_triplet, abs=1e-10)
    h, g = mo_integrals(system)
    n_half = system.mol.n_electrons // 2
    e_plus = np.linalg.eigvalsh(_ci_blocks(h, g, n_half, n_half)[0])[0]
    assert e_plus + system.mol.e_nuc > e_triplet + 1e-3


@pytest.mark.parametrize("name, active, projector", [
    ("water", (0, 1), "huzinaga"),
    ("water", (0, 1), "mu"),
    ("ch4", (0, 1), "huzinaga"),
])
def test_fci_energy_matches_embedded_qubit_route(name, active, projector, request):
    # the embedded Hamiltonian, projector and constant included, solved by two
    # routes that share no code
    system = request.getfixturevalue(name)
    problem, c_red = embedded_problem(system, active, projector=projector)
    n_e = problem.n_act_electrons
    ham, _ = embedded_jw(system, active, projector=projector)
    e_qubit = ground_state(ham, n_electrons=n_e, s_z=0)
    e_fci = fci_energy(problem.h_emb, system.ints.eri, c_red, n_e // 2, n_e - n_e // 2)
    assert e_fci + problem.classical_energy == pytest.approx(e_qubit, abs=1e-9)


def test_oracle_rejects_impossible_s_z(water):
    with pytest.raises(InputError, match="impossible"):
        fci_oracle(water.mol, water.ints, water.scf, s_z=0.5)
    with pytest.raises(InputError, match="empty determinant space"):
        fci_oracle(water.mol, water.ints, water.scf, s_z=5)


def test_variational_ordering(he, h2, lih):
    # FCI never above RHF; for He the minimal basis has a single spatial
    # orbital, so the two coincide exactly
    for system in (he, h2, lih):
        e_fci = fci_oracle(system.mol, system.ints, system.scf)
        assert e_fci <= system.scf.E_total + 1e-12
    assert fci_oracle(he.mol, he.ints, he.scf) == pytest.approx(
        he.scf.E_total, abs=1e-12
    )


def test_dense_and_sparse_paths_agree(water, force_route):
    ham = full_jw(water)
    force_route("dense")
    dense = ground_state(ham, n_electrons=10, s_z=0)
    force_route("sparse")
    sparse = ground_state(ham, n_electrons=10, s_z=0)
    assert dense == pytest.approx(sparse, abs=1e-9)


def test_lanczos_deterministic(water, force_route):
    # the Davidson route, from its seeded start
    ham = full_jw(water)
    force_route("sparse")
    runs = [ground_state(ham, n_electrons=10, s_z=0) for _ in range(2)]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name", ["ch2", "nh"])
def test_triplet_ground_state_found_at_s_z_0(name, request, force_route):
    # the lowest state is a triplet, so the sparse S_z = 0 solve must leave
    # the spin-flip-symmetric part of the sector to reach it
    system = request.getfixturevalue(name)
    ham, n_e = full_jw(system), system.mol.n_electrons
    force_route("sparse")
    sparse = ground_state(ham, n_electrons=n_e, s_z=0)
    assert sparse == pytest.approx(ground_state(ham, n_electrons=n_e, s_z=1), abs=1e-9)
    force_route("dense")
    assert sparse == pytest.approx(ground_state(ham, n_electrons=n_e, s_z=0), abs=1e-9)


def test_eigensolver_iteration_cap_raises(water, monkeypatch, force_route):
    ham = full_jw(water)
    monkeypatch.setattr(qembed.solver, "EIG_MAXITER", 1)
    force_route("sparse")
    with pytest.raises(ConvergenceError, match="did not converge"):
        ground_state(ham, n_electrons=10, s_z=0)


def test_restarted_davidson_matches_dense_route(water, ch2, nh, monkeypatch, force_route):
    # a basis of 3 vectors restarts from the Ritz vector after every second correction
    monkeypatch.setattr(qembed.solver, "EIG_SUBSPACE", 3)
    ham, n_e = embedded_jw(water, (0, 1))
    dense = ground_state(ham, n_electrons=n_e, s_z=0)
    force_route("sparse")
    assert ground_state(ham, n_electrons=n_e, s_z=0) == pytest.approx(dense, abs=1e-10)
    for system in (ch2, nh):  # the S_z = 0 triplets, as in test_triplet_ground_state_found_at_s_z_0
        ham, n_e = full_jw(system), system.mol.n_electrons
        force_route("sparse")
        sparse = ground_state(ham, n_electrons=n_e, s_z=0)
        assert sparse == pytest.approx(ground_state(ham, n_electrons=n_e, s_z=1), abs=1e-9)
        force_route("dense")
        assert sparse == pytest.approx(ground_state(ham, n_electrons=n_e, s_z=0), abs=1e-9)


def test_davidson_on_a_sector_smaller_than_its_basis(h2, force_route):
    # H2's 4 states: the basis spans the whole sector before it is full
    ham = full_jw(h2)
    force_route("dense")
    dense = ground_state(ham, n_electrons=2, s_z=0)
    force_route("sparse")
    sparse = ground_state(ham, n_electrons=2, s_z=0)
    assert not np.isnan(sparse)
    assert sparse == pytest.approx(dense, abs=1e-12)


def test_davidson_refuses_an_invariant_subspace_above_the_bound(h2, monkeypatch, force_route):
    # no residual meets a zero tolerance, so the correction after the fourth
    # product lies in the basis that already spans the 4-state sector
    monkeypatch.setattr(qembed.solver, "EIG_TOL", 0.0)
    force_route("sparse")
    with pytest.raises(ConvergenceError, match="invariant subspace"):
        ground_state(full_jw(h2), n_electrons=2, s_z=0)


def test_davidson_logs_each_product(water, caplog, force_route):
    ham, n_e = embedded_jw(water, (0, 1))
    force_route("sparse")
    with caplog.at_level(logging.DEBUG, logger="qembed.solver"):
        energy = ground_state(ham, n_electrons=n_e, s_z=0)
    lines = [r.getMessage() for r in caplog.records if "davidson" in r.getMessage()]
    assert [int(line.split()[2]) for line in lines] == list(range(1, len(lines) + 1))
    assert f"E={energy:+.12f}" in lines[-1]
    assert float(lines[-1].rsplit("|r|=", 1)[1]) <= 1e-9 * abs(energy)


@pytest.mark.slow
def test_methanol_20_qubit_sector(methanol):
    # O and the hydroxyl H active: 20 qubits, sector dimension 63,504
    ham, n_e = embedded_jw(methanol, (1, 5))
    assert ham.n_qubits == 20
    tracemalloc.start()
    try:
        energy = ground_state(ham, n_electrons=n_e, s_z=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # frozen from an earlier ARPACK solve of this sector; the Davidson route must reproduce it
    assert energy == pytest.approx(-113.5991678215, abs=1e-9)
    # 1.5 times the 264 MB measured, 237 MB of which is the upper triangle's COO arrays
    assert peak <= 400 * 2**20


def test_sector_basis_memory():
    # enumerating all 2^24 bitstrings with popcount temporaries peaked at 320 MB;
    # growing only the 924 strings of each half peaks at 27 kB
    tracemalloc.start()
    try:
        alphas, betas = _sector_basis(24, 12, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(alphas) == len(betas) == 924  # C(12, 6) strings of each spin
    assert np.all(np.diff(alphas) > 0) and np.all(np.diff(betas) > 0)
    assert np.all(alphas & 0xAAAAAA == 0) and np.all(betas & 0x555555 == 0)
    assert np.all(np.bitwise_count(alphas) == 6) and np.all(np.bitwise_count(betas) == 6)
    assert peak <= 2**20


def test_hamiltonian_without_terms(force_route):
    # 9 states, on the Davidson route
    ham = QubitHamiltonian.from_terms(6, [])
    assert all(len(part) == 0 for part in _assemble_sector_matrix(ham, *_sector_basis(6, 2, 0)))
    force_route("sparse")
    assert ground_state(ham, n_electrons=2, s_z=0) == 0.0


def test_empty_sector_rejected(h2):
    # configuration errors, each before any binomial of a negative count
    ham = QubitHamiltonian.from_terms(4, [("ZIII", 1.0)])
    for n_electrons, s_z in [
        (-2, 0.0),  # fewer electrons than none
        (6, 0.0),  # more electrons than the 4 spin orbitals
        (3, 0.0),  # odd N + 2 S_z
        (1, 1.5),  # |2 S_z| > N: 2 alpha and -1 beta electrons
    ]:
        with pytest.raises(InputError, match="empty sector"):
            ground_state(ham, n_electrons=n_electrons, s_z=s_z)
        # the oracle over H2's 2 orbitals: fci_oracle reads only the electron count
        # before it refuses, and passes the alpha and beta counts of an even N + 2 S_z
        # to fci_energy
        with pytest.raises(InputError, match="empty determinant space|impossible"):
            fci_oracle(SimpleNamespace(n_electrons=n_electrons), h2.ints, h2.scf, s_z=s_z)


def test_non_half_integer_s_z_rejected(water):
    # 2 s_z used to be rounded, so s_z = 0.2 silently gave the S_z = 0 result
    ham = QubitHamiltonian.from_terms(4, [("ZIII", 1.0)])
    with pytest.raises(InputError, match="multiple of 1/2"):
        ground_state(ham, n_electrons=2, s_z=0.2)
    with pytest.raises(InputError, match="multiple of 1/2"):
        fci_oracle(water.mol, water.ints, water.scf, s_z=0.2)


def word(n_qubits, letters):
    """The Pauli word with letters[q] on qubit q and I elsewhere."""
    return "".join(letters.get(q, "I") for q in range(n_qubits))


def test_64_qubit_sector_reaches_bit_63():
    # 1 alpha and 1 beta electron in 64 qubits: 32 x 32 = 1,024 states, built from
    # the 32 strings of each half rather than from all 2^32 of them (32 GiB)
    tracemalloc.start()
    try:
        alphas, betas = _sector_basis(64, 2, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
    assert alphas.dtype == betas.dtype == np.uint64
    assert betas[-1] == np.uint64(1 << 63) and np.all(np.diff(betas) > 0)
    # Z on qubits 0 and 63, and hops of the alpha electron between qubits 0 and 62
    # and of the beta electron between qubits 61 and 63 (XX + YY moves one electron
    # with amplitude 2c, and no Z string couples the two spins)
    terms = [(word(64, {0: "Z"}), -0.2), (word(64, {63: "Z"}), 0.3)]
    terms += [(word(64, {p: pauli, q: pauli}), c) for p, q, c in ((0, 62, 0.15), (61, 63, 0.25))
              for pauli in "XY"]
    ham = QubitHamiltonian.from_terms(64, terms)
    energy = ground_state(ham, n_electrons=2, s_z=0)
    assert energy == pytest.approx(np.linalg.eigvalsh(sector_matrix(ham, alphas, betas))[0],
                                   abs=1e-12)
    # Z_q = 1 - 2 n_q, so E = 0.1 plus the lowest one-electron energy of each spin
    alpha = np.linalg.eigvalsh([[0.4, 0.3], [0.3, 0.0]])[0]
    beta = np.linalg.eigvalsh([[0.0, 0.5], [0.5, -0.6]])[0]
    assert energy == pytest.approx(0.1 + alpha + beta, abs=1e-12)


def test_butane_carbon_sector_refused_up_front():
    # one carbon of n-butane active: 36 qubits and 10 electrons, 73,410,624 states;
    # refused from its binomial count, before any string, rank table or entry
    ham, n_e = embedded_jw(get_system("butane"), (0,))
    assert (ham.n_qubits, n_e) == (36, 10)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(InputError, match="dimension 73410624 .* MB limit"):
            ground_state(ham, n_electrons=n_e, s_z=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak <= 2**20


def test_rank_tables_counted_before_they_are_built(ch4, monkeypatch):
    # a limit that admits the 4,900 states but not their partner-rank tables is
    # met before _partner_ranks runs
    ham, n_e = embedded_jw(ch4, (0, 1, 2, 3), "population")
    alphas, betas = _sector_basis(ham.n_qubits, n_e, 0)
    monkeypatch.setattr(qembed.solver, "MAX_SECTOR_BYTES", 320 * len(alphas) * len(betas))
    monkeypatch.setattr(qembed.solver, "_partner_ranks", None)
    with pytest.raises(InputError, match="MB limit"):
        ground_state(ham, n_electrons=n_e, s_z=0)


def test_fci_oracle_beyond_eight_orbitals():
    # water and two far He atoms: K = 9, 7 + 7 electrons, so H+ and H- have 666
    # and 630 rows; the qubit route solves the 18-qubit full map (1,296 states)
    mol = parse_xyz(
        "5\n\nO 0 0 0.1173\nH 0 0.7572 -0.4692\nH 0 -0.7572 -0.4692\n"
        "He 0 0 3.5\nHe 0 0 -3.5"
    )
    ints = compute_integrals(build_basis(mol), mol)
    system = SimpleNamespace(mol=mol, ints=ints, scf=run_rhf(mol, ints))
    gs = ground_state(full_jw(system), n_electrons=14, s_z=0)
    assert gs == pytest.approx(fci_oracle(mol, ints, system.scf), abs=1e-10)


def test_fci_oracle_refuses_full_ch4_before_any_string(ch4):
    # K = 9 and 5 + 5 electrons: 126 strings of each spin, an H+ of 8,001 rows
    # (512 MB by itself) and E tensors of 10 MB each; none of them is built
    assert not fci_fits(9, 5, 5)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="MB limit"):
            fci_oracle(ch4.mol, ch4.ints, ch4.scf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_ground_state_energy_below_diagonal(h2):
    ham = full_jw(h2)
    mat = sector_matrix(ham, *_sector_basis(4, 2, 0.0))
    gs = ground_state(ham, n_electrons=2, s_z=0)
    assert gs <= np.diag(mat).min() + 1e-12


def even_y(word):
    """The word, with its first Y made an X if it holds an odd number of Y."""
    return word.replace("Y", "X", 1) if word.count("Y") % 2 else word


@st.composite
def pauli_sums_and_sectors(draw):
    """A Pauli sum of even-Y words, plus one odd-Y word when odd_y is drawn True."""
    n = draw(st.integers(1, 8))
    words = st.text("IXYZ", min_size=n, max_size=n)
    coeffs = st.floats(-1.0, 1.0).map(lambda c: round(c, 3))
    terms = draw(st.dictionaries(words.map(even_y), coeffs, min_size=1, max_size=12))
    odd_y = draw(st.booleans())
    if odd_y:
        terms[draw(words.filter(lambda word: word.count("Y") % 2))] = draw(coeffs)
    n_electrons = draw(st.integers(0, n))
    s_z = draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]))
    return QubitHamiltonian.from_terms(n, terms.items()), n_electrons, s_z, odd_y


@settings(max_examples=150, deadline=None)
@given(pauli_sums_and_sectors())
def test_sector_matrix_is_dense_matrix_restricted(case):
    ham, n_electrons, s_z, odd_y = case
    n = ham.n_qubits
    # reference enumeration: a plain loop over every bitstring
    expected_states = [
        b for b in range(1 << n)
        if bin(b).count("1") == n_electrons
        and 2 * bin(b & 0x5555).count("1") - bin(b).count("1") == round(2 * s_z)
    ]
    if not expected_states:
        with pytest.raises(InputError, match="empty sector"):
            _sector_basis(n, n_electrons, s_z)
        return
    alphas, betas = _sector_basis(n, n_electrons, s_z)
    states = grid_states(alphas, betas)
    assert sorted(states.tolist()) == expected_states
    if odd_y:
        with pytest.raises(InputError, match="not real"):
            _assemble_sector_matrix(ham, alphas, betas)
        return
    block = dense_matrix(ham)[np.ix_(states, states)]
    assert np.abs(block.imag).max() <= 1e-12
    assert_upper_triangle(*_assemble_sector_matrix(ham, alphas, betas), len(states))
    assert np.abs(sector_matrix(ham, alphas, betas) - block.real).max() <= 1e-12


def assert_upper_triangle(rows, cols, data, dim):
    """Int32 indices within the sector, every entry on or above the diagonal, no pair twice."""
    assert rows.dtype == cols.dtype == np.int32 and len(rows) == len(cols) == len(data)
    assert np.all((0 <= rows) & (rows <= cols) & (cols < dim))
    assert len(np.unique(rows.astype(np.int64) * dim + cols)) == len(rows)


@pytest.mark.parametrize("name, active, localizer, whole", [
    ("water", (0, 2), "spade", 11_525),
    ("ch4", (0, 1, 2, 3), "population", 1_612_900),
])
def test_sector_matrix_is_an_upper_triangle(name, active, localizer, whole, request):
    # whole: the entries of both triangles, as a build that stored them all counted them;
    # the upper triangle keeps each diagonal entry and one entry of each off-diagonal pair
    ham, n_e = embedded_jw(request.getfixturevalue(name), active, localizer)
    alphas, betas = _sector_basis(ham.n_qubits, n_e, 0)
    rows, cols, data = _assemble_sector_matrix(ham, alphas, betas)
    assert_upper_triangle(rows, cols, data, len(alphas) * len(betas))
    assert 2 * len(data) - np.count_nonzero(rows == cols) == whole


def test_sparse_route_matches_dense_route_on_embedded_water(water, force_route):
    # the 225-state sector of the README embed, by both routes
    ham, n_e = embedded_jw(water, (0, 1))
    assert len(grid_states(*_sector_basis(ham.n_qubits, n_e, 0))) == 225
    dense = ground_state(ham, n_electrons=n_e, s_z=0)
    force_route("sparse")
    assert ground_state(ham, n_electrons=n_e, s_z=0) == pytest.approx(dense, abs=1e-10)


# (molecule, active atoms): the whole molecule where its S_z = 0 sector is small, else the
# embedding of one atom; CH2 and NH have S_z = 0 triplet ground states
BLOCK_CASES = [("h2", None), ("he", None), ("heh+", None), ("lih", None), ("water", None),
               ("ch2", None), ("nh", None), ("nh3", (0,)), ("ch4", (1,)), ("methanol", (5,)),
               ("butane", (4,)), ("pentane", (5,))]


def sector_hamiltonian(name, active):
    """The qubit Hamiltonian of a BLOCK_CASES entry and its electron count."""
    system = get_system(name)
    if active is None:
        return full_jw(system), system.mol.n_electrons
    return embedded_jw(system, active)


def gf2_span(gens):
    """The distinct XORs of the subsets of gens, ascending: 2^len(gens) if they are independent."""
    span = np.zeros(1, dtype=np.uint64)
    for g in gens:
        span = np.concatenate([span, span ^ g])
    return np.unique(span)


def null_space(ham):
    """Every word v with an even overlap with every x mask, by a loop over all 2^n."""
    v = np.arange(1 << ham.n_qubits, dtype=np.uint64)
    return v[~(np.bitwise_count(v[:, None] & np.unique(ham.x)) % 2).any(1)]


@pytest.mark.parametrize("name, active", BLOCK_CASES)
def test_dense_blocks_match_the_whole_sector(name, active, force_route):
    ham, n_e = sector_hamiltonian(name, active)
    alphas, betas = _sector_basis(ham.n_qubits, n_e, 0)
    block, place, sizes = _z2_blocks(ham, alphas, betas)
    rows, cols, _ = _assemble_sector_matrix(ham, alphas, betas)
    assert np.array_equal(block[rows], block[cols])  # no entry couples two blocks
    for k, size in enumerate(sizes):
        assert np.array_equal(place[block == k], np.arange(size))
    force_route("dense")
    whole = np.linalg.eigvalsh(sector_matrix(ham, alphas, betas))[0]
    assert ground_state(ham, n_electrons=n_e, s_z=0) == pytest.approx(whole, abs=1e-10)


@pytest.mark.parametrize("name", ["ch2", "nh"])
def test_triplet_lies_outside_the_rhf_determinant_block(name):
    # the lowest block is not the one of the RHF determinant (state 0), so every block is solved
    ham, n_e = sector_hamiltonian(name, None)
    alphas, betas = _sector_basis(ham.n_qubits, n_e, 0)
    block = _z2_blocks(ham, alphas, betas)[0]
    own = block == block[0]
    rhf_block = np.linalg.eigvalsh(sector_matrix(ham, alphas, betas)[np.ix_(own, own)])[0]
    assert rhf_block > ground_state(ham, n_electrons=n_e, s_z=0) + 1e-3


@pytest.mark.parametrize("name, active", BLOCK_CASES)
def test_z2_generators_are_the_null_space_of_the_x_masks(name, active):
    ham, _ = sector_hamiltonian(name, active)
    gens = _z2_generators(ham.x, ham.n_qubits)
    assert np.all(np.bitwise_count(gens[:, None] & ham.x) % 2 == 0)
    if ham.n_qubits <= 14:
        null = null_space(ham)
        assert np.array_equal(gf2_span(gens), null) and len(null) == 2 ** len(gens)


@pytest.mark.parametrize("active", [(0, 1), (0, 2)])
def test_embedded_water_sector_splits_in_two(water, active):
    # the mirror of the molecular plane survives the embedding of O and one H
    ham, n_e = embedded_jw(water, active)
    assert sorted(_z2_blocks(ham, *_sector_basis(ham.n_qubits, n_e, 0))[2]) == [100, 125]


def test_sector_without_a_splitting_generator_is_solved_whole(ch4):
    # one H of CH4 active: 25 states, and the only generators are the parities of
    # the alpha and of the beta electron count, fixed in the sector: one block,
    # the whole sector matrix as it was diagonalized before the blocks
    ham, n_e = embedded_jw(ch4, (1,))
    alphas, betas = _sector_basis(ham.n_qubits, n_e, 0)
    assert sorted(_z2_generators(ham.x, ham.n_qubits).tolist()) == [0x155, 0x2AA]
    assert _z2_blocks(ham, alphas, betas)[2].tolist() == [25]
    rows, cols, data = _assemble_sector_matrix(ham, alphas, betas)
    upper = np.zeros((25, 25))
    upper[rows, cols] = data
    assert ground_state(ham, n_electrons=n_e, s_z=0) == np.linalg.eigvalsh(upper, UPLO="U")[0]


@settings(max_examples=100, deadline=None)
@given(pauli_sums_and_sectors())
def test_dense_blocks_of_random_sums_match_the_whole_sector(case):
    ham, n_electrons, s_z, odd_y = case
    n = ham.n_qubits
    if odd_y:
        return
    try:
        alphas, betas = _sector_basis(n, n_electrons, s_z)
    except InputError:  # an empty sector
        return
    gens, null = _z2_generators(ham.x, n), null_space(ham)
    assert np.array_equal(gf2_span(gens), null) and len(null) == 2 ** len(gens)
    whole = np.linalg.eigvalsh(sector_matrix(ham, alphas, betas))[0]
    assert ground_state(ham, n_electrons=n_electrons, s_z=s_z) == pytest.approx(whole, abs=1e-10)


def test_embedded_water_sector_is_dense_matrix_restricted(water):
    ham, n_e = embedded_jw(water, (0, 2))
    assert ham.n_qubits == 12
    basis = _sector_basis(12, n_e, 0)
    states = grid_states(*basis)
    block = dense_matrix(ham)[np.ix_(states, states)]
    assert np.abs(block.imag).max() <= 1e-12
    assert np.abs(sector_matrix(ham, *basis) - block.real).max() <= 1e-12


def test_odd_y_word_not_real_in_sector():
    # XIYI is Hermitian and flips alpha orbitals 0 and 2 into each other, so in
    # the sector of one alpha electron its elements are +-i
    ham = QubitHamiltonian.from_terms(4, [("XIYI", 1.0)])
    with pytest.raises(InputError, match="not real"):
        ground_state(ham, n_electrons=1, s_z=0.5)


def test_cancelling_odd_y_words_are_refused():
    # XIYI and YIXI share the x mask of XIXI, and their +-i elements cancel in
    # the sector of one alpha electron; the sum is refused all the same
    ham = QubitHamiltonian.from_terms(4, [("XIYI", 0.5), ("YIXI", 0.5), ("XIXI", 0.3),
                                          ("ZIII", 1.0)])
    states = grid_states(*_sector_basis(4, 1, 0.5))
    assert np.abs(dense_matrix(ham)[np.ix_(states, states)].imag).max() <= 1e-12
    with pytest.raises(InputError, match="not real"):
        ground_state(ham, n_electrons=1, s_z=0.5)


def test_oversized_sector_refused(h2, monkeypatch):
    ham = full_jw(h2)
    monkeypatch.setattr(qembed.solver, "MAX_SECTOR_BYTES", 1000)
    with pytest.raises(InputError, match="MB limit"):
        ground_state(ham, n_electrons=2, s_z=0)


def test_sector_estimate_counts_sign_tables_and_diagonal_mask(ch4, monkeypatch):
    # 16 bytes an entry and 320 a state leave out the largest class's sign tables
    # and the 1-byte diagonal mask of the Davidson route: at exactly that limit the
    # CH4 sector is refused
    ham, n_e = embedded_jw(ch4, (0, 1, 2, 3), "population")
    alphas, betas = _sector_basis(ham.n_qubits, n_e, 0)
    nnz = len(_assemble_sector_matrix(ham, alphas, betas)[2])
    monkeypatch.setattr(qembed.solver, "MAX_SECTOR_BYTES", 16 * nnz + 320 * len(alphas) * len(betas))
    with pytest.raises(InputError, match="MB limit"):
        _assemble_sector_matrix(ham, alphas, betas)


def test_24_qubit_sector_refused_before_matrix_sized_arrays(monkeypatch):
    # sector (12, 0) of 24 qubits has 853,776 states; a table over all 2^24
    # bitstrings alone would take 64 MB
    words = ["Z" + "I" * 23, "XX" + "I" * 22, "YY" + "I" * 22, "XZX" + "I" * 21]
    ham = QubitHamiltonian.from_terms(24, [(word, 0.5) for word in words])
    monkeypatch.setattr(qembed.solver, "MAX_SECTOR_BYTES", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="MB limit"):
            ground_state(ham, n_electrons=12, s_z=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


def test_odd_y_word_refused_before_matrix_sized_arrays():
    # sector (12, 0) of 24 qubits has 853,776 states; one float64 vector over
    # them alone would take 6.8 MB
    words = ["Z" + "I" * 23, "XY" + "I" * 22]
    ham = QubitHamiltonian.from_terms(24, [(word, 0.5) for word in words])
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="not real"):
            ground_state(ham, n_electrons=12, s_z=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
