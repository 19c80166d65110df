"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with `pytest -s tests/test_acceptance.py`).

Every tolerance is pinned here; nothing is deferred to calibration.
"""

import itertools
import json

import numpy as np
import pytest

from conftest import get_stretched_water, get_system

import qembed.solver
from qembed.embedding import (
    drop_environment_orbitals,
    run_embedded_scf,
    same_level_energy,
)
from qembed.localize import spade_partition
from qembed.qubits import jordan_wigner, mo_transform, second_quantize
from qembed.scf import density_matrix
from qembed.solver import fci_oracle, ground_state


def _report(number: int, passed: bool, text: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {text}")
    assert passed, f"criterion {number}: {text}"


def _all_spade_partitions(system):
    n = system.mol.n_atoms
    for size in range(1, n):
        for active in itertools.combinations(range(n), size):
            yield spade_partition(system.scf, system.ints.S, system.basis, active)


def _wf_total(system, partition, projector="huzinaga", mu=1e6):
    problem, emb = run_embedded_scf(
        partition, system.ints, system.mol, projector_kind=projector, mu=mu
    )
    c_red = drop_environment_orbitals(emb, partition, system.ints.S)
    mo = mo_transform(problem.h_emb, system.ints.eri, c_red,
                      constant=problem.classical_energy)
    ham = jordan_wigner(second_quantize(mo), 2 * mo.n_orbitals)
    gs = ground_state(ham, n_electrons=problem.n_act_electrons, s_z=0)
    return gs, ham, problem


def test_criterion_1_same_level_exactness():
    """HF-in-HF equals the full mean-field result under every split."""
    worst_huz = 0.0
    mu_ok = True
    for name in ("h2", "lih", "water", "ch4"):
        system = get_system(name)
        for part in _all_spade_partitions(system):
            problem, emb = run_embedded_scf(part, system.ints, system.mol)
            e = same_level_energy(problem, emb.gamma, system.ints)
            worst_huz = max(worst_huz, abs(e - system.scf.E_total))
            errors = []
            for mu in (1e2, 1e4, 1e6):
                problem_mu, emb_mu = run_embedded_scf(
                    part, system.ints, system.mol, projector_kind="mu", mu=mu
                )
                e_mu = same_level_energy(problem_mu, emb_mu.gamma, system.ints)
                errors.append(abs(e_mu - system.scf.E_total))
            if errors[2] > 1e-5:
                mu_ok = False
            if part.n_env > 0 and not (errors[0] > errors[1] > errors[2]):
                mu_ok = False
    _report(
        1,
        worst_huz < 1e-8 and mu_ok,
        f"Huzinaga worst |dE| = {worst_huz:.2e} (< 1e-8); "
        "mu=1e6 within 1e-5 and monotone over {1e2,1e4,1e6}",
    )


def test_criterion_2_resource_counts():
    """Water with one OH bond active: 14 -> 12 qubits, 4 active orbitals."""
    water = get_system("water")
    part = spade_partition(water.scf, water.ints.S, water.basis, [0, 1])
    mo_full = mo_transform(water.ints.h_core, water.ints.eri, water.scf.C)
    ham_full = jordan_wigner(second_quantize(mo_full), 2 * mo_full.n_orbitals)
    _, ham_emb, _ = _wf_total(water, part)
    ok = (
        ham_full.n_qubits == 14
        and ham_emb.n_qubits == 12
        and part.n_active == 4
        and part.n_env == 1
    )
    _report(2, ok, f"full {ham_full.n_qubits} qubits, embedded {ham_emb.n_qubits}, "
                   f"active orbitals {part.n_active}")


def test_criterion_3_projector_spectra():
    """Level shift moves environment levels by ~mu; the anticommutator
    projector flips their sign; converged densities stay orthogonal."""
    water = get_system("water")
    s, fock, c, eps = water.ints.S, water.scf.fock, water.scf.C, water.scf.eps
    mu = 1e6
    ok = True
    details = []
    for idx in (0, 2):
        psi = c[:, [idx]]
        gamma_env = density_matrix(psi)
        from qembed.embedding import huzinaga_projector, mu_projector

        shifted = (psi.T @ (fock + mu_projector(gamma_env, s, mu)) @ psi).item()
        # factor-2 density convention: pure environment level moves by 2 mu
        if abs(shifted - (eps[idx] + 2 * mu)) > 1e-6 * mu:
            ok = False
        flipped = (fock + huzinaga_projector(fock, gamma_env, s)) @ psi
        target = -eps[idx] * (s @ psi)
        if np.abs(flipped - target).max() > 1e-6:
            ok = False
        if -eps[idx] <= 0:
            ok = False
    part = spade_partition(water.scf, s, water.basis, [0, 1])
    problem, emb = run_embedded_scf(part, water.ints, water.mol)
    env_proj = s @ part.gamma_env @ s
    comm = np.linalg.norm(env_proj @ emb.gamma @ s - s @ emb.gamma @ env_proj)
    ok = ok and comm < 1e-6
    _report(3, ok, f"mu shift = eps + 2mu, sign flip to |eps| at 1e-6, "
                   f"convergence commutator {comm:.2e} (< 1e-6)")


def test_criterion_4_oracle_equivalence(monkeypatch):
    """Qubit-route ground states match the determinant oracle; the dense and
    Davidson solvers agree."""
    worst = 0.0
    for name, n_e in (("h2", 2), ("heh+", 2), ("water", 10)):
        system = get_system(name)
        mo = mo_transform(system.ints.h_core, system.ints.eri, system.scf.C,
                          constant=system.mol.e_nuc)
        ham = jordan_wigner(second_quantize(mo), 2 * mo.n_orbitals)
        gs = ground_state(ham, n_electrons=n_e, s_z=0)
        e_fci = fci_oracle(system.mol, system.ints, system.scf)
        worst = max(worst, abs(gs - e_fci))
    # dense vs sparse on a <= 10 qubit problem (6-qubit embedded water)
    water = get_system("water")
    part = spade_partition(water.scf, water.ints.S, water.basis, [1])
    problem, emb = run_embedded_scf(part, water.ints, water.mol)
    c_red = drop_environment_orbitals(emb, part, water.ints.S)
    mo = mo_transform(problem.h_emb, water.ints.eri, c_red,
                      constant=problem.classical_energy)
    ham6 = jordan_wigner(second_quantize(mo), 2 * mo.n_orbitals)
    # each route is forced through the size rule that picks it
    monkeypatch.setattr(qembed.solver, "DENSE_CUTOFF", 1 << 62)
    dense = ground_state(ham6, n_electrons=problem.n_act_electrons, s_z=0)
    monkeypatch.setattr(qembed.solver, "DENSE_CUTOFF", 0)
    sparse = ground_state(ham6, n_electrons=problem.n_act_electrons, s_z=0)
    ok = worst < 1e-8 and abs(dense - sparse) < 1e-9
    _report(4, ok, f"worst |JW - determinant FCI| = {worst:.2e} (< 1e-8); "
                   f"dense vs Davidson {abs(dense - sparse):.2e} (< 1e-9) "
                   f"on {ham6.n_qubits} qubits")


def test_criterion_5_strong_correlation_ordering():
    """With the stretched bond active, the embedded energy tracks the exact
    curve better than the mean field or the wrong active choice."""
    ok = True
    rows = []
    for r in (2.0, 2.5, 3.0):
        system = get_stretched_water(r)
        e_fci = fci_oracle(system.mol, system.ints, system.scf)
        part_stretch = spade_partition(system.scf, system.ints.S, system.basis, [0, 2])
        part_fixed = spade_partition(system.scf, system.ints.S, system.basis, [0, 1])
        e_stretch, _, _ = _wf_total(system, part_stretch)
        e_fixed, _, _ = _wf_total(system, part_fixed)
        err_s = abs(e_stretch - e_fci)
        err_f = abs(e_fixed - e_fci)
        err_rhf = abs(system.scf.E_total - e_fci)
        rows.append(f"r={r}: {err_s:.3e} < rhf {err_rhf:.3e}, fixed {err_f:.3e}")
        if not (err_s < err_rhf and err_s < err_f):
            ok = False
    _report(5, ok, "; ".join(rows))


def test_criterion_6_embedding_reduces_hamiltonian():
    """Embedded problems need strictly fewer qubits and terms (whenever the
    environment is nonempty)."""
    cases = {
        "lih": [(0,), (1,)],
        "water": [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)],
        "ch4": [(0,), (0, 1), (1, 2, 3, 4)],
    }
    ok = True
    checked = 0
    for name, active_sets in cases.items():
        system = get_system(name)
        mo_full = mo_transform(system.ints.h_core, system.ints.eri, system.scf.C)
        ham_full = jordan_wigner(second_quantize(mo_full), 2 * mo_full.n_orbitals)
        for active in active_sets:
            part = spade_partition(system.scf, system.ints.S, system.basis, active)
            if part.n_env == 0:
                continue
            problem, emb = run_embedded_scf(part, system.ints, system.mol)
            c_red = drop_environment_orbitals(emb, part, system.ints.S)
            mo = mo_transform(problem.h_emb, system.ints.eri, c_red)
            ham = jordan_wigner(second_quantize(mo), 2 * mo.n_orbitals)
            checked += 1
            if not (ham.n_qubits < ham_full.n_qubits
                    and ham.term_count() < ham_full.term_count()):
                ok = False
    _report(6, ok and checked >= 10,
            f"{checked} partitions all reduce qubit and term counts")


def test_criterion_7_invariant_bundle(tmp_path):
    """Key structural invariants plus byte-determinism of the reports."""
    water = get_system("water")
    s, gamma = water.ints.S, water.scf.gamma
    checks = {}
    part = spade_partition(water.scf, s, water.basis, [0, 1])
    checks["density closure"] = np.abs(
        part.gamma_act + part.gamma_env - gamma
    ).max() < 1e-10
    checks["electron traces"] = abs(
        np.einsum("pq,qp->", s, part.gamma_act)
        + np.einsum("pq,qp->", s, part.gamma_env)
        - water.mol.n_electrons
    ) < 1e-8
    half = gamma @ s / 2
    checks["idempotency"] = np.linalg.norm(half @ half - half) < 1e-7
    checks["orthonormality"] = np.abs(
        water.scf.C.T @ s @ water.scf.C - np.eye(7)
    ).max() < 1e-8
    mo = mo_transform(water.ints.h_core, water.ints.eri, water.scf.C)
    ham = jordan_wigner(second_quantize(mo), 14)
    checks["hermiticity"] = all(isinstance(v, float) for v in ham.terms.values())
    from qembed.cli import RunConfig, cmd_embed

    geometry = tmp_path / "w.xyz"
    geometry.write_text(
        "3\nwater\nO 0 0 0.1173\nH 0 0.7572 -0.4692\nH 0 -0.7572 -0.4692\n"
    )
    blobs = []
    for _ in range(2):
        out = tmp_path / "rep.json"
        cmd_embed(RunConfig(geometry=str(geometry), active_atoms=(0, 1),
                            solver="none", out=str(out)))
        blobs.append(out.read_bytes())
        out.unlink()
    checks["report determinism"] = blobs[0] == blobs[1]
    failed = [k for k, v in checks.items() if not v]
    _report(7, not failed, "all invariants hold" if not failed
            else f"failed: {failed}")
