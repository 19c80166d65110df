import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qembed.qubits
from qembed.exceptions import InputError
from qembed.molecule import nuclear_repulsion
from qembed.qubits import (
    IMAG_TOLERANCE,
    FermionOperator,
    MOIntegrals,
    QubitHamiltonian,
    _pauli_words,
    dense_matrix,
    jordan_wigner,
    mo_transform,
    pauli_masks,
    second_quantize,
)

# --- independent fermionic matrix construction ------------------------------


def ladder_matrix(index: int, n_modes: int, creation: bool) -> np.ndarray:
    """Creation/annihilation matrix in the occupation-number basis.

    Basis state b has mode p occupied iff bit p of b is set; the sign is the
    parity of occupied modes below p. Built directly from the definition, no
    Pauli algebra involved.
    """
    dim = 1 << n_modes
    mat = np.zeros((dim, dim))
    for b in range(dim):
        occupied = (b >> index) & 1
        if occupied == creation:
            continue
        target = b ^ (1 << index)
        # modes below `index` agree between b and target, so one parity works
        mat[target, b] = (-1.0) ** bin(b & ((1 << index) - 1)).count("1")
    return mat


def fermionic_dense(mo: MOIntegrals) -> np.ndarray:
    """c + sum h_pq a+_ps a_qs + 1/2 sum (pq|rs) a+_ps a+_rt a_st a_qs, straight from h and g."""
    m = mo.n_orbitals
    n_modes = 2 * m
    up = [ladder_matrix(i, n_modes, True) for i in range(n_modes)]
    down = [ladder_matrix(i, n_modes, False) for i in range(n_modes)]
    total = mo.constant * np.eye(1 << n_modes)
    for p in range(m):
        for q in range(m):
            for sp in range(2):
                total += mo.h[p, q] * up[2 * p + sp] @ down[2 * q + sp]
                for r in range(m):
                    for s_ in range(m):
                        for tp in range(2):
                            total += 0.5 * mo.g[p, q, r, s_] * (
                                up[2 * p + sp] @ up[2 * r + tp]
                                @ down[2 * s_ + tp] @ down[2 * q + sp]
                            )
    return total


def one_body_operator(pairs, coeffs) -> FermionOperator:
    """sum_t coeffs[t] a+_i a_j over the (i, j) pairs."""
    return FermionOperator(0.0, ((np.array(pairs), np.array(coeffs, dtype=float)),))


def random_integrals(seed: int, m: int, constant: float) -> MOIntegrals:
    """Real symmetric h and 8-fold symmetric g, as real orbitals give them."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((m, m))
    h = h + h.T
    g = rng.standard_normal((m, m, m, m))
    g = g + g.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    return MOIntegrals(h=h, g=g, constant=constant)


# --- mo_transform -----------------------------------------------------------


def test_mo_transform_identity():
    rng = np.random.default_rng(0)
    h = rng.standard_normal((3, 3))
    h = h + h.T
    g = rng.standard_normal((3, 3, 3, 3))
    mo = mo_transform(h, g, np.eye(3), constant=1.25)
    np.testing.assert_allclose(mo.h, h, atol=1e-14)
    np.testing.assert_allclose(mo.g, g, atol=1e-14)
    assert mo.constant == 1.25


def test_mo_transform_matches_quadruple_loop(h2):
    c = h2.scf.C
    mo = mo_transform(h2.ints.h_core, h2.ints.eri, c)
    k = 2
    brute = np.zeros((k, k, k, k))
    for i in range(k):
        for j in range(k):
            for kk in range(k):
                for ll in range(k):
                    brute[i, j, kk, ll] = sum(
                        h2.ints.eri[p, q, r, s_]
                        * c[p, i] * c[q, j] * c[r, kk] * c[s_, ll]
                        for p in range(k) for q in range(k)
                        for r in range(k) for s_ in range(k)
                    )
    np.testing.assert_allclose(mo.g, brute, atol=1e-12)
    np.testing.assert_allclose(mo.h, mo.h.T, atol=1e-12)


def test_mo_transform_h_bitwise_symmetric():
    # a mu projector puts entries of order 1e6 into h; C^T h C is not exactly
    # symmetric in floating point, and the asymmetry becomes an imaginary Pauli part
    rng = np.random.default_rng(4)
    h = rng.standard_normal((9, 9)) * 1e6
    h = h + h.T
    c = rng.standard_normal((9, 6))
    mo = mo_transform(h, np.zeros((9, 9, 9, 9)), c)
    assert np.array_equal(mo.h, mo.h.T)
    np.testing.assert_allclose(mo.h, c.T @ h @ c, rtol=1e-12, atol=1e-6)


# --- second quantization and Jordan-Wigner ----------------------------------


def test_single_orbital_number_operators():
    mo = MOIntegrals(h=np.array([[0.7]]), g=np.zeros((1, 1, 1, 1)))
    ham = jordan_wigner(second_quantize(mo), 2)
    expected = {"II": 0.7, "ZI": -0.35, "IZ": -0.35}
    assert set(ham.terms) == set(expected)
    for word, coeff in expected.items():
        assert ham.terms[word] == pytest.approx(coeff, abs=1e-14)


def test_number_operator_identity():
    ham = jordan_wigner(one_body_operator([[0, 0]], [1.0]), 1)
    assert ham.terms == {"I": pytest.approx(0.5), "Z": pytest.approx(-0.5)}


def test_hopping_matches_closed_form():
    # a+_p a_q + a+_q a_p = 1/2 (X_p X_q + Y_p Y_q) Z_{p+1} ... Z_{q-1}
    # (Seeley, Richard & Love, J. Chem. Phys. 137, 224109, 2012)
    ham = jordan_wigner(one_body_operator([[0, 3], [3, 0]], [1.0, 1.0]), 4)
    assert ham.terms == {"XZZX": pytest.approx(0.5), "YZZY": pytest.approx(0.5)}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3),
       constant=st.floats(-10.0, 10.0))
def test_jw_matches_direct_fermionic_matrix(seed, m, constant):
    mo = random_integrals(seed, m, constant)
    ham = jordan_wigner(second_quantize(mo), 2 * m)
    mat = dense_matrix(ham)
    np.testing.assert_allclose(mat.real, fermionic_dense(mo), atol=1e-10)
    np.testing.assert_allclose(mat.imag, 0.0, atol=1e-10)


def _shuffled(rng, half):
    """half in a random order and the sign of that permutation."""
    perm = rng.permutation(len(half))
    inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
    return [half[i] for i in perm], (-1.0) ** inversions


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_modes=st.integers(2, 5), n_terms=st.integers(1, 6))
def test_jw_canonicalizes_noncanonical_hermitian_input(seed, n_modes, n_terms):
    # sum_t c_t (T_t + T_t+), written with shuffled ladder orders, split and
    # zero rows, and each T and T+ in its own block of the same width
    rng = np.random.default_rng(seed)
    up = [ladder_matrix(i, n_modes, True) for i in range(n_modes)]
    down = [ladder_matrix(i, n_modes, False) for i in range(n_modes)]
    reference = np.zeros((1 << n_modes, 1 << n_modes))
    rows = {(k, side): ([], []) for k in (1, 2) for side in "TC"}

    def add(side, creators, annihilators, coeff):
        creators, s_c = _shuffled(rng, creators)
        annihilators, s_a = _shuffled(rng, annihilators)
        indices, coeffs = rows[len(creators), side]
        indices.append(creators + annihilators)
        coeffs.append(s_c * s_a * coeff)

    for _ in range(n_terms):
        k = int(rng.integers(1, 3))
        creators = rng.choice(n_modes, k, replace=False).tolist()
        annihilators = rng.choice(n_modes, k, replace=False).tolist()
        coeff = rng.standard_normal()
        term = np.linalg.multi_dot([np.eye(1 << n_modes)] + [up[i] for i in creators]
                                   + [down[i] for i in annihilators])
        reference += coeff * (term + term.T)
        part = rng.uniform(-1.0, 1.0)
        add("T", creators, annihilators, part)
        add("T", creators, annihilators, coeff - part)
        add("C", annihilators[::-1], creators[::-1], coeff)
        p, q, r = rng.choice(n_modes, 3, replace=n_modes < 3).tolist()
        add("T", [p, p], [q, r], rng.standard_normal())  # a+_p a+_p = 0
        add("C", [q, r], [p, p], rng.standard_normal())
    ops = FermionOperator(0.0, tuple((np.array(i, dtype=int).reshape(-1, 2 * k), np.array(c))
                                     for (k, _), (i, c) in rows.items()))
    mat = dense_matrix(jordan_wigner(ops, n_modes))
    np.testing.assert_allclose(mat.real, reference, atol=1e-10)
    np.testing.assert_allclose(mat.imag, 0.0, atol=1e-10)


@pytest.mark.parametrize("mismatch", [1.5 * IMAG_TOLERANCE, -1.5 * IMAG_TOLERANCE,
                                      0.5 * IMAG_TOLERANCE, -0.5 * IMAG_TOLERANCE])
def test_jw_conjugate_mismatch_at_tolerance(mismatch):
    # a+_2 a+_0 a_1 a_3 and its conjugate a+_3 a+_1 a_0 a_2
    rows = np.array([[2, 0, 1, 3], [3, 1, 0, 2]])
    ops = FermionOperator(0.0, ((rows, np.array([0.5, 0.5 + mismatch])),))
    if abs(mismatch) > IMAG_TOLERANCE:
        with pytest.raises(ValueError, match="non-Hermitian"):
            jordan_wigner(ops, 4)
        return
    expected = jordan_wigner(FermionOperator(0.0, ((rows, np.array([0.5, 0.5])),)), 4).terms
    terms = jordan_wigner(ops, 4).terms
    assert terms.keys() == expected.keys()
    assert max(abs(terms[w] - expected[w]) for w in expected) <= IMAG_TOLERANCE


def test_jw_hermitian_pair_split_across_blocks():
    hop = FermionOperator(0.0, ((np.array([[0, 3]]), np.array([1.0])),
                                (np.array([[3, 0]]), np.array([1.0]))))
    assert jordan_wigner(hop, 4).terms == {"XZZX": pytest.approx(0.5), "YZZY": pytest.approx(0.5)}
    term = (np.array([[2, 0, 1, 3]]), np.array([0.25]))
    conj = (np.array([[3, 1, 0, 2]]), np.array([0.25]))
    joined = (np.concatenate([term[0], conj[0]]), np.concatenate([term[1], conj[1]]))
    split = jordan_wigner(FermionOperator(0.0, (term, conj)), 4).terms
    assert split == jordan_wigner(FermionOperator(0.0, (joined,)), 4).terms
    assert len(split) == 8
    with pytest.raises(ValueError, match="non-Hermitian"):
        jordan_wigner(FermionOperator(0.0, (term,)), 4)


def test_jw_hermitian_and_real(water):
    mo = mo_transform(water.ints.h_core, water.ints.eri, water.scf.C)
    ham = jordan_wigner(second_quantize(mo), 14)
    assert all(isinstance(c, float) for c in ham.terms.values())


def test_jw_rejects_non_hermitian():
    with pytest.raises(ValueError, match="non-Hermitian"):
        jordan_wigner(one_body_operator([[0, 1]], [1.0]), 2)  # a0+ a1 alone


def test_jw_qubit_and_index_limits():
    top = jordan_wigner(one_body_operator([[63, 63]], [1.0]), 64)
    assert top.terms == {"I" * 64: 0.5, "I" * 63 + "Z": -0.5}
    with pytest.raises(InputError, match="limit 64"):
        jordan_wigner(one_body_operator([[0, 0]], [1.0]), 65)
    with pytest.raises(ValueError, match="outside 2 qubits"):
        jordan_wigner(one_body_operator([[2, 2]], [1.0]), 2)
    for width in (3, 12):
        wide = FermionOperator(0.0, ((np.zeros((1, width), dtype=int), np.ones(1)),))
        with pytest.raises(ValueError, match=f"product of {width} ladder operators"):
            jordan_wigner(wide, 2)


def test_jw_merge_seams(water, monkeypatch):
    # a prime block leaves partial blocks, and many blocks wait for each merge
    mo = mo_transform(water.ints.h_core, water.ints.eri, water.scf.C,
                      constant=nuclear_repulsion(water.mol))
    ops = second_quantize(mo)
    default = jordan_wigner(ops, 14).terms
    monkeypatch.setattr(qembed.qubits, "JW_BLOCK", 997)
    small = jordan_wigner(ops, 14).terms
    assert small.keys() == default.keys()
    assert max(abs(small[w] - default[w]) for w in default) <= 1e-12


def test_h2_term_count_is_fifteen(h2):
    mo = mo_transform(h2.ints.h_core, h2.ints.eri, h2.scf.C,
                      constant=nuclear_repulsion(h2.mol))
    ham = jordan_wigner(second_quantize(mo), 4)
    assert ham.term_count() == 15


def test_h2_fermionic_term_count_matches_enumeration(h2):
    mo = mo_transform(h2.ints.h_core, h2.ints.eri, h2.scf.C)
    count = 0
    for p in range(2):
        for q in range(2):
            if abs(mo.h[p, q]) > 1e-12:
                count += 2  # alpha and beta
    for p in range(2):
        for q in range(2):
            for r in range(2):
                for s_ in range(2):
                    if abs(mo.g[p, q, r, s_]) < 1e-12:
                        continue
                    for sp in range(2):
                        for tp in range(2):
                            i, j = 2 * p + sp, 2 * r + tp
                            k, l = 2 * s_ + tp, 2 * q + sp
                            if i != j and k != l:
                                count += 1
    assert len(second_quantize(mo)) == count


def test_zero_operator_has_no_terms():
    mo = MOIntegrals(h=np.zeros((1, 1)), g=np.zeros((1, 1, 1, 1)))
    ham = jordan_wigner(second_quantize(mo), 2)
    assert ham.term_count() == 0


def test_water_qubit_counts(water):
    from qembed.embedding import drop_environment_orbitals, run_embedded_scf
    from qembed.localize import spade_partition

    mo_full = mo_transform(water.ints.h_core, water.ints.eri, water.scf.C)
    ham_full = jordan_wigner(second_quantize(mo_full), 2 * mo_full.n_orbitals)
    assert ham_full.n_qubits == 14

    part = spade_partition(water.scf, water.ints.S, water.basis, [0, 1])
    problem, emb = run_embedded_scf(part, water.ints, water.mol)
    c_red = drop_environment_orbitals(emb, part.gamma_env, water.ints.S)
    mo_emb = mo_transform(problem.h_emb, water.ints.eri, c_red)
    ham_emb = jordan_wigner(second_quantize(mo_emb), 2 * mo_emb.n_orbitals)
    assert ham_emb.n_qubits == 12
    assert ham_emb.n_qubits == 2 * (7 - part.n_env)
    assert ham_emb.term_count() < ham_full.term_count()


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 9999))
def test_jw_symmetry_commutators(seed):
    # random Hermitian two-orbital problem: the mapped operator commutes
    # with total particle number and total S_z
    mo = random_integrals(seed, 2, 0.0)
    ham = dense_matrix(jordan_wigner(second_quantize(mo), 4))
    number = np.zeros((16, 16))
    s_z = np.zeros((16, 16))
    for b in range(16):
        occ = [(b >> q) & 1 for q in range(4)]
        number[b, b] = sum(occ)
        s_z[b, b] = 0.5 * (occ[0] + occ[2] - occ[1] - occ[3])
    assert np.abs(ham @ number - number @ ham).max() < 1e-10
    assert np.abs(ham @ s_z - s_z @ ham).max() < 1e-10


# --- export -----------------------------------------------------------------


def test_json_schema_and_ordering(tmp_path, h2):
    mo = mo_transform(h2.ints.h_core, h2.ints.eri, h2.scf.C, constant=0.7137)
    ham = jordan_wigner(second_quantize(mo), 4)
    path = tmp_path / "h.json"
    ham.dump(path)
    data = json.loads(path.read_text())
    assert set(data) == {"n_qubits", "constant", "terms"}
    assert data["n_qubits"] == 4
    words = [t["pauli"] for t in data["terms"]]
    assert words == sorted(words)
    assert "IIII" not in words  # identity lives in "constant"
    back = QubitHamiltonian.from_json_dict(data)
    assert back.terms == pytest.approx(ham.terms)


@pytest.mark.parametrize("word", ["ZZZ", "Z", "ZQ", "zz", "Zé"])
def test_from_json_rejects_malformed_words(word):
    data = {"n_qubits": 2, "constant": -1.0, "terms": [{"pauli": word, "coeff": 0.5}]}
    with pytest.raises(InputError, match="Pauli word"):
        QubitHamiltonian.from_json_dict(data)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 64).flatmap(
    lambda n: st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=5)))
def test_pauli_masks_round_trip(words):
    n = len(words[0])
    x, z = pauli_masks(words, n)
    assert _pauli_words(x, z, n) == words
    for word, xw, zw in zip(words, x.tolist(), z.tolist()):
        assert [(xw >> q) & 1 for q in range(n)] == [int(c in "XY") for c in word]
        assert [(zw >> q) & 1 for q in range(n)] == [int(c in "ZY") for c in word]


def test_dump_deterministic(tmp_path, h2):
    mo = mo_transform(h2.ints.h_core, h2.ints.eri, h2.scf.C)
    ham = jordan_wigner(second_quantize(mo), 4)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    ham.dump(p1)
    ham.dump(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_prune_threshold_drops_tiny_terms():
    mo = MOIntegrals(h=np.array([[1e-13]]), g=np.zeros((1, 1, 1, 1)))
    ham = jordan_wigner(second_quantize(mo), 2)
    assert ham.term_count() == 0


def test_no_subthreshold_coefficients_survive(water):
    mo = mo_transform(water.ints.h_core, water.ints.eri, water.scf.C)
    ham = jordan_wigner(second_quantize(mo), 14)
    assert min(abs(c) for c in ham.terms.values()) >= 1e-12
    assert len(set(ham.terms)) == ham.term_count()


@pytest.mark.slow
def test_butane_full_map_memory(butane):
    # K = 30, 60 qubits; the bound is about 1.5x the measured 202 MB peak. Expanding
    # every term without Hermitian pairing and filling uint64 letter codes took 967 MB
    import tracemalloc

    from qembed.integrals import compute_integrals
    from qembed.scf import run_rhf

    ints = compute_integrals(butane.basis, butane.mol)
    mo = mo_transform(ints.h_core, ints.eri, run_rhf(butane.mol, ints).C)
    ops = second_quantize(mo)
    del ints
    tracemalloc.start()
    try:
        ham = jordan_wigner(ops, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ham.n_qubits == 60
    assert ham.term_count() > 600_000
    assert peak <= 300e6
