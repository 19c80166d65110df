import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qembed.basis import build_basis
from qembed.exceptions import InputError
from qembed.integrals import overlap_matrix
from qembed.molecule import Atom, Molecule, parse_xyz


def test_water_ao_count(water):
    # O contributes 1s, 2s, 2p(x3); each H a single 1s
    assert water.basis.n_functions == 7


def test_h2_ao_count(h2):
    assert h2.basis.n_functions == 2


def test_acetonitrile_ao_count():
    # subshell tally: 2 C x (1s + 2s + 3x2p) + N x 5 + 3 H x 1 = 18
    xyz = (
        "6\nacetonitrile\n"
        "C 0.0 0.0 0.0\n"
        "C 0.0 0.0 1.46\n"
        "N 0.0 0.0 2.61\n"
        "H 1.03 0.0 -0.37\n"
        "H -0.51 0.89 -0.37\n"
        "H -0.51 -0.89 -0.37"
    )
    mol = parse_xyz(xyz)
    tally = 0
    for atom in mol.atoms:
        tally += {"H": 1, "C": 5, "N": 5}[atom.symbol]
    assert tally == 18
    assert build_basis(mol).n_functions == tally


def test_third_row_ao_count():
    mol = parse_xyz("1\n\nAr 0 0 0")
    # 1s + 2s + 2p(x3) + 3s + 3p(x3)
    assert build_basis(mol).n_functions == 9


def test_contracted_normalization_all_elements():
    # every supported element, every shell: unit diagonal overlap
    for sym, z in [("H", 1), ("He", 2), ("Li", 3), ("C", 6), ("O", 8),
                   ("F", 9), ("Ne", 10), ("Na", 11), ("Si", 14), ("S", 16),
                   ("Cl", 17), ("Ar", 18)]:
        charge = -1 if z % 2 else 0
        mol = Molecule((Atom(sym, z, np.zeros(3)),), charge=charge)
        s = overlap_matrix(build_basis(mol))
        np.testing.assert_allclose(np.diag(s), 1.0, atol=1e-10)


def test_unsupported_element_rejected():
    mol = Molecule((Atom("K", 19, np.zeros(3)),), charge=1)
    with pytest.raises(InputError, match="no STO-3G data"):
        build_basis(mol)


@settings(max_examples=15, deadline=None)
@given(
    r=st.floats(0.5, 4.0, allow_nan=False),
    theta=st.floats(0.5, 3.0, allow_nan=False),
)
def test_ao_count_geometry_independent(r, theta):
    xyz = (
        f"3\n\nO 0 0 0\nH 0 0 {r:.6f}\n"
        f"H 0 {r * np.sin(theta):.6f} {r * np.cos(theta):.6f}"
    )
    assert build_basis(parse_xyz(xyz)).n_functions == 7


def test_shell_structure_water(water):
    funcs = water.basis.functions
    powers = [f.powers for f in funcs]
    # O: 1s, 2s, 2p_x, 2p_y, 2p_z; one 1s on each H
    assert powers == [(0, 0, 0), (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                      (0, 0, 0), (0, 0, 0)]
    atom_of = water.basis.atom_of_function()
    assert list(atom_of) == [0, 0, 0, 0, 0, 1, 2]
    # 1s and 2s are different contractions; the three 2p components share one
    assert not np.array_equal(funcs[0].exponents, funcs[1].exponents)
    for f in funcs[3:5]:
        np.testing.assert_array_equal(f.exponents, funcs[2].exponents)
        np.testing.assert_array_equal(f.coeffs, funcs[2].coeffs)
