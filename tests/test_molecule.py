import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qembed.exceptions import InputError
from qembed.molecule import (
    BOHR_PER_ANGSTROM,
    Atom,
    Molecule,
    parse_xyz,
)


def test_parse_h2():
    mol = parse_xyz("2\n\nH 0 0 0\nH 0 0 0.7414")
    assert mol.n_atoms == 2
    assert mol.n_electrons == 2
    bond = np.linalg.norm(mol.atoms[1].position - mol.atoms[0].position)
    # hand conversion: 0.7414 / 0.52917721092
    assert bond == pytest.approx(1.4010429, abs=1e-6)


def test_parse_single_helium():
    mol = parse_xyz("1\n\nHe 0 0 0")
    assert mol.atoms[0].z == 2
    assert mol.n_electrons == 2


def test_header_mismatch_rejected():
    with pytest.raises(InputError, match="declares 3"):
        parse_xyz("3\n\nH 0 0 0\nH 0 0 1.0")


def test_unknown_element_rejected():
    with pytest.raises(InputError, match="unknown element"):
        parse_xyz("1\n\nXx 0 0 0")


@pytest.mark.parametrize("line", ["H nan 0 0", "H 0 inf 0", "H 0 0 -inf"])
def test_non_finite_coordinate_rejected(line):
    with pytest.raises(InputError, match=f"non-finite coordinate in line: '{line}'"):
        parse_xyz(f"2\n\n{line}\nH 0 0 0.74")


def test_malformed_line_rejected():
    with pytest.raises(InputError):
        parse_xyz("1\n\nH 0 0")
    with pytest.raises(InputError):
        parse_xyz("1\n\nH a b c")
    with pytest.raises(InputError, match="atom count"):
        parse_xyz("two\n\nH 0 0 0")


def test_odd_electron_count_rejected():
    with pytest.raises(InputError, match="odd electron"):
        parse_xyz("2\n\nHe 0 0 0\nH 0 0 0.9")


def test_empty_input_rejected():
    with pytest.raises(InputError, match="^empty XYZ input$"):
        parse_xyz("")


def test_charge_that_removes_every_electron_rejected():
    with pytest.raises(InputError, match=re.escape("no electrons: sum(Z)=10, charge=10")):
        parse_xyz("3\nwater\nO 0 0 0.1173\nH 0 0.7572 -0.4692\nH 0 -0.7572 -0.4692", charge=10)


def test_charge_shifts_electron_count():
    mol = parse_xyz("2\n\nHe 0 0 0\nH 0 0 0.9295", charge=1)
    assert mol.n_electrons == 2


def test_coincident_nuclei_rejected():
    with pytest.raises(InputError, match="coincident"):
        parse_xyz("2\n\nH 0 0 0\nH 0 0 0")


def test_nuclear_repulsion_h2():
    mol = parse_xyz("2\n\nH 0 0 0\nH 0 0 0.7414")
    # hand calc: 1 / 1.4010429
    assert mol.e_nuc == pytest.approx(0.7137540, abs=1e-6)


def test_nuclear_repulsion_single_atom_zero():
    assert parse_xyz("1\n\nHe 0 0 0").e_nuc == 0.0


def test_nuclear_repulsion_matches_pair_sum_oracle():
    mol = parse_xyz(
        "3\nwater\nO 0 0 0.1173\nH 0 0.7572 -0.4692\nH 0 -0.7572 -0.4692"
    )
    expected = 0.0
    pos = [a.position for a in mol.atoms]
    z = [a.z for a in mol.atoms]
    for i in range(3):
        for j in range(3):
            if i < j:
                expected += z[i] * z[j] / np.sqrt(((pos[i] - pos[j]) ** 2).sum())
    assert mol.e_nuc == pytest.approx(expected, abs=1e-14)


@settings(max_examples=25, deadline=None)
@given(
    shift=st.tuples(
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
    )
)
def test_translation_leaves_repulsion_unchanged(shift):
    mol = parse_xyz("3\nwater\nO 0 0 0.1173\nH 0 0.7572 -0.4692\nH 0 -0.7572 -0.4692")
    moved = mol.translated(shift)
    assert moved.e_nuc == pytest.approx(mol.e_nuc, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    coords=st.lists(
        st.tuples(
            st.floats(-4, 4, allow_nan=False, allow_infinity=False),
            st.floats(-4, 4, allow_nan=False, allow_infinity=False),
            st.floats(-4, 4, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=4,
        unique=True,
    )
)
def test_parse_roundtrip_preserves_geometry(coords):
    lines = [str(len(coords)), "generated"]
    for x, y, z in coords:
        lines.append(f"He {x!r} {y!r} {z!r}")
    text = "\n".join(lines)
    try:
        mol = parse_xyz(text)
    except InputError:
        return  # coincident random points are legitimately rejected
    assert mol.n_atoms == len(coords)
    for atom, (x, y, z) in zip(mol.atoms, coords):
        np.testing.assert_allclose(
            atom.position, np.array([x, y, z]) * BOHR_PER_ANGSTROM, atol=1e-9
        )


def test_molecule_direct_construction_validates():
    with pytest.raises(InputError):
        Molecule((Atom("H", 1, np.zeros(3)),), charge=0)  # one electron
