"""Shared fixtures: molecules with cached integrals and SCF solutions.

Building the two-electron tensor dominates test runtime, so each named
system is constructed once per session and reused everywhere.
"""

from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

from qembed.basis import build_basis
from qembed.integrals import compute_integrals
from qembed.molecule import Atom, Molecule, parse_xyz
from qembed.scf import run_rhf
from qembed.solver import _assemble_sector_matrix

XYZ = {
    "h2": "2\n\nH 0 0 0\nH 0 0 0.7414",
    "he": "1\n\nHe 0 0 0",
    "lih": "2\n\nLi 0 0 0\nH 0 0 1.5949",
    "water": (
        "3\nwater\n"
        "O  0.0000000  0.0000000  0.1173000\n"
        "H  0.0000000  0.7572000 -0.4692000\n"
        "H  0.0000000 -0.7572000 -0.4692000"
    ),
    "ch4": (
        "5\nmethane\n"
        "C 0 0 0\n"
        "H 0.6276 0.6276 0.6276\n"
        "H 0.6276 -0.6276 -0.6276\n"
        "H -0.6276 0.6276 -0.6276\n"
        "H -0.6276 -0.6276 0.6276"
    ),
    "heh+": "2\n\nHe 0 0 0\nH 0 0 0.9295",
    # triplet ground states: methylene (R = 1.078 A, HCH 133.9 deg) and imidogen
    "ch2": "3\nmethylene\nC 0 0 0\nH 0 0.9919 0.4222\nH 0 -0.9919 0.4222",
    "nh": "2\nimidogen\nN 0 0 0\nH 0 0 1.036",
    "nh3": (
        "4\nammonia\n"
        "N 0 0 0.1162\n"
        "H 0 0.9377 -0.2711\n"
        "H 0.8121 -0.4689 -0.2711\n"
        "H -0.8121 -0.4689 -0.2711"
    ),
    "methanol": (
        "6\nmethanol\n"
        "C -0.0466 0.6638 0.0\n"
        "O -0.0466 -0.7570 0.0\n"
        "H -1.0885 0.9752 0.0\n"
        "H 0.4363 1.0798 0.8913\n"
        "H 0.4363 1.0798 -0.8913\n"
        "H 0.8444 -1.0925 0.0"
    ),
    "butane": (  # hand-built anti n-butane, K = 30
        "14\nbutane\n"
        "C 0.0000 0.0000 0.0000\n"
        "C 1.2492 0.8833 0.0000\n"
        "C 2.4985 0.0000 0.0000\n"
        "C 3.7477 0.8833 0.0000\n"
        "H -0.8900 0.6293 0.0000\n"
        "H 0.0000 -0.6293 0.8900\n"
        "H 0.0000 -0.6293 -0.8900\n"
        "H 1.2492 1.5127 0.8900\n"
        "H 1.2492 1.5127 -0.8900\n"
        "H 2.4985 -0.6293 0.8900\n"
        "H 2.4985 -0.6293 -0.8900\n"
        "H 4.6377 0.2540 0.0000\n"
        "H 3.7477 1.5127 0.8900\n"
        "H 3.7477 1.5127 -0.8900"
    ),
    "pentane": (  # the butane zigzag one carbon longer, K = 37: carbons, then each C's hydrogens
        "17\npentane\n"
        "C 0.0000 0.0000 0.0000\n"
        "C 1.2492 0.8833 0.0000\n"
        "C 2.4985 0.0000 0.0000\n"
        "C 3.7477 0.8833 0.0000\n"
        "C 4.9969 0.0000 0.0000\n"
        "H -0.8900 0.6293 0.0000\n"
        "H 0.0000 -0.6293 0.8900\n"
        "H 0.0000 -0.6293 -0.8900\n"
        "H 1.2492 1.5127 0.8900\n"
        "H 1.2492 1.5127 -0.8900\n"
        "H 2.4985 -0.6293 0.8900\n"
        "H 2.4985 -0.6293 -0.8900\n"
        "H 3.7477 1.5127 0.8900\n"
        "H 3.7477 1.5127 -0.8900\n"
        "H 5.8869 0.6293 0.0000\n"
        "H 4.9969 -0.6293 0.8900\n"
        "H 4.9969 -0.6293 -0.8900"
    ),
}
CHARGES = {"heh+": 1}


def sector_matrix(ham, alphas, betas) -> np.ndarray:
    """The whole sector matrix U + U^T - diag U, from the upper triangle U the solver builds."""
    rows, cols, data = _assemble_sector_matrix(ham, alphas, betas)
    dim = len(alphas) * len(betas)
    upper = np.zeros((dim, dim))
    upper[rows, cols] = data
    return upper + upper.T - np.diag(upper.diagonal())


@lru_cache(maxsize=None)
def get_system(name: str) -> SimpleNamespace:
    mol = parse_xyz(XYZ[name], charge=CHARGES.get(name, 0))
    return _assemble(mol)


@lru_cache(maxsize=None)
def get_stretched_water(r_angstrom: float) -> SimpleNamespace:
    base = parse_xyz(XYZ["water"])
    r = r_angstrom / 0.52917721092
    atoms = list(base.atoms)
    axis = atoms[2].position - atoms[0].position
    axis = axis / np.linalg.norm(axis)
    atoms[2] = Atom(atoms[2].symbol, atoms[2].z, atoms[0].position + r * axis)
    return _assemble(Molecule(tuple(atoms)))


def _assemble(mol: Molecule) -> SimpleNamespace:
    basis = build_basis(mol)
    ints = compute_integrals(basis, mol)
    scf = run_rhf(mol, ints)
    return SimpleNamespace(mol=mol, basis=basis, ints=ints, scf=scf)


@pytest.fixture(scope="session")
def h2():
    return get_system("h2")


@pytest.fixture(scope="session")
def he():
    return get_system("he")


@pytest.fixture(scope="session")
def lih():
    return get_system("lih")


@pytest.fixture(scope="session")
def water():
    return get_system("water")


@pytest.fixture(scope="session")
def ch4():
    return get_system("ch4")


@pytest.fixture(scope="session")
def nh3():
    return get_system("nh3")


@pytest.fixture(scope="session")
def methanol():
    return get_system("methanol")


@pytest.fixture(scope="session")
def ch2():
    return get_system("ch2")


@pytest.fixture(scope="session")
def nh():
    return get_system("nh")


@pytest.fixture(scope="session")
def butane():
    """Molecule and basis only: the K = 30 ERI tests build and measure their own tensor."""
    mol = parse_xyz(XYZ["butane"])
    return SimpleNamespace(mol=mol, basis=build_basis(mol))


@pytest.fixture(scope="session")
def heh_plus():
    return get_system("heh+")
