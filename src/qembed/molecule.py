"""Molecular geometry handling: XYZ parsing and nuclear repulsion.

All coordinates are stored in Bohr; XYZ input is in Angstrom. Energies
everywhere in this package are in Hartree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import InputError

BOHR_PER_ANGSTROM = 1.0 / 0.52917721092

# Z by symbol, H through Ar (the range covered by the bundled basis data).
ELEMENT_NUMBERS = {
    "H": 1, "He": 2,
    "Li": 3, "Be": 4, "B": 5, "C": 6, "N": 7, "O": 8, "F": 9, "Ne": 10,
    "Na": 11, "Mg": 12, "Al": 13, "Si": 14, "P": 15, "S": 16, "Cl": 17, "Ar": 18,
}


@dataclass(frozen=True)
class Atom:
    symbol: str
    z: int
    position: np.ndarray  # (3,) in Bohr

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))


@dataclass(frozen=True)
class Molecule:
    """Nuclei plus a total charge; the electron count and the nuclear
    repulsion (point-charge pair sum, in Hartree) are derived."""

    atoms: tuple[Atom, ...]
    charge: int = 0
    n_electrons: int = field(init=False)
    e_nuc: float = field(init=False)

    def __post_init__(self):
        n = sum(a.z for a in self.atoms) - self.charge
        if n <= 0:
            raise InputError(f"no electrons: sum(Z)={n + self.charge}, charge={self.charge}")
        if n % 2 != 0:
            raise InputError(f"odd electron count {n}: only closed-shell molecules are supported")
        object.__setattr__(self, "n_electrons", n)
        e_nuc = 0.0
        for i in range(len(self.atoms)):
            for j in range(i + 1, len(self.atoms)):
                r = np.linalg.norm(self.atoms[i].position - self.atoms[j].position)
                if r < 1e-6:
                    raise InputError(f"atoms {i} and {j} are coincident (r = {r:.2e} Bohr)")
                e_nuc += self.atoms[i].z * self.atoms[j].z / r
        object.__setattr__(self, "e_nuc", e_nuc)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def positions(self) -> np.ndarray:
        return np.array([a.position for a in self.atoms])

    def charges(self) -> np.ndarray:
        return np.array([a.z for a in self.atoms], dtype=float)

    def translated(self, shift) -> "Molecule":
        shift = np.asarray(shift, dtype=float)
        return Molecule(
            tuple(Atom(a.symbol, a.z, a.position + shift) for a in self.atoms),
            charge=self.charge,
        )


def parse_xyz(text: str, charge: int = 0) -> Molecule:
    """Parse standard XYZ text (coordinates in Angstrom) into a Molecule.

    The first line is the atom count, the second a comment; each following
    line is ``symbol x y z``. Positions are converted to Bohr.
    """
    lines = text.splitlines()
    if not lines:
        raise InputError("empty XYZ input")
    try:
        n_declared = int(lines[0].strip())
    except ValueError:
        raise InputError(f"XYZ header is not an atom count: {lines[0]!r}") from None
    body = [ln for ln in lines[2:] if ln.strip()]
    if len(body) != n_declared:
        raise InputError(f"XYZ header declares {n_declared} atoms but body has {len(body)}")
    atoms = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 4:
            raise InputError(f"malformed XYZ line: {ln!r}")
        sym = parts[0].capitalize()
        if sym not in ELEMENT_NUMBERS:
            raise InputError(f"unknown element symbol {parts[0]!r}")
        try:
            xyz = np.array([float(p) for p in parts[1:]])
        except ValueError:
            raise InputError(f"non-numeric coordinate in line: {ln!r}") from None
        if not np.all(np.isfinite(xyz)):
            raise InputError(f"non-finite coordinate in line: {ln!r}")
        atoms.append(Atom(sym, ELEMENT_NUMBERS[sym], xyz * BOHR_PER_ANGSTROM))
    return Molecule(tuple(atoms), charge=charge)


def load_xyz(path, charge: int = 0) -> Molecule:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read geometry file {path}: {exc}") from exc
    return parse_xyz(text, charge=charge)
