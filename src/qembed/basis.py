"""Contracted Gaussian basis construction from the bundled STO-3G data.

Only s and p shells exist in this basis (H through Ar), so Cartesian
Gaussians are used as-is with no spherical transformation. Each p shell
contributes the three Cartesian components in x, y, z order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .exceptions import InputError
from .molecule import Molecule

# (l, m, n) Cartesian powers per angular momentum.
CARTESIAN_POWERS = {0: [(0, 0, 0)], 1: [(1, 0, 0), (0, 1, 0), (0, 0, 1)]}


@dataclass(frozen=True)
class BasisFunction:
    """A single Cartesian AO: fixed (l,m,n) powers over a contracted radial part.

    ``coeffs`` multiply the bare primitives: :func:`build_basis` folds in the
    primitive norms and the contracted normalization, so every AO has unit
    self-overlap. The components of one p shell share exponents and coeffs.
    """

    atom_index: int
    center: np.ndarray
    powers: tuple[int, int, int]
    exponents: np.ndarray
    coeffs: np.ndarray


@dataclass(frozen=True, eq=False)  # compared and hashed by identity: the fields hold arrays
class BasisSet:
    functions: tuple[BasisFunction, ...]

    @property
    def n_functions(self) -> int:
        return len(self.functions)

    def atom_of_function(self) -> np.ndarray:
        """AO index -> atom index map."""
        return np.array([f.atom_index for f in self.functions], dtype=int)


@lru_cache(maxsize=1)
def _sto3g_table() -> dict[str, list[tuple[int, list[tuple[float, float]]]]]:
    """Parse the bundled plain-text data file into per-element shell lists."""
    text = resources.files("qembed.data").joinpath("sto3g.dat").read_text()
    table: dict[str, list] = {}
    element = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("element "):
            element = line.split()[1]
            table[element] = []
        elif line in ("S", "P"):
            table[element].append(("SP".index(line), []))
        else:
            exp_s, coeff_s = line.split()
            table[element][-1][1].append((float(exp_s), float(coeff_s)))
    return table


def primitive_norm(alpha: float, powers: tuple[int, int, int]) -> float:
    """Normalization constant of a Cartesian primitive Gaussian with every power at most 1.

    The (2l-1)!! factors of the general formula are all 1 for s and p powers.
    """
    return (2.0 * alpha / np.pi) ** 0.75 * (4.0 * alpha) ** (sum(powers) / 2.0)


def _contracted_self_overlap(exps: np.ndarray, c: np.ndarray, L: int) -> float:
    # <phi|phi> for a contracted Cartesian Gaussian with total power L <= 1 on one axis
    ee = exps[:, None] + exps[None, :]
    pref = (np.pi / ee) ** 1.5 / (2.0 * ee) ** L
    return float(np.einsum("i,j,ij->", c, c, pref))


def build_basis(mol: Molecule) -> BasisSet:
    """Attach STO-3G shells to every atom and normalize each contraction.

    Coefficients in the data file refer to unit-normalized primitives; here
    they are rescaled so the contracted self-overlap is exactly 1 (all three
    components of a p shell share one factor, which is exact for l <= 1).
    """
    table = _sto3g_table()
    functions = []
    for ia, atom in enumerate(mol.atoms):
        if atom.symbol not in table:
            raise InputError(f"no STO-3G data for element {atom.symbol!r}")
        for l, rows in table[atom.symbol]:
            exps = np.array([r[0] for r in rows])
            coeffs = np.array([r[1] for r in rows])
            # fold primitive norms into the coefficients, then renormalize
            lead = CARTESIAN_POWERS[l][0]
            c = coeffs * np.array([primitive_norm(a, lead) for a in exps])
            c /= np.sqrt(_contracted_self_overlap(exps, c, l))
            for powers in CARTESIAN_POWERS[l]:
                functions.append(BasisFunction(ia, atom.position, powers, exps, c))
    return BasisSet(tuple(functions))
