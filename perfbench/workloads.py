"""Workload definitions: seeded inputs, the qembed argv of one op, and its check.

Every geometry is given a rigid rotation and translation drawn from the
workload seed before it is written, so the program only ever sees the
generated XYZ file. The stored energies are orientation-free, which makes
each op a rigid-motion invariance test as well as a correctness check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Geometries in Angstrom. Water and methane match tests/conftest.py; methanol
# is an experimental-style structure with the hydroxyl H last (index 5).
WATER = (
    ("O", (0.0, 0.0, 0.1173)),
    ("H", (0.0, 0.7572, -0.4692)),
    ("H", (0.0, -0.7572, -0.4692)),
)
METHANOL = (
    ("C", (-0.0466, 0.6638, 0.0)),
    ("O", (-0.0466, -0.7570, 0.0)),
    ("H", (-1.0885, 0.9752, 0.0)),
    ("H", (0.4363, 1.0798, 0.8913)),
    ("H", (0.4363, 1.0798, -0.8913)),
    ("H", (0.8444, -1.0925, 0.0)),
)
METHANE = (
    ("C", (0.0, 0.0, 0.0)),
    ("H", (0.6276, 0.6276, 0.6276)),
    ("H", (0.6276, -0.6276, -0.6276)),
    ("H", (-0.6276, 0.6276, -0.6276)),
    ("H", (-0.6276, -0.6276, 0.6276)),
)

# Reference energies in Hartree, recorded at the unrotated geometries.
WATER_SCAN_E_FCI = {  # distance (Angstrom) -> full-CI total energy
    "0.8": -74.9455074087,
    "1.0": -75.0160923405,
    "1.2": -74.9956798574,
    "1.4": -74.9539183553,
    "1.6": -74.9153505301,
    "1.8": -74.8872945624,
    "2.0": -74.8700081228,
    "2.2": -74.8605768614,
    "2.4": -74.8557971673,
    "2.6": -74.8534764083,
    "2.8": -74.8523855790,
    "3.0": -74.8518888516,
}
METHANOL_E_RHF = -113.5454651764
CH4_E_RHF = -39.7268092377
CH4_E_WF = -39.7822237107

SAME_LEVEL_TOL = 1e-8   # |e_same_level_embedded - e_rhf|, the README's exactness claim
E_RHF_TOL = 1e-8
E_FCI_TOL = 1e-8
E_WF_TOL = 1e-7


class CheckError(Exception):
    """An op finished but its output is wrong."""


def rigid_motion(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A proper rotation (uniform over SO(3)) and a translation in Angstrom."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q, rng.uniform(-3.0, 3.0, size=3)


def xyz_text(atoms, seed: int) -> str:
    rot, shift = rigid_motion(seed)
    lines = [str(len(atoms)), f"seed {seed}"]
    for symbol, pos in atoms:
        x, y, z = rot @ np.asarray(pos) + shift
        lines.append(f"{symbol} {x:.12f} {y:.12f} {z:.12f}")
    return "\n".join(lines) + "\n"


def _near(name: str, value, ref: float, tol: float) -> None:
    if value is None or not math.isfinite(value) or abs(value - ref) > tol:
        raise CheckError(f"{name} = {value} differs from {ref} by more than {tol:g}")


def check_scan(out: Path) -> dict:
    rows = [ln.split() for ln in out.read_text().splitlines() if not ln.startswith("#")]
    if len(rows) != len(WATER_SCAN_E_FCI):
        raise CheckError(f"scan table has {len(rows)} rows, expected {len(WATER_SCAN_E_FCI)}")
    for r_ang, _r_bohr, _e_rhf, e_fci, _e_embed, _log_err, status in rows:
        key = f"{float(r_ang):.1f}"
        if status != "ok":
            raise CheckError(f"scan point {key} has status {status}")
        if key not in WATER_SCAN_E_FCI:
            raise CheckError(f"unexpected scan distance {r_ang}")
        _near(f"e_fci at {key}", float(e_fci), WATER_SCAN_E_FCI[key], E_FCI_TOL)
    return {"points": len(rows)}


def check_embed(out: Path, n_qubits: int, e_rhf: float, e_wf: float | None) -> dict:
    report = json.loads(out.read_text())
    energies = report["energies"]
    _near("e_same_level_embedded", energies["e_same_level_embedded"],
          energies["e_rhf"], SAME_LEVEL_TOL)
    _near("e_rhf", energies["e_rhf"], e_rhf, E_RHF_TOL)
    if e_wf is not None:
        _near("e_wf_in_lowlevel", energies.get("e_wf_in_lowlevel"), e_wf, E_WF_TOL)
    ham = json.loads(Path(report["hamiltonian_file"]).read_text())
    if ham["n_qubits"] != n_qubits or not ham["terms"]:
        raise CheckError(f"hamiltonian has {ham['n_qubits']} qubits and "
                         f"{len(ham['terms'])} terms, expected {n_qubits} qubits")
    # Term counts depend on which symmetry zeros survive pruning in this
    # orientation, so they are recorded, not checked.
    return {"terms_embedded": report["resources"]["terms_embedded"],
            "terms_full": report["resources"]["terms_full"]}


@dataclass(frozen=True)
class Workload:
    name: str
    atoms: tuple
    args: tuple[str, ...]      # qembed argv after --geometry/--out
    command: str               # embed | scan
    out_name: str
    check: Callable[[Path], dict]

    def write_inputs(self, workdir: Path, seed: int) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "geometry.xyz").write_text(xyz_text(self.atoms, seed))

    def argv(self, workdir: Path) -> list[str]:
        return [self.command, "--geometry", str(workdir / "geometry.xyz"),
                "--out", str(workdir / self.out_name), *self.args]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "water_scan", WATER,
            ("--active", "0,2", "--atoms", "0,2", "--distances", "0.8:3.0:0.2",
             "--jobs", "1", "--localizer", "spade", "--projector", "huzinaga"),
            "scan", "scan.txt", check_scan,
        ),
        Workload(
            "methanol_embed", METHANOL,
            ("--active", "1,5", "--solver", "none",
             "--localizer", "spade", "--projector", "huzinaga"),
            "embed", "report.json",
            lambda out: check_embed(out, 20, METHANOL_E_RHF, None),
        ),
        Workload(
            "ch4_solve", METHANE,
            ("--active", "0,1,2,3", "--solver", "exact",
             "--localizer", "population", "--projector", "huzinaga"),
            "embed", "report.json",
            lambda out: check_embed(out, 16, CH4_E_RHF, CH4_E_WF),
        ),
    )
}
