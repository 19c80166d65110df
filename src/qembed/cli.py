"""Command-line driver: single-point embedding runs and bond scans.

``embed`` runs the full pipeline on one geometry and writes a JSON report
plus the embedded qubit Hamiltonian; ``scan`` displaces one atom of a bond
over a distance grid and tabulates full, exact and embedded energies per
point. Exit codes: 0 success, 2 configuration/input error, 3 convergence
failure, 4 projection failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import build_basis
from .embedding import (
    drop_environment_orbitals,
    run_embedded_scf,
    same_level_energy,
)
from .exceptions import (
    ConvergenceError,
    InputError,
    PartitionError,
    ProjectionError,
    QembedError,
)
from .integrals import compute_integrals
from .localize import assign_by_population, population_localize, spade_partition
from .molecule import BOHR_PER_ANGSTROM, Atom, Molecule, load_xyz, nuclear_repulsion
from .qubits import jordan_wigner, mo_transform, second_quantize
from .scf import run_rhf
from .solver import MAX_FCI_ORBITALS, fci_oracle, ground_state

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_PROJECTION = 4


@dataclass
class RunConfig:
    geometry: str
    active_atoms: tuple[int, ...]
    localizer: str = "spade"           # spade | population
    threshold: float = 0.95
    projector: str = "huzinaga"        # huzinaga | mu
    mu: float = 1e6
    solver: str = "exact"              # exact | none
    charge: int = 0
    out: str = "report.json"
    verbose: int = 0

    def validate(self) -> None:
        if self.localizer not in ("spade", "population"):
            raise InputError(f"unknown localizer {self.localizer!r}")
        if self.projector not in ("huzinaga", "mu"):
            raise InputError(f"unknown projector {self.projector!r}")
        if self.solver not in ("exact", "none"):
            raise InputError(f"unknown solver {self.solver!r}")
        if not self.active_atoms:
            raise InputError("active atom list is empty")
        if not (0.0 < self.threshold <= 1.0):
            raise InputError(f"threshold {self.threshold} outside (0, 1]")
        if self.mu <= 0:
            raise InputError(f"mu must be positive, got {self.mu}")


class StageError(Exception):
    """Wraps a pipeline failure with the stage it happened in."""

    def __init__(self, stage: str, original: Exception):
        super().__init__(f"[{stage}] {original}")
        self.stage = stage
        self.original = original


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except QembedError as exc:
        raise StageError(name, exc) from exc


def _round10(value: float) -> float:
    return float(f"{value:.10f}")


def _partition_for(config: RunConfig, scf, s, basis):
    if config.localizer == "spade":
        return spade_partition(scf, s, basis, config.active_atoms)
    c_lmo = population_localize(scf, s, basis)
    return assign_by_population(c_lmo, s, basis, config.active_atoms, config.threshold)


def run_embedding_pipeline(config: RunConfig, mol: Optional[Molecule] = None) -> dict:
    """Execute geometry -> SCF -> partition -> embedding -> qubit map (+solve).

    Returns a result dict holding the report payload plus, under private
    keys, the embedded Hamiltonian ("_hamiltonian") and the full-system
    integrals and RHF result ("_integrals", "_scf") for further use.
    """
    if mol is None:
        mol = _stage("geometry", load_xyz, config.geometry, charge=config.charge)
    basis = _stage("basis", build_basis, mol)
    integrals = _stage("integrals", compute_integrals, basis, mol)
    scf = _stage("scf", run_rhf, mol, integrals, verbose=config.verbose)
    partition = _stage("partition", _partition_for, config, scf, integrals.S, basis)
    problem, scf_emb = _stage(
        "embedding", run_embedded_scf,
        partition, integrals, mol,
        projector_kind=config.projector, mu=config.mu, verbose=config.verbose,
    )
    e_same_level = same_level_energy(problem, scf_emb.gamma, integrals)

    c_red = _stage("embedding", drop_environment_orbitals, scf_emb, partition.gamma_env, integrals.S)
    mo_emb = mo_transform(problem.h_emb, integrals.eri, c_red,
                          constant=problem.classical_energy)
    h_emb = _stage("qubit_map", jordan_wigner, second_quantize(mo_emb), 2 * mo_emb.n_orbitals)
    mo_full = mo_transform(integrals.h_core, integrals.eri, scf.C,
                           constant=nuclear_repulsion(mol))
    h_full = _stage("qubit_map", jordan_wigner, second_quantize(mo_full), 2 * mo_full.n_orbitals)

    report = {
        "molecule": {
            "n_atoms": mol.n_atoms,
            "n_electrons": mol.n_electrons,
            "n_ao": integrals.n_functions,
            "e_nuc": _round10(nuclear_repulsion(mol)),
        },
        "scf": {
            "e_rhf_total": _round10(scf.E_total),
            "n_iterations": scf.n_iterations,
        },
        "partition": {
            "localizer": config.localizer,
            "active_atoms": list(partition.active_atoms),
            "n_active_mos": partition.n_active,
            "n_env_mos": partition.n_env,
            "active_ao_count": len(partition.active_aos),
            "orbital_active_populations": [
                _round10(p) for p in partition.populations
            ],
            "singular_values": (
                [_round10(v) for v in partition.singular_values]
                if partition.singular_values is not None else None
            ),
        },
        "embedding": {
            "projector": problem.projector_kind,
            "mu": problem.mu_value if problem.projector_kind == "mu" else None,
            "n_active_electrons": problem.n_act_electrons,
            "e_env": _round10(problem.E_env),
            "g_cross": _round10(problem.g_cross),
            "e_correction": _round10(problem.E_correction),
            "e_nuc": _round10(problem.E_nuc),
            "e_classical": _round10(problem.classical_energy),
            "embedded_scf_iterations": scf_emb.n_iterations,
            "embedded_scf_trace": [_round10(e) for e in scf_emb.history],
            "e_same_level_embedded": _round10(e_same_level),
        },
        "resources": {
            "n_qubits_full": h_full.n_qubits,
            "n_qubits_embedded": h_emb.n_qubits,
            "terms_full": h_full.term_count(),
            "terms_embedded": h_emb.term_count(),
        },
        "_hamiltonian": h_emb,
        "_integrals": integrals,
        "_scf": scf,
    }
    if config.solver == "exact":
        gs = _stage("solver", ground_state, h_emb,
                    n_electrons=problem.n_act_electrons, s_z=0.0)
        report["energies"] = {
            "e_rhf": _round10(scf.E_total),
            "e_same_level_embedded": _round10(e_same_level),
            "e_wf_in_lowlevel": _round10(gs.energy),
        }
    else:
        report["energies"] = {
            "e_rhf": _round10(scf.E_total),
            "e_same_level_embedded": _round10(e_same_level),
        }
    return report


def cmd_embed(config: RunConfig) -> int:
    config.validate()
    report = run_embedding_pipeline(config)
    hamiltonian = report.pop("_hamiltonian")
    del report["_integrals"], report["_scf"]
    ham_path = _hamiltonian_path(config.out)
    hamiltonian.dump(ham_path)
    report["hamiltonian_file"] = str(ham_path)
    with open(config.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"report written to {config.out}; hamiltonian to {ham_path}")
    return EXIT_OK


def _hamiltonian_path(out: str) -> str:
    stem = out[:-5] if out.endswith(".json") else out
    return stem + ".hamiltonian.json"


def displace_along_bond(mol: Molecule, i: int, j: int, r_bohr: float) -> Molecule:
    """Move atom j along the i->j axis to distance r; other atoms fixed."""
    if i == j or not (0 <= i < mol.n_atoms and 0 <= j < mol.n_atoms):
        raise InputError(f"invalid scan atom pair ({i}, {j})")
    axis = mol.atoms[j].position - mol.atoms[i].position
    axis = axis / np.linalg.norm(axis)
    atoms = list(mol.atoms)
    atoms[j] = Atom(atoms[j].symbol, atoms[j].z, mol.atoms[i].position + r_bohr * axis)
    return Molecule(tuple(atoms), charge=mol.charge)


def _scan_point(args) -> dict:
    config, base_mol, pair, r_ang = args
    row = {"r_angstrom": r_ang, "r_bohr": r_ang * BOHR_PER_ANGSTROM}
    try:
        mol = displace_along_bond(base_mol, pair[0], pair[1], row["r_bohr"])
        report = run_embedding_pipeline(config, mol=mol)
        row["e_rhf"] = report["scf"]["e_rhf_total"]
        row["e_embed"] = report["energies"].get("e_wf_in_lowlevel")
        if report["molecule"]["n_ao"] <= MAX_FCI_ORBITALS:
            row["e_fci"] = _round10(fci_oracle(mol, report["_integrals"], report["_scf"]))
            if row.get("e_embed") is not None:
                row["log10_error"] = _round10(
                    float(np.log10(max(abs(row["e_embed"] - row["e_fci"]), 1e-16)))
                )
        row["status"] = "ok"
    except StageError as exc:
        row["status"] = f"error:{exc.stage}"
        row["message"] = str(exc.original)
    except QembedError as exc:
        row["status"] = "error"
        row["message"] = str(exc)
    return row


def cmd_scan(config: RunConfig, atoms: tuple[int, int], distances: list[float],
             jobs: int = 1) -> int:
    config.validate()
    if len(distances) < 2:
        raise InputError("a scan needs at least two distances")
    base_mol = load_xyz(config.geometry, charge=config.charge)
    grid = sorted(set(round(r, 12) for r in distances))
    tasks = [(config, base_mol, atoms, r) for r in grid]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_scan_point, tasks))
    else:
        rows = [_scan_point(t) for t in tasks]
    _write_scan_table(config.out, rows)
    n_err = sum(1 for row in rows if row["status"] != "ok")
    print(f"scan table written to {config.out} ({len(rows)} points, {n_err} failed)")
    return EXIT_OK


def _write_scan_table(path: str, rows: list[dict]) -> None:
    cols = ["r_angstrom", "r_bohr", "e_rhf", "e_fci", "e_embed", "log10_error", "status"]
    with open(path, "w") as fh:
        fh.write("# " + "  ".join(cols) + "\n")
        for row in rows:
            cells = []
            for col in cols:
                val = row.get(col)
                if val is None:
                    cells.append("n/a")
                elif isinstance(val, float):
                    cells.append(f"{val:.10f}")
                else:
                    cells.append(str(val))
            fh.write("  ".join(cells) + "\n")


def parse_distances(spec: str) -> list[float]:
    """Accept 'start:stop:step' ranges or comma-separated lists (Angstrom)."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise InputError(f"distance range must be start:stop:step, got {spec!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise InputError(f"bad distance range {spec!r}")
        n = int(round((stop - start) / step)) + 1
        return [start + k * step for k in range(n) if start + k * step <= stop + 1e-9]
    try:
        return [float(p) for p in spec.split(",") if p.strip()]
    except ValueError:
        raise InputError(f"could not parse distances {spec!r}") from None


def _parse_index_list(spec: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in spec.split(",") if p.strip())
    except ValueError:
        raise InputError(f"could not parse index list {spec!r}") from None


def _load_config_file(path: str) -> dict:
    """key = value lines; '#' comments; keys match the CLI flag names."""
    values: dict = {}
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InputError(f"malformed config line {raw.rstrip()!r}")
                key, _, val = line.partition("=")
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    return values


_CONFIG_CASTS = {
    "geometry": str, "active": str, "localizer": str, "threshold": float,
    "projector": str, "mu": float, "solver": str, "charge": int, "out": str,
    "atoms": str, "distances": str, "jobs": int, "verbose": int,
}


def _merge_config(args: argparse.Namespace) -> dict:
    """Config file values first, explicit flags override."""
    merged: dict = {}
    if getattr(args, "config", None):
        for key, raw in _load_config_file(args.config).items():
            if key not in _CONFIG_CASTS:
                raise InputError(f"unknown config key {key!r}")
            try:
                merged[key] = _CONFIG_CASTS[key](raw)
            except ValueError:
                raise InputError(f"bad value for config key {key!r}: {raw!r}") from None
    for key in _CONFIG_CASTS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _build_run_config(merged: dict) -> RunConfig:
    if "geometry" not in merged:
        raise InputError("no geometry given (flag --geometry or config file)")
    if "active" not in merged:
        raise InputError("no active atoms given (flag --active or config file)")
    return RunConfig(
        geometry=merged["geometry"],
        active_atoms=_parse_index_list(merged["active"]),
        localizer=merged.get("localizer", "spade"),
        threshold=merged.get("threshold", 0.95),
        projector=merged.get("projector", "huzinaga"),
        mu=merged.get("mu", 1e6),
        solver=merged.get("solver", "exact"),
        charge=merged.get("charge", 0),
        out=merged.get("out", "report.json"),
        verbose=merged.get("verbose", 0),
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qembed",
        description="Projection-based embedding into qubit Hamiltonians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value config file; flags override")
        p.add_argument("--geometry", help="XYZ geometry file (Angstrom)")
        p.add_argument("--active", help="comma-separated active atom indices (0-based)")
        p.add_argument("--localizer", choices=["spade", "population"])
        p.add_argument("--threshold", type=float,
                       help="population threshold for the population localizer")
        p.add_argument("--projector", choices=["huzinaga", "mu"])
        p.add_argument("--mu", type=float, help="level-shift strength")
        p.add_argument("--solver", choices=["exact", "none"])
        p.add_argument("--charge", type=int)
        p.add_argument("--out", help="output path")
        p.add_argument("--verbose", type=int, default=None)

    p_embed = sub.add_parser("embed", help="single-point embedded calculation")
    add_common(p_embed)

    p_scan = sub.add_parser("scan", help="bond-distance scan")
    add_common(p_scan)
    p_scan.add_argument("--atoms", help="atom pair i,j; j is displaced along the bond")
    p_scan.add_argument("--distances", help="list 'a,b,c' or range 'start:stop:step' (Angstrom)")
    p_scan.add_argument("--jobs", type=int, default=None, help="concurrent scan points")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        merged = _merge_config(args)
        config = _build_run_config(merged)
        if args.command == "embed":
            return cmd_embed(config)
        if "atoms" not in merged or "distances" not in merged:
            raise InputError("scan needs --atoms and --distances")
        pair = _parse_index_list(merged["atoms"])
        if len(pair) != 2:
            raise InputError(f"scan atom pair must have two indices, got {pair}")
        return cmd_scan(config, (pair[0], pair[1]),
                        parse_distances(merged["distances"]),
                        jobs=merged.get("jobs", 1))
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        if isinstance(exc.original, ConvergenceError):
            return EXIT_CONVERGENCE
        if isinstance(exc.original, ProjectionError):
            return EXIT_PROJECTION
        return EXIT_CONFIG
    except (InputError, PartitionError) as exc:
        print(f"error [config] {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"error [convergence] {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ProjectionError as exc:
        print(f"error [projection] {exc}", file=sys.stderr)
        return EXIT_PROJECTION


if __name__ == "__main__":
    sys.exit(main())
