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
import logging
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .basis import build_basis
from .embedding import (
    DEFAULT_MU,
    EmbeddedProblem,
    drop_environment_orbitals,
    run_embedded_scf,
    same_level_energy,
)
from .exceptions import ConvergenceError, InputError, ProjectionError, QembedError
from .integrals import IntegralSet, compute_integrals
from .localize import (
    Partition,
    _check_active_atoms,
    assign_by_population,
    population_localize,
    spade_partition,
)
from .molecule import BOHR_PER_ANGSTROM, Atom, Molecule, load_xyz
from .qubits import QubitHamiltonian, jordan_wigner, mo_transform, second_quantize
from .scf import SCFResult, run_rhf
from .solver import fci_fits, fci_oracle, ground_state

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_PROJECTION = 4
# distances one scan may hold: at about 25 ms a water point, already minutes of work
MAX_SCAN_POINTS = 10_000
# thread counts that OpenBLAS, MKL and OpenMP read once, when the library loads
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
# allowed values of the RunConfig fields that take a name; the parser offers the same
_CHOICES = {
    "localizer": ("spade", "population"),
    "projector": ("huzinaga", "mu"),
    "solver": ("exact", "none"),
}


@dataclass
class RunConfig:
    geometry: str
    active_atoms: tuple[int, ...]
    localizer: str = "spade"
    threshold: float = 0.95
    projector: str = "huzinaga"
    mu: float = DEFAULT_MU
    solver: str = "exact"
    charge: int = 0
    out: str = "report.json"

    def validate(self) -> None:
        for key, allowed in _CHOICES.items():
            if getattr(self, key) not in allowed:
                raise InputError(f"unknown {key} {getattr(self, key)!r}")
        if not self.active_atoms:
            raise InputError("active atom list is empty")
        if not (0.0 < self.threshold <= 1.0):
            raise InputError(f"threshold {self.threshold} outside (0, 1]")
        if not 0.0 < self.mu < math.inf:
            raise InputError(f"mu must be positive and finite, got {self.mu}")
        out_dir = os.path.dirname(self.out) or "."
        if not os.path.isdir(out_dir):
            raise InputError(f"output directory {out_dir} of --out {self.out} does not exist")
        _refuse_directory(self.out)


def _refuse_directory(path: str) -> None:
    """Refuse an output path that names a directory, before the run rather than after it."""
    if os.path.isdir(path):
        raise InputError(f"cannot write {path}: it is a directory")


def _stage(name: str, fn, *args, **kwargs):
    """fn(*args, **kwargs); a QembedError it raises is re-raised with its stage set to name."""
    try:
        return fn(*args, **kwargs)
    except QembedError as exc:
        exc.stage = name
        raise


@contextmanager
def _writing(path: str):
    """Raise an OSError of the block as an InputError that names path."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _round10(value: float) -> float:
    return float(f"{value:.10f}")


def _partition_for(config: RunConfig, scf, s, basis):
    if config.localizer == "spade":
        return spade_partition(scf, s, basis, config.active_atoms)
    c_lmo = population_localize(scf, s, basis)
    return assign_by_population(c_lmo, s, basis, config.active_atoms, config.threshold)


@dataclass(frozen=True)
class PipelineResult:
    """What one embedding run computed, from the molecule to the embedded qubit Hamiltonian."""

    mol: Molecule
    integrals: IntegralSet
    scf: SCFResult
    partition: Partition
    problem: EmbeddedProblem
    scf_emb: SCFResult
    hamiltonian: QubitHamiltonian
    e_wf: Optional[float]  # rounded exact ground-state energy; None for --solver none


def run_embedding_pipeline(config: RunConfig, mol: Optional[Molecule] = None,
                           gamma0: Optional[np.ndarray] = None) -> PipelineResult:
    """Execute geometry -> SCF -> partition -> embedding -> embedded qubit map -> sector solve.

    mol, when given, replaces the geometry file; gamma0, when given, is the
    full RHF's starting density in place of the core guess. A failure is
    raised as a QembedError whose `stage` names its stage.
    """
    if mol is None:
        mol = _stage("geometry", load_xyz, config.geometry, charge=config.charge)
    # refuse a bad active set before the integrals and RHF run
    _stage("partition", _check_active_atoms, mol.n_atoms, config.active_atoms)
    basis = _stage("basis", build_basis, mol)
    integrals = _stage("integrals", compute_integrals, basis, mol)
    scf = _stage("scf", run_rhf, mol, integrals, gamma0=gamma0)
    partition = _stage("partition", _partition_for, config, scf, integrals.S, basis)
    problem, scf_emb = _stage(
        "embedding", run_embedded_scf,
        partition, integrals, mol,
        projector_kind=config.projector, mu=config.mu,
    )
    c_red = _stage("embedding", drop_environment_orbitals, scf_emb, partition, integrals.S)
    mo_emb = mo_transform(problem.h_emb, integrals.eri, c_red,
                          constant=problem.classical_energy)
    h_emb = _stage("qubit_map", jordan_wigner, second_quantize(mo_emb), 2 * mo_emb.n_orbitals)
    e_wf = None
    if config.solver == "exact":
        e_wf = _round10(_stage("solver", ground_state, h_emb,
                               n_electrons=problem.n_act_electrons, s_z=0.0))
    return PipelineResult(mol, integrals, scf, partition, problem, scf_emb, h_emb, e_wf)


def cmd_embed(config: RunConfig) -> int:
    config.validate()
    ham_path = config.out.removesuffix(".json") + ".hamiltonian.json"
    _refuse_directory(ham_path)
    result = run_embedding_pipeline(config)
    partition, problem = result.partition, result.problem
    e_same_level = _round10(same_level_energy(problem, result.scf_emb.gamma, result.integrals))
    report = {
        "molecule": {
            "n_atoms": result.mol.n_atoms,
            "n_electrons": result.mol.n_electrons,
            "n_ao": result.integrals.n_functions,
            "e_nuc": _round10(problem.E_nuc),
        },
        "scf": {
            "e_rhf_total": _round10(result.scf.E_total),
            "n_iterations": result.scf.n_iterations,
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
            "projector": config.projector,
            "mu": config.mu if config.projector == "mu" else None,
            "n_active_electrons": problem.n_act_electrons,
            "e_env": _round10(problem.E_env),
            "g_cross": _round10(problem.g_cross),
            "e_correction": _round10(problem.E_correction),
            "e_nuc": _round10(problem.E_nuc),
            "e_classical": _round10(problem.classical_energy),
            "embedded_scf_iterations": result.scf_emb.n_iterations,
            "embedded_scf_trace": [_round10(e) for e in result.scf_emb.history],
            "e_same_level_embedded": e_same_level,
        },
        "resources": {
            "n_qubits_full": 2 * result.integrals.n_functions,
            "n_qubits_embedded": result.hamiltonian.n_qubits,
            "terms_full": None,
            "terms_embedded": result.hamiltonian.term_count(),
        },
        "energies": {
            "e_rhf": _round10(result.scf.E_total),
            "e_same_level_embedded": e_same_level,
        },
        "hamiltonian_file": str(ham_path),
    }
    if result.e_wf is not None:
        report["energies"]["e_wf_in_lowlevel"] = result.e_wf
    with _writing(ham_path):
        result.hamiltonian.dump(ham_path)
    written = [ham_path]
    try:
        with _writing(config.out), open(config.out, "w") as fh:
            written.append(config.out)
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    except InputError:
        # a failed embed leaves no output: neither the Hamiltonian nor a report cut short
        for path in written:
            os.remove(path)
        raise
    logging.getLogger(__name__).info("report written to %s; hamiltonian to %s", config.out, ham_path)
    return EXIT_OK


def _check_pair(mol: Molecule, i: int, j: int) -> None:
    if i == j or not (0 <= i < mol.n_atoms and 0 <= j < mol.n_atoms):
        raise InputError(f"invalid scan atom pair ({i}, {j})")


def displace_along_bond(mol: Molecule, i: int, j: int, r_bohr: float) -> Molecule:
    """Move atom j along the i->j axis to distance r; other atoms fixed."""
    _check_pair(mol, i, j)
    axis = mol.atoms[j].position - mol.atoms[i].position
    axis = axis / np.linalg.norm(axis)
    atoms = list(mol.atoms)
    atoms[j] = Atom(atoms[j].symbol, atoms[j].z, mol.atoms[i].position + r_bohr * axis)
    return Molecule(tuple(atoms), charge=mol.charge)


def _scan_point(config: RunConfig, base_mol: Molecule, pair: tuple[int, int], r_ang: float,
                gamma0: Optional[np.ndarray]) -> tuple[dict, Optional[np.ndarray]]:
    """One scan row, and the point's converged RHF density (None if the point failed)."""
    row = {"r_angstrom": r_ang, "r_bohr": r_ang * BOHR_PER_ANGSTROM}
    try:
        mol = _stage("geometry", displace_along_bond, base_mol, pair[0], pair[1], row["r_bohr"])
        result = run_embedding_pipeline(config, mol=mol, gamma0=gamma0)
        row["e_rhf"] = _round10(result.scf.E_total)
        row["e_embed"] = result.e_wf
        n_e = mol.n_electrons
        if fci_fits(result.integrals.n_functions, n_e // 2, n_e - n_e // 2):
            row["e_fci"] = _round10(_stage("fci", fci_oracle, mol, result.integrals, result.scf))
            if row["e_embed"] is not None:
                row["log10_error"] = _round10(
                    float(np.log10(max(abs(row["e_embed"] - row["e_fci"]), 1e-16)))
                )
        row["status"] = "ok"
    except QembedError as exc:
        row["status"] = f"error:{exc.stage}"
        row["message"] = str(exc)
        return row, None
    return row, result.scf.gamma


def _scan_slice(args) -> list[dict]:
    """The rows of a run of adjacent distances, in order.

    Each point's full RHF starts from the previous point's converged density,
    so the RHF follows one branch along the bond; the first point, and a
    point after a failed one, start from the core guess.
    """
    config, base_mol, pair, radii = args
    rows, gamma = [], None
    for r_ang in radii:
        row, gamma = _scan_point(config, base_mol, pair, r_ang, gamma)
        rows.append(row)
    return rows


@contextmanager
def _single_threaded_blas_children():
    """Set the BLAS thread variables to 1 in the environment that new processes inherit.

    Without it every scan worker starts a BLAS pool as wide as the machine, and
    --jobs N runs N such pools on the same cores. This process has loaded its
    BLAS already, so only the children see the change; it is undone on exit.
    """
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def cmd_scan(config: RunConfig, atoms: tuple[int, int], distances: list[float],
             jobs: int = 1) -> int:
    config.validate()
    for r in distances:
        if not math.isfinite(r):
            raise InputError(f"scan distances must be finite, got {r:g}")
    grid = sorted(set(round(r, 12) for r in distances))
    if len(grid) < 2:
        raise InputError("a scan needs at least two distances")
    if len(grid) > MAX_SCAN_POINTS:
        raise InputError(f"a scan holds at most {MAX_SCAN_POINTS} distances, got {len(grid)}")
    if grid[0] <= 0:
        raise InputError(f"scan distances must be positive, got {grid[0]:g}")
    if jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {jobs}")
    base_mol = _stage("geometry", load_xyz, config.geometry, charge=config.charge)
    # refuse a bad pair or active set before any point runs integrals and SCF
    _check_pair(base_mol, *atoms)
    _stage("partition", _check_active_atoms, base_mol.n_atoms, config.active_atoms)
    # a worker beyond the points or the usable CPUs adds only memory and contention
    workers = min(jobs, len(grid), _usable_cpus())
    # one contiguous slice of the grid per worker, so each seeds along its own slice
    cuts = [k * len(grid) // workers for k in range(workers + 1)]
    tasks = [(config, base_mol, atoms, grid[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    if workers > 1:
        # imported here, as a serial scan never uses them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawned workers import numpy afresh, so they load BLAS single-threaded
        # and start with this process's logging, so --verbose reaches them
        spawn = multiprocessing.get_context("spawn")
        level = logging.getLogger("qembed").getEffectiveLevel()
        with _single_threaded_blas_children(), ProcessPoolExecutor(
                workers, mp_context=spawn, initializer=_configure_logging, initargs=(level,)) as pool:
            slices = list(pool.map(_scan_slice, tasks))
    else:
        slices = list(map(_scan_slice, tasks))
    rows = [row for part in slices for row in part]
    log = logging.getLogger(__name__)
    failed = [row for row in rows if row["status"] != "ok"]
    for row in failed:
        log.warning("scan point r = %.10f Angstrom failed in stage %s: %s",
                    row["r_angstrom"], row["status"].removeprefix("error:"), row["message"])
    _write_scan_table(config.out, rows)
    log.log(logging.WARNING if failed else logging.INFO,
            "scan table written to %s (%d points, %d failed)", config.out, len(rows), len(failed))
    return EXIT_OK


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_scan_table(path: str, rows: list[dict]) -> None:
    cols = ["r_angstrom", "r_bohr", "e_rhf", "e_fci", "e_embed", "log10_error", "status"]

    def cell(val) -> str:
        return "n/a" if val is None else f"{val:.10f}" if isinstance(val, float) else str(val)

    with _writing(path), open(path, "w") as fh:
        fh.write("# " + "  ".join(cols) + "\n")
        fh.writelines("  ".join(cell(row.get(col)) for col in cols) + "\n" for row in rows)


def parse_distances(spec: str) -> list[float]:
    """Accept 'start:stop:step' ranges or comma-separated lists (Angstrom)."""
    is_range = ":" in spec
    try:
        values = [float(p) for p in spec.split(":" if is_range else ",") if p.strip()]
    except ValueError:
        raise InputError(f"could not parse distances {spec!r}") from None
    if not is_range:
        return values
    if len(values) != 3:
        raise InputError(f"distance range must be start:stop:step, got {spec!r}")
    start, stop, step = values
    # the step may not fall below the 1e-12 Angstrom that cmd_scan rounds to
    if not (math.isfinite(start) and math.isfinite(stop) and 1e-12 <= step < math.inf
            and start <= stop):
        raise InputError(f"bad distance range {spec!r}: start <= stop, both finite, "
                         "and a finite step of at least 1e-12")
    span = (stop - start) / step
    if not span < MAX_SCAN_POINTS:   # counted before any list is built
        raise InputError(f"distance range {spec!r} holds more than {MAX_SCAN_POINTS} points")
    n = int(round(span)) + 1
    return [start + k * step for k in range(n) if start + k * step <= stop + 1e-9]


def _parse_index_list(spec: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in spec.split(",") if p.strip())
    except ValueError:
        raise InputError(f"could not parse index list {spec!r}") from None


def _flag_type(parse):
    """`parse` as an argparse type: its InputError becomes an error that names the flag."""
    def convert(spec: str):
        try:
            return parse(spec)
        except InputError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


# a comment is a '#' at the start of a line or after whitespace, so a value may hold one
_COMMENT = re.compile(r"(?:^|\s)#")


def _config_flags(path: str) -> list[str]:
    """A config file's `key = value` lines as `--key=value` flags, without comments."""
    flags = []
    try:
        with open(path) as fh:
            for raw in fh:
                line = _COMMENT.split(raw, maxsplit=1)[0].strip()
                if not line:
                    continue
                key, eq, val = (part.strip() for part in line.partition("="))
                if not eq:
                    raise InputError(f"malformed config line {raw.rstrip()!r}")
                if key == "config":
                    raise InputError("a config file cannot name another config file")
                flags.append(f"--{key}={val}")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    return flags


class _Parser(argparse.ArgumentParser):
    """Raises InputError for a bad option, so it ends like any other configuration error."""

    def error(self, message):
        raise InputError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qembed",
        description="Projection-based embedding into qubit Hamiltonians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="file of key = value lines, keys as these flags; flags win")
        p.add_argument("--geometry", help="XYZ geometry file (Angstrom)")
        p.add_argument("--active", dest="active_atoms", type=_flag_type(_parse_index_list),
                       metavar="ACTIVE", help="comma-separated active atom indices (0-based)")
        p.add_argument("--localizer", choices=_CHOICES["localizer"])
        p.add_argument("--threshold", type=float,
                       help="population threshold for the population localizer")
        p.add_argument("--projector", choices=_CHOICES["projector"])
        p.add_argument("--mu", type=float, help="level-shift strength")
        p.add_argument("--solver", choices=_CHOICES["solver"])
        p.add_argument("--charge", type=int)
        p.add_argument("--out", help="output path")
        p.add_argument("--verbose", type=int, default=0,
                       help="1 logs progress, 2 also each SCF iteration")

    # no prefixes: a config key must be a whole flag name
    add_common(sub.add_parser("embed", help="single-point embedded calculation", allow_abbrev=False))

    p_scan = sub.add_parser("scan", help="bond-distance scan", allow_abbrev=False)
    add_common(p_scan)
    p_scan.add_argument("--atoms", type=_flag_type(_parse_index_list),
                        help="atom pair i,j; j is displaced along the bond")
    p_scan.add_argument("--distances", type=_flag_type(parse_distances),
                        help="list 'a,b,c' or range 'start:stop:step' (Angstrom)")
    p_scan.add_argument("--jobs", type=int, default=1,
                        help="worker processes, each scanning a contiguous slice of the distances")
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv; a --config file's flags go right after the subcommand, so explicit flags win."""
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.config:
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + _config_flags(args.config) + argv[at:])
    return args


def _run_config(args: argparse.Namespace) -> RunConfig:
    """RunConfig of the parsed flags; a flag left unset keeps the dataclass default."""
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig)
             if getattr(args, f.name) is not None}
    if "geometry" not in given or "active_atoms" not in given:
        raise InputError("a run needs --geometry and --active (flags or config file)")
    return RunConfig(**given)


_LOG_HANDLER = logging.StreamHandler()


def _configure_logging(level: int) -> None:
    """Set the qembed logger's level and give it one handler, on the current stderr."""
    logger = logging.getLogger("qembed")
    logger.setLevel(level)
    _LOG_HANDLER.stream = sys.stderr   # a caller may have redirected it since the last call
    if _LOG_HANDLER not in logger.handlers:
        logger.addHandler(_LOG_HANDLER)


# exit code and label of each failure; one raised in a stage is labelled with the stage instead
_EXITS = {
    ConvergenceError: (EXIT_CONVERGENCE, "convergence"),
    ProjectionError: (EXIT_PROJECTION, "projection"),
    QembedError: (EXIT_CONFIG, "config"),
}


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
        _configure_logging(logging.DEBUG if args.verbose >= 2
                           else logging.INFO if args.verbose == 1 else logging.WARNING)
        config = _run_config(args)
        if args.command == "embed":
            return cmd_embed(config)
        if args.atoms is None or args.distances is None:
            raise InputError("scan needs --atoms and --distances")
        if len(args.atoms) != 2:
            raise InputError(f"scan atom pair must have two indices, got {args.atoms}")
        return cmd_scan(config, args.atoms, args.distances, jobs=args.jobs)
    except QembedError as exc:
        code, label = next(value for kind, value in _EXITS.items() if isinstance(exc, kind))
        print(f"error [{exc.stage or label}] {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
