"""Print a SHA-256 digest of the sector-matrix arrays of three embedded Hamiltonians.

The sectors are the S_z = 0 sectors of water (`--active 0,1`), CH4
(`--active 0,1,2,3 --localizer population`) and methanol (`--active 1,5`),
at the unrotated geometries of `perfbench/workloads.py`. The digest covers
the dtype, shape and bytes of the upper-triangle COO arrays `rows`, `cols`
and `data`, so two source trees build bitwise-equal arrays exactly when their
outputs match:

    PYTHONPATH=<tree>/src python scripts/sector_matrix_digest.py > digests.txt

The `ch4` digest also depends on which basis `eigh` picks inside CH4's
degenerate embedded orbitals, and another BLAS or a harmless rounding
change can move that choice. So compare digests only between runs on one
machine with one BLAS, and take a changed `ch4` digest as a reason to look
at the energies, not as proof of a fault.

Methanol needs about 0.3 GB of memory; name sectors on the command line
(`water ch4`) to build only those.
"""

from __future__ import annotations

import hashlib
import sys
import time

from qembed.cli import RunConfig, run_embedding_pipeline
from qembed.molecule import parse_xyz
from qembed.solver import _assemble_sector_matrix, _sector_basis

SECTORS = {
    "water": ("O 0 0 0.1173\nH 0 0.7572 -0.4692\nH 0 -0.7572 -0.4692", (0, 1), "spade"),
    "ch4": ("C 0 0 0\nH 0.6276 0.6276 0.6276\nH 0.6276 -0.6276 -0.6276\n"
            "H -0.6276 0.6276 -0.6276\nH -0.6276 -0.6276 0.6276", (0, 1, 2, 3), "population"),
    "methanol": ("C -0.0466 0.6638 0.0\nO -0.0466 -0.7570 0.0\nH -1.0885 0.9752 0.0\n"
                 "H 0.4363 1.0798 0.8913\nH 0.4363 1.0798 -0.8913\nH 0.8444 -1.0925 0.0",
                 (1, 5), "spade"),
}


def main(names: list[str]) -> None:
    for name in names or SECTORS:
        atoms, active, localizer = SECTORS[name]
        mol = parse_xyz(f"{atoms.count(chr(10)) + 1}\n{name}\n{atoms}")
        config = RunConfig(geometry=name, active_atoms=active, localizer=localizer, solver="none")
        result = run_embedding_pipeline(config, mol=mol)
        ham = result.hamiltonian
        alphas, betas = _sector_basis(ham.n_qubits, result.problem.n_act_electrons, 0.0)
        start = time.perf_counter()
        arrays = _assemble_sector_matrix(ham, alphas, betas)
        seconds = time.perf_counter() - start
        digest = hashlib.sha256()
        for array in arrays:
            digest.update(f"{array.dtype} {array.shape}".encode())
            digest.update(array.tobytes())
        print(f"{name} states={len(alphas) * len(betas)} entries={len(arrays[0])} "
              f"sha256={digest.hexdigest()}", flush=True)
        print(f"{name} assembly {seconds * 1e3:.1f} ms", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
