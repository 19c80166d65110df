import functools
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import sector_matrix
from hypothesis import strategies as st

import qembed
from qembed.cli import (
    EXIT_CONFIG,
    EXIT_CONVERGENCE,
    EXIT_PROJECTION,
    RunConfig,
    cmd_embed,
    cmd_scan,
    _parse_index_list,
    displace_along_bond,
    main,
    parse_distances,
    run_embedding_pipeline,
)
from qembed.embedding import same_level_energy
from qembed.exceptions import ConvergenceError, InputError
from qembed.molecule import Atom, Molecule, parse_xyz
from qembed.solver import _sector_basis, ground_state

WATER_XYZ = """3
water
O  0.0000000  0.0000000  0.1173000
H  0.0000000  0.7572000 -0.4692000
H  0.0000000 -0.7572000 -0.4692000
"""

H2_XYZ = "2\nhydrogen\nH 0 0 0\nH 0 0 0.7414\n"

CH4_XYZ = """5
methane
C 0 0 0
H 0.6276 0.6276 0.6276
H 0.6276 -0.6276 -0.6276
H -0.6276 0.6276 -0.6276
H -0.6276 -0.6276 0.6276
"""


@pytest.fixture
def water_file(tmp_path):
    path = tmp_path / "water.xyz"
    path.write_text(WATER_XYZ)
    return str(path)


@pytest.fixture
def h2_file(tmp_path):
    path = tmp_path / "h2.xyz"
    path.write_text(H2_XYZ)
    return str(path)


@pytest.fixture(autouse=True)
def restore_qembed_logger():
    # main sets the qembed logger from --verbose; keep a DEBUG level from leaking
    # into other tests, which would log to a capture stream that has been closed
    logger = logging.getLogger("qembed")
    level, handlers = logger.level, list(logger.handlers)
    yield
    logger.setLevel(level)
    logger.handlers[:] = handlers


@pytest.fixture
def commands(monkeypatch):
    """Replace cmd_embed and cmd_scan by recorders of what main passes them."""
    import qembed.cli as cli

    calls = []

    def embed(config):
        calls.append({"config": config, "log_level": logging.getLogger("qembed").level})
        return 0

    def scan(config, atoms, distances, jobs=1):
        calls.append({"config": config, "atoms": atoms, "distances": distances, "jobs": jobs})
        return 0

    monkeypatch.setattr(cli, "cmd_embed", embed)
    monkeypatch.setattr(cli, "cmd_scan", scan)
    return calls


def test_parse_distances_range():
    assert parse_distances("0.5:1.0:0.25") == pytest.approx([0.5, 0.75, 1.0])


def test_parse_distances_list():
    assert parse_distances("2.0,1.0,1.5") == pytest.approx([2.0, 1.0, 1.5])


def test_parse_distances_rejects_garbage():
    with pytest.raises(InputError):
        parse_distances("1.0:2.0")
    with pytest.raises(InputError):
        parse_distances("abc")
    with pytest.raises(InputError, match="could not parse distances '1:2:x'"):
        parse_distances("1:2:x")


def test_displace_along_bond():
    mol = parse_xyz(H2_XYZ)
    moved = displace_along_bond(mol, 0, 1, 3.0)
    assert np.linalg.norm(moved.atoms[1].position - moved.atoms[0].position) == (
        pytest.approx(3.0)
    )


def test_displace_rejects_bad_pair():
    mol = parse_xyz(H2_XYZ)
    with pytest.raises(InputError, match="atom pair"):
        displace_along_bond(mol, 0, 0, 2.0)
    with pytest.raises(InputError, match="atom pair"):
        displace_along_bond(mol, 0, 5, 2.0)


def test_embed_water_report(tmp_path, water_file):
    out = tmp_path / "report.json"
    config = RunConfig(geometry=water_file, active_atoms=(0, 1), out=str(out))
    assert cmd_embed(config) == 0
    report = json.loads(out.read_text())
    assert report["resources"]["n_qubits_full"] == 14
    assert report["resources"]["n_qubits_embedded"] == 12
    assert report["partition"]["n_active_mos"] == 4
    assert report["partition"]["n_env_mos"] == 1
    # only the embedded Hamiltonian is mapped; the full count comes from K
    assert report["resources"]["terms_full"] is None
    assert report["resources"]["n_qubits_full"] == 2 * report["molecule"]["n_ao"]
    # same-level check sits on top of the full mean-field energy
    assert report["embedding"]["e_same_level_embedded"] == pytest.approx(
        report["scf"]["e_rhf_total"], abs=1e-8
    )
    ham = json.loads((tmp_path / "report.hamiltonian.json").read_text())
    assert ham["n_qubits"] == 12
    assert len(ham["terms"]) == report["resources"]["terms_embedded"] - 1


def test_embed_builds_words_only_for_the_dump(tmp_path, water_file, monkeypatch):
    # the Hamiltonian is held as (x, z, coeff) arrays: the JSON dump is the one
    # place that spells out Pauli words, and the solver never parses them
    import qembed.cli
    import qembed.qubits
    import qembed.solver

    build, solve = qembed.qubits._word_bytes, qembed.cli.ground_state
    built, solved = [], []

    def counted_words(*args):
        built.append(args)
        return build(*args)

    def recorded_solve(ham, **kwargs):
        solved.append((ham, kwargs, solve(ham, **kwargs)))
        return solved[-1][2]

    monkeypatch.setattr(qembed.qubits, "_word_bytes", counted_words)
    monkeypatch.setattr(qembed.cli, "ground_state", recorded_solve)
    config = RunConfig(geometry=water_file, active_atoms=(0, 1), solver="exact",
                       out=str(tmp_path / "report.json"))
    assert cmd_embed(config) == 0
    assert len(built) == 1

    def refuse(*args):
        raise AssertionError("Pauli words parsed")

    monkeypatch.setattr(qembed.qubits, "pauli_masks", refuse)
    # and any name for it that the solver module may bind
    monkeypatch.setattr(qembed.solver, "pauli_masks", refuse, raising=False)
    (ham, kwargs, gs), = solved
    assert solve(ham, **kwargs) == gs


def test_report_self_consistency(tmp_path, water_file):
    out = tmp_path / "r.json"
    config = RunConfig(geometry=water_file, active_atoms=(0, 2), out=str(out))
    cmd_embed(config)
    emb = json.loads(out.read_text())["embedding"]
    total = emb["e_env"] + emb["g_cross"] - emb["e_correction"] + emb["e_nuc"]
    assert emb["e_classical"] == pytest.approx(total, abs=1e-9)


def test_embed_solver_none_skips_wf_energy(tmp_path, water_file):
    out = tmp_path / "r.json"
    config = RunConfig(
        geometry=water_file, active_atoms=(0, 1), solver="none", out=str(out)
    )
    cmd_embed(config)
    report = json.loads(out.read_text())
    assert "e_wf_in_lowlevel" not in report["energies"]
    assert (tmp_path / "r.hamiltonian.json").exists()


def test_embed_deterministic(tmp_path, water_file):
    out = tmp_path / "report.json"
    ham = tmp_path / "report.hamiltonian.json"
    snapshots = []
    for _ in range(2):
        config = RunConfig(geometry=water_file, active_atoms=(0, 1), out=str(out))
        cmd_embed(config)
        snapshots.append((out.read_bytes(), ham.read_bytes()))
        out.unlink()
        ham.unlink()
    assert snapshots[0] == snapshots[1]


def test_invalid_active_index_exit_code(water_file, tmp_path, capsys):
    code = main([
        "embed", "--geometry", water_file, "--active", "7",
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == EXIT_CONFIG
    assert "partition" in capsys.readouterr().err


def test_oversized_sector_exit_code(water_file, tmp_path, monkeypatch, capsys):
    import qembed.solver

    monkeypatch.setattr(qembed.solver, "MAX_SECTOR_BYTES", 1000)
    code = main([
        "embed", "--geometry", water_file, "--active", "0,1", "--solver", "exact",
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == EXIT_CONFIG
    assert "MB limit" in capsys.readouterr().err


def test_population_localizer_path(tmp_path, water_file):
    out = tmp_path / "r.json"
    config = RunConfig(
        geometry=water_file, active_atoms=(0, 1), localizer="population",
        threshold=0.95, out=str(out),
    )
    cmd_embed(config)
    report = json.loads(out.read_text())
    assert report["partition"]["localizer"] == "population"
    assert report["partition"]["n_active_mos"] == 4


def test_mu_projector_path(tmp_path, water_file):
    out = tmp_path / "r.json"
    config = RunConfig(
        geometry=water_file, active_atoms=(0, 1), projector="mu", mu=1e6,
        solver="none", out=str(out),
    )
    cmd_embed(config)
    report = json.loads(out.read_text())
    assert report["embedding"]["projector"] == "mu"
    assert report["embedding"]["e_same_level_embedded"] == pytest.approx(
        report["scf"]["e_rhf_total"], abs=1e-5
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mu_projector_rotated_methane(tmp_path, seed):
    # mu = 1e6 scales round-off in the embedded h; unless it is symmetrized the
    # Jordan-Wigner map sees an imaginary part above its tolerance in most orientations
    from conftest import XYZ

    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    q = q * np.linalg.det(q)   # det is +-1; a 3x3 sign flip makes the rotation proper
    shift = rng.uniform(-3.0, 3.0, size=3)
    lines = XYZ["ch4"].splitlines()
    for n, (sym, *pos) in enumerate(line.split() for line in lines[2:]):
        lines[n + 2] = sym + "".join(f" {x:.12f}" for x in q @ np.array(pos, float) + shift)
    geometry = tmp_path / "ch4.xyz"
    geometry.write_text("\n".join(lines) + "\n")
    out = tmp_path / "r.json"
    code = main(["embed", "--geometry", str(geometry), "--active", "0,1", "--projector", "mu",
                 "--solver", "none", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["embedding"]["e_same_level_embedded"] == pytest.approx(
        report["scf"]["e_rhf_total"], abs=1e-5
    )


# (system, active atoms, localizer): water O,H and NH3 N,H on SPADE, CH4 on the population route
INVARIANCE_CASES = [("water", (0, 1), "spade"), ("nh3", (0, 1), "spade"),
                    ("ch4", (0, 1, 2, 3), "population")]


def _invariants(mol, active, localizer, spectrum):
    """RHF, same-level and unrounded embedded energies, plus the sorted sector spectrum."""
    config = RunConfig(geometry="", active_atoms=active, localizer=localizer, solver="none")
    result = run_embedding_pipeline(config, mol=mol)
    ham, n_el = result.hamiltonian, result.problem.n_act_electrons
    energies = [result.scf.E_total,
                same_level_energy(result.problem, result.scf_emb.gamma, result.integrals),
                ground_state(ham, n_electrons=n_el, s_z=0)]
    if spectrum:
        energies.extend(np.linalg.eigvalsh(sector_matrix(ham, *_sector_basis(ham.n_qubits, n_el, 0.0))))
    return np.array(energies)


@functools.lru_cache(maxsize=None)
def _reference_invariants(name, active, localizer):
    from conftest import get_system

    return _invariants(get_system(name).mol, active, localizer, name == "water")


@pytest.mark.parametrize("name, active, localizer", INVARIANCE_CASES)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_energies_invariant_under_rigid_motion_and_atom_order(name, active, localizer, seed):
    from conftest import get_system

    mol = get_system(name).mol
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    q = q * np.linalg.det(q)   # det is +-1; a 3x3 sign flip makes the rotation proper
    shift = rng.uniform(-3.0, 3.0, size=3)
    perm = rng.permutation(mol.n_atoms)   # atom k of the moved molecule is atom perm[k]
    moved = Molecule(tuple(Atom(mol.atoms[i].symbol, mol.atoms[i].z,
                                q @ mol.atoms[i].position + shift) for i in perm))
    moved_active = tuple(sorted(int(np.flatnonzero(perm == a)[0]) for a in active))
    spectrum = name == "water"   # its (6, 0) sector holds 225 states
    got = _invariants(moved, moved_active, localizer, spectrum)
    assert len(got) == (3 + 225 if spectrum else 3)
    np.testing.assert_allclose(got, _reference_invariants(name, active, localizer),
                               rtol=0, atol=1e-9)


def test_config_file_with_flag_override(tmp_path, water_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"geometry = {water_file}\n"
        "active = 0,1\n"
        "projector = mu   # overridden below\n"
        "solver = none\n"
    )
    out = tmp_path / "r.json"
    code = main(["embed", "--config", str(cfg), "--projector", "huzinaga",
                 "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["embedding"]["projector"] == "huzinaga"


def test_unknown_config_key_rejected(tmp_path, water_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("geometry = x\nwibble = 3\n")
    assert main(["embed", "--config", str(cfg)]) == EXIT_CONFIG


def test_missing_geometry_rejected(tmp_path):
    assert main(["embed", "--active", "0", "--out", str(tmp_path / "r")]) == EXIT_CONFIG


@pytest.mark.parametrize("content", [None, b"\xff\xfe not text"], ids=["absent", "not_utf8"])
@pytest.mark.parametrize("command", ["embed", "scan"])
def test_unreadable_geometry_file_is_a_geometry_error(tmp_path, command, content, capsys):
    geometry = tmp_path / "mol.xyz"
    if content is not None:
        geometry.write_bytes(content)
    argv = [command, "--geometry", str(geometry), "--active", "0", "--out", str(tmp_path / "out")]
    if command == "scan":
        argv += ["--atoms", "0,1", "--distances", "1.0,2.0"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error [geometry] cannot read geometry file {geometry}: ")


def test_config_file_that_is_not_text_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xff\xfe not text")
    assert main(["embed", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error [config] cannot read config file {cfg}: ")


@pytest.mark.parametrize("flag", ["--active", "--atoms"])
def test_bad_index_list_names_its_flag(water_file, commands, capsys, flag):
    argv = ["scan", "--geometry", water_file, "--active", "0", "--atoms", "0,1",
            "--distances", "1.0,2.0", flag, "0,x"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"error [config] argument {flag}: could not parse index list '0,x'")
    assert commands == []
    with pytest.raises(InputError, match="could not parse index list"):
        _parse_index_list("0,x")


def test_scan_h2_table(tmp_path, h2_file):
    out = tmp_path / "scan.txt"
    config = RunConfig(geometry=h2_file, active_atoms=(0,), out=str(out))
    code = cmd_scan(config, (0, 1), [1.5, 0.5, 1.0, 1.0])
    assert code == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert len(lines) == 3  # deduplicated
    rs = [float(ln.split()[0]) for ln in lines]
    assert rs == sorted(rs)
    # whole-molecule active: embedded energy is the exact one
    for ln in lines:
        cells = ln.split()
        assert cells[-1] == "ok"
        assert float(cells[4]) == pytest.approx(float(cells[3]), abs=1e-9)


# the README scan (water, active O and H2, 0.8:3.0:0.2 A) as r: (e_rhf, e_fci, e_embed).
# Each point's RHF starts from the previous point's density, so the whole scan stays on
# the lowest RHF branch, and every value is stored, beyond 2.0 A too
README_SCAN = {
    0.8: (-74.9045617225, -74.9455074087, -74.9211883124),
    1.0: (-74.9637335186, -75.0160923405, -74.9905304243),
    1.2: (-74.9264218808, -74.9956798574, -74.9694221923),
    1.4: (-74.8607545031, -74.9539183553, -74.9277694063),
    1.6: (-74.7908671019, -74.9153505301, -74.8900038713),
    1.8: (-74.7257165326, -74.8872945624, -74.8630185408),
    2.0: (-74.6694986962, -74.8700081228, -74.8466819831),
    2.2: (-74.6236040505, -74.8605768614, -74.8379275065),
    2.4: (-74.5874063756, -74.8557971673, -74.8335708277),
    2.6: (-74.5593999350, -74.8534764083, -74.8314926000),
    2.8: (-74.5379617729, -74.8523855790, -74.8305319553),
    3.0: (-74.5216312867, -74.8518888516, -74.8301012463),
}


def readme_scan(tmp_path, water_file, jobs=1) -> str:
    """The README scan's table, with `jobs` workers."""
    out = tmp_path / f"scan{jobs}.txt"
    config = RunConfig(geometry=water_file, active_atoms=(0, 2), out=str(out))
    assert cmd_scan(config, (0, 2), parse_distances("0.8:3.0:0.2"), jobs=jobs) == 0
    return out.read_text()


def test_readme_water_scan_regression(tmp_path, water_file):
    rows = [ln.split() for ln in readme_scan(tmp_path, water_file).splitlines()
            if not ln.startswith("#")]
    assert [row[-1] for row in rows] == ["ok"] * 12
    assert [float(row[0]) for row in rows] == pytest.approx(list(README_SCAN))
    for row, stored in zip(rows, README_SCAN.values()):
        for value, expected in zip((row[2], row[3], row[4]), stored):
            assert float(value) == pytest.approx(expected, abs=1e-9)
    # past the minimum the RHF energy rises at every step: no point is on an upper branch
    # that a later point leaves
    e_rhf = [float(row[2]) for row in rows[1:]]
    assert all(a < b for a, b in zip(e_rhf, e_rhf[1:]))


@pytest.fixture
def in_process_pool(monkeypatch):
    """Make the scan's process pool run map here; returns the worker counts it is made with."""
    import concurrent.futures

    made = []

    class InProcessPool:
        def __init__(self, max_workers, **kwargs):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return made


def test_readme_water_scan_in_two_slices_matches_serial(tmp_path, water_file, monkeypatch,
                                                        in_process_pool):
    # each worker seeds along its own half of the grid, and its first point starts cold
    import qembed.cli as cli

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    serial = readme_scan(tmp_path, water_file)
    assert in_process_pool == []
    assert readme_scan(tmp_path, water_file, jobs=2) == serial
    assert in_process_pool == [2]


def test_point_after_a_failed_one_starts_cold(tmp_path, h2_file, monkeypatch):
    import qembed.cli as cli

    run_rhf, starts, results = cli.run_rhf, [], []

    def second_rhf_fails(mol, integrals, gamma0=None):
        starts.append(gamma0)
        if len(starts) == 2:
            raise ConvergenceError("no")
        results.append(run_rhf(mol, integrals, gamma0=gamma0))
        return results[-1]

    monkeypatch.setattr(cli, "run_rhf", second_rhf_fails)
    out = tmp_path / "scan.txt"
    config = RunConfig(geometry=h2_file, active_atoms=(0,), out=str(out))
    assert cmd_scan(config, (0, 1), [0.6, 0.9, 1.2, 1.5]) == 0
    rows = [ln.split() for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert [row[-1] for row in rows] == ["ok", "error:scf", "ok", "ok"]
    # the failed point started from the first point's density, the one after it
    # from the core guess, and the last from the third point's density
    assert starts[0] is None and starts[1] is results[0].gamma
    assert starts[2] is None and starts[3] is results[1].gamma


def test_scan_single_minimum_h2(tmp_path, h2_file):
    out = tmp_path / "scan.txt"
    config = RunConfig(geometry=h2_file, active_atoms=(0,), out=str(out))
    cmd_scan(config, (0, 1), [0.5, 0.8, 1.1, 1.4, 1.7, 2.0])
    rows = [
        ln.split() for ln in out.read_text().splitlines() if not ln.startswith("#")
    ]
    e_fci = [float(r[3]) for r in rows]
    assert min(e_fci) > -1.2
    drops = [e_fci[i + 1] < e_fci[i] for i in range(len(e_fci) - 1)]
    # single minimum: the sequence decreases then increases
    assert drops.count(True) >= 1
    assert drops == sorted(drops, reverse=True)


def test_scan_requires_two_distances(tmp_path, h2_file):
    config = RunConfig(geometry=h2_file, active_atoms=(0,), out=str(tmp_path / "s"))
    # distances are counted after de-duplication
    for distances in ([1.0], [0.8, 0.8]):
        with pytest.raises(InputError, match="two distances"):
            cmd_scan(config, (0, 1), distances)


def test_scan_records_per_point_failures(tmp_path, h2_file):
    out = tmp_path / "scan.txt"
    config = RunConfig(geometry=h2_file, active_atoms=(0,), out=str(out))
    # 1e-8 Angstrom produces coincident nuclei; the point must fail without
    # killing the rest of the scan
    code = cmd_scan(config, (0, 1), [0.74, 1e-8])
    assert code == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert len(lines) == 2
    by_r = sorted(lines, key=lambda ln: float(ln.split()[0]))
    assert by_r[0].split()[-1].startswith("error")
    assert by_r[1].split()[-1] == "ok"


@pytest.mark.parametrize("key, value, label", [
    ("atoms", "0,0", "config"), ("atoms", "0,7", "config"),
    ("active", "0,9", "partition"), ("active", "0,1,2", "partition"),
    ("distances", "-0.9,0.9", "config"), ("distances", "0,0.9", "config"),
    ("distances", "0.8,nan", "config"), ("distances", "0.8,inf", "config"),
    ("distances", "0.8:inf:0.2", "config"), ("distances", "0.8:3.0:1e-300", "config"),
    ("atoms", "0,1,2", "config"),
])
@pytest.mark.parametrize("source", ["file", "flag"])
def test_scan_refuses_bad_atoms_before_any_point(tmp_path, water_file, monkeypatch, capsys,
                                                 key, value, label, source):
    import qembed.cli as cli

    def point_ran(*args, **kwargs):
        raise AssertionError("a scan point ran")

    monkeypatch.setattr(cli, "compute_integrals", point_ran)
    out = tmp_path / "scan.txt"
    settings = {"geometry": water_file, "active": "0,2", "atoms": "0,2",
                "distances": "0.8,1.0", key: value}
    if source == "file":
        text = "".join(f"{k} = {v}\n" for k, v in settings.items())
        argv = ["scan", "--config", _write_config(tmp_path, text)]
    else:
        argv = ["scan", *(f"--{k}={v}" for k, v in settings.items())]
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error [{label}] ")
    assert not out.exists()


@pytest.mark.parametrize("mu", ["0", "-1", "nan", "inf"])
def test_embed_refuses_bad_mu_before_integrals(tmp_path, water_file, monkeypatch, capsys, mu):
    import qembed.cli as cli

    def integrals_ran(*args, **kwargs):
        raise AssertionError("integrals ran")

    monkeypatch.setattr(cli, "compute_integrals", integrals_ran)
    out = tmp_path / "report.json"
    assert main(["embed", "--geometry", water_file, "--active", "0", "--projector", "mu",
                 f"--mu={mu}", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error [config] mu must be positive")
    assert not out.exists()


def test_scan_point_bound():
    # a range is refused before its points are made, a list of distances at the scan
    with pytest.raises(InputError, match="more than 10000 points"):
        parse_distances("0:1e300:1e-12")
    with pytest.raises(InputError, match="more than 10000 points"):
        parse_distances("0.1:2000.1:0.2")
    assert len(parse_distances("0.1:2000.0:0.2")) == 10_000
    config = RunConfig(geometry="never-read.xyz", active_atoms=(0,))
    with pytest.raises(InputError, match="at most 10000 distances, got 10001"):
        cmd_scan(config, (0, 1), [0.5 + 1e-3 * k for k in range(10_001)])


@pytest.mark.parametrize("active", ["0,9", "0,1,2"])
@pytest.mark.parametrize("source", ["file", "flag"])
def test_embed_refuses_bad_active_atoms_before_integrals(tmp_path, water_file, monkeypatch,
                                                         capsys, active, source):
    import qembed.cli as cli

    def integrals_ran(*args, **kwargs):
        raise AssertionError("integrals ran")

    monkeypatch.setattr(cli, "compute_integrals", integrals_ran)
    out = tmp_path / "report.json"
    if source == "file":
        argv = ["embed", "--config",
                _write_config(tmp_path, f"geometry = {water_file}\nactive = {active}\n")]
    else:
        argv = ["embed", "--geometry", water_file, "--active", active]
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error [partition] ")
    assert list(tmp_path.iterdir()) == [tmp_path / "water.xyz"] + (
        [tmp_path / "run.cfg"] if source == "file" else [])


def _out_argv(command, water_file):
    argv = [command, "--geometry", water_file, "--active", "0,2", "--solver", "none"]
    return argv + (["--atoms", "0,2", "--distances", "0.9,1.0"] if command == "scan" else [])


@pytest.mark.parametrize("command", ["embed", "scan"])
def test_out_in_a_missing_directory_refused_before_integrals(tmp_path, water_file, monkeypatch,
                                                             capsys, command):
    import qembed.cli as cli

    def integrals_ran(*args, **kwargs):
        raise AssertionError("integrals ran")

    monkeypatch.setattr(cli, "compute_integrals", integrals_ran)
    out = tmp_path / "nodir" / "out.json"
    assert main(_out_argv(command, water_file) + ["--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error [config] ") and str(tmp_path / "nodir") in err
    assert list(tmp_path.iterdir()) == [tmp_path / "water.xyz"]


@pytest.mark.parametrize("command, blocked", [
    ("embed", "out.json"),
    ("embed", "out.hamiltonian.json"),
    ("scan", "out.json"),
])
def test_unwritable_out_is_a_config_error_that_names_it(tmp_path, water_file, monkeypatch,
                                                        capsys, command, blocked):
    # a directory where the file should be is refused before any integral
    import qembed.cli as cli

    def integrals_ran(*args, **kwargs):
        raise AssertionError("integrals ran")

    monkeypatch.setattr(cli, "compute_integrals", integrals_ran)
    (tmp_path / blocked).mkdir()
    argv = _out_argv(command, water_file) + ["--out", str(tmp_path / "out.json")]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"error [config] cannot write {tmp_path / blocked}: "
                                       "it is a directory\n")
    assert sorted(tmp_path.iterdir()) == sorted([tmp_path / "water.xyz", tmp_path / blocked])
    assert not any((tmp_path / blocked).iterdir())


def test_failed_report_write_leaves_no_output(tmp_path, water_file, monkeypatch, capsys):
    # the report fails after the Hamiltonian file was written: both are removed
    import qembed.cli as cli

    out = tmp_path / "out.json"

    def disk_full(*args, **kwargs):
        assert (tmp_path / "out.hamiltonian.json").is_file()
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.json, "dump", disk_full)
    assert main(_out_argv("embed", water_file) + ["--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"error [config] cannot write {out}: "
                                       "No space left on device\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "water.xyz"]


def test_failed_scan_row_names_the_fci_stage(tmp_path, h2_file, monkeypatch, capsys):
    import qembed.cli as cli

    def no_convergence(*args):
        raise ConvergenceError("oracle did not converge")

    monkeypatch.setattr(cli, "fci_oracle", no_convergence)
    out = tmp_path / "scan.txt"
    assert main(["scan", "--geometry", h2_file, "--active", "0", "--atoms", "0,1",
                 "--distances", "0.7,0.9", "--out", str(out)]) == 0
    rows = [ln.split() for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert [row[-1] for row in rows] == ["error:fci"] * 2
    # each failed point's stage and cause is logged, not only the table's status
    err = capsys.readouterr().err
    for r in ("0.7000000000", "0.9000000000"):
        assert (f"scan point r = {r} Angstrom failed in stage fci: oracle did not converge\n"
                in err)


def test_progress_goes_to_the_log_not_stdout(tmp_path, h2_file, water_file, capsys):
    report, table = tmp_path / "r.json", tmp_path / "scan.txt"
    embed = ["embed", "--geometry", water_file, "--active", "0,1", "--solver", "none",
             "--out", str(report)]
    scan = ["scan", "--geometry", h2_file, "--active", "0", "--atoms", "0,1",
            "--distances", "0.7,0.9", "--out", str(table)]
    assert main(embed) == 0 and main(scan) == 0
    assert capsys.readouterr() == ("", "")
    assert main(embed + ["--verbose", "1"]) == 0 and main(scan + ["--verbose", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"report written to {report}; hamiltonian to " in captured.err
    assert f"scan table written to {table} (2 points, 0 failed)" in captured.err
    assert "scf iter" not in captured.err


def test_scan_with_a_failed_point_warns_without_verbose(tmp_path, h2_file, capsys):
    out = tmp_path / "scan.txt"
    # 1e-8 Angstrom puts both nuclei on one point
    assert main(["scan", "--geometry", h2_file, "--active", "0", "--atoms", "0,1",
                 "--distances", "0.74,1e-8", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("scan point r = 0.0000000100 Angstrom failed in stage geometry: "
                            "atoms 0 and 1 are coincident (r = 1.89e-08 Bohr)\n"
                            f"scan table written to {out} (2 points, 1 failed)\n")


def test_exit_code_mapping(monkeypatch, tmp_path, water_file, capsys):
    import qembed.cli as cli

    def no_convergence(*args, **kwargs):
        raise ConvergenceError("no")

    argv = ["embed", "--geometry", water_file, "--active", "0,1", "--solver", "none",
            "--out", str(tmp_path / "r.json")]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "run_rhf", no_convergence)
        assert main(argv) == EXIT_CONVERGENCE
    assert capsys.readouterr().err == "error [scf] no\n"
    # a level shift of 1e-3 Ha leaves an environment orbital occupied: a real projection failure
    assert main(argv + ["--projector", "mu", "--mu", "1e-3"]) == EXIT_PROJECTION
    assert capsys.readouterr().err == ("error [embedding] occupied embedded orbital keeps "
                                       "environment population 5.297e-01\n")
    # a convergence failure outside the SCF keeps exit 3 and names its own stage
    with monkeypatch.context() as patch:
        patch.setattr(qembed.localize, "PM_MAX_SWEEPS", 1)
        assert main(argv + ["--localizer", "population"]) == EXIT_CONVERGENCE
    assert capsys.readouterr().err == ("error [partition] orbital localization not "
                                       "converged in 1 sweeps\n")
    assert list(tmp_path.iterdir()) == [Path(water_file)]


def test_scan_parallel_matches_serial(tmp_path, h2_file, monkeypatch):
    import qembed.cli as cli

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    outs = []
    for jobs, name in ((1, "serial.txt"), (2, "parallel.txt")):
        out = tmp_path / name
        config = RunConfig(geometry=h2_file, active_atoms=(0,), out=str(out))
        cmd_scan(config, (0, 1), [0.6, 0.9, 1.2], jobs=jobs)
        outs.append(out.read_text())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("cpus, n_points, workers", [(2, 3, 2), (16, 2, 2), (1, 3, None)])
def test_scan_workers_capped_by_points_and_cpus(tmp_path, h2_file, monkeypatch, in_process_pool,
                                                cpus, n_points, workers):
    import qembed.cli as cli

    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    config = RunConfig(geometry=h2_file, active_atoms=(0,), solver="none",
                       out=str(tmp_path / "scan.txt"))
    distances = [0.6, 0.9, 1.2][:n_points]
    assert cmd_scan(config, (0, 1), distances, jobs=8) == 0
    assert in_process_pool == ([] if workers is None else [workers])


def test_scan_worker_environment_is_single_threaded_and_restored(monkeypatch):
    import os

    from qembed.cli import _single_threaded_blas_children

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    with _single_threaded_blas_children():
        assert os.environ["OPENBLAS_NUM_THREADS"] == os.environ["OMP_NUM_THREADS"] == "1"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "7"
    assert "OMP_NUM_THREADS" not in os.environ


def test_run_config_takes_the_dataclass_defaults(water_file, commands):
    assert main(["embed", "--geometry", water_file, "--active", "0"]) == 0
    assert [call["config"] for call in commands] == [RunConfig(water_file, (0,))]


def test_scan_point_builds_one_qubit_map(tmp_path, h2_file, monkeypatch):
    import qembed.cli as cli

    calls = []
    original = cli.jordan_wigner

    def counting(ops, n_qubits):
        calls.append(n_qubits)
        return original(ops, n_qubits)

    monkeypatch.setattr(cli, "jordan_wigner", counting)
    config = RunConfig(geometry=h2_file, active_atoms=(0,), out=str(tmp_path / "scan.txt"))
    assert cmd_scan(config, (0, 1), [0.6, 0.9, 1.2]) == 0
    assert len(calls) == 3
    # embed runs the same pipeline as a scan point: one map, the embedded one
    calls.clear()
    assert cmd_embed(RunConfig(geometry=h2_file, active_atoms=(0,),
                               out=str(tmp_path / "r.json"))) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["embed", "scan"])
def test_scan_is_not_bound_by_the_full_map_limit(tmp_path, water_file, monkeypatch, command):
    # active O and H2 map to 12 qubits; the whole molecule would need 14
    import qembed.qubits

    monkeypatch.setattr(qembed.qubits, "MAX_JW_QUBITS", 12)
    out = tmp_path / "out"
    config = RunConfig(geometry=water_file, active_atoms=(0, 2), out=str(out))
    if command == "embed":
        assert cmd_embed(config) == 0
        assert json.loads(out.read_text())["resources"]["n_qubits_embedded"] == 12
        return
    assert cmd_scan(config, (0, 2), [0.9, 1.0, 1.1]) == 0
    rows = [ln.split() for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert [row[-1] for row in rows] == ["ok"] * 3


def test_embed_maps_a_molecule_over_32_aos(tmp_path):
    # n-pentane, K = 37: its full map would need 74 qubits, over the 64 of a mask
    from conftest import XYZ

    geometry, out = tmp_path / "pentane.xyz", tmp_path / "r.json"
    geometry.write_text(XYZ["pentane"])
    assert main(["embed", "--geometry", str(geometry), "--active", "0,5,6,7",
                 "--solver", "none", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["resources"]["n_qubits_full"] == 74
    assert report["resources"]["n_qubits_embedded"] == 42
    energies = report["energies"]
    assert abs(energies["e_same_level_embedded"] - energies["e_rhf"]) <= 1e-8


def test_butane_one_h_embedding_solves_exactly(tmp_path, capsys):
    # n-butane (K = 30) with one methyl H active: 28 qubits, 1 + 1 electrons in 14
    # kept orbitals, 196 states; the determinant oracle solves the same embedding
    from conftest import XYZ
    from qembed.embedding import drop_environment_orbitals
    from qembed.solver import fci_energy

    geometry, out = tmp_path / "butane.xyz", tmp_path / "r.json"
    geometry.write_text(XYZ["butane"])
    assert main(["embed", "--geometry", str(geometry), "--active", "4", "--solver", "exact",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["resources"]["n_qubits_embedded"] == 28
    e_wf = report["energies"]["e_wf_in_lowlevel"]
    assert e_wf == pytest.approx(-155.4795937070, abs=1e-10)
    result = run_embedding_pipeline(RunConfig(str(geometry), (4,), solver="none"))
    c_red = drop_environment_orbitals(result.scf_emb, result.partition,
                                      result.integrals.S)
    assert (c_red.shape[1], result.problem.n_act_electrons) == (14, 2)
    e_fci = fci_energy(result.problem.h_emb, result.integrals.eri, c_red, 1, 1)
    assert e_fci + result.problem.classical_energy == pytest.approx(e_wf, abs=1e-10)
    # one carbon active instead: 36 qubits, 73,410,624 states, refused as too large
    assert main(["embed", "--geometry", str(geometry), "--active", "0", "--solver", "exact",
                 "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error [solver] sector of dimension 73410624 ")


def _write_config(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return str(cfg)


@pytest.mark.parametrize("command, key, in_file, on_flag, read, file_value, flag_value", [
    ("embed", "threshold", "0.5", "0.75", lambda call: call["config"].threshold, 0.5, 0.75),
    ("embed", "mu", "10", "20", lambda call: call["config"].mu, 10.0, 20.0),
    ("embed", "charge", "2", "-2", lambda call: call["config"].charge, 2, -2),
    ("scan", "jobs", "3", "2", lambda call: call["jobs"], 3, 2),
    ("scan", "atoms", "0,1", "1,0", lambda call: call["atoms"], (0, 1), (1, 0)),
    ("scan", "distances", "1.0,2.0", "0.5:1.0:0.25", lambda call: call["distances"],
     [1.0, 2.0], [0.5, 0.75, 1.0]),
    ("embed", "verbose", "2", "0", lambda call: call["log_level"], logging.DEBUG, logging.WARNING),
])
def test_config_value_is_typed_and_its_flag_wins(tmp_path, water_file, commands, command, key,
                                                 in_file, on_flag, read, file_value, flag_value):
    # a later line wins over an earlier one, as a later flag does
    scan_keys = "atoms = 0,2\ndistances = 1.0,1.1\n" if command == "scan" else ""
    cfg = _write_config(tmp_path, f"geometry = {water_file}\nactive = 0\n{scan_keys}"
                                  f"{key} = {in_file}\n")
    assert main([command, "--config", cfg]) == 0
    assert main([command, "--config", cfg, f"--{key}", on_flag]) == 0
    values = [read(call) for call in commands]
    assert values == [file_value, flag_value]
    assert [type(v) for v in values] == [type(file_value), type(flag_value)]


@pytest.mark.parametrize("source", ["file", "flag"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_scan_jobs_below_one_is_a_config_error(tmp_path, water_file, capsys, source, jobs):
    out = tmp_path / "scan.txt"
    lines = f"geometry = {water_file}\nactive = 0\natoms = 0,1\ndistances = 1.0,1.1\n"
    if source == "file":
        argv = ["scan", "--config", _write_config(tmp_path, lines + f"jobs = {jobs}\n")]
    else:
        argv = ["scan", "--config", _write_config(tmp_path, lines), f"--jobs={jobs}"]
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error [config] --jobs must be at least 1, got {jobs}\n"
    assert not out.exists()


def test_config_value_may_hold_a_hash(tmp_path, water_file, commands):
    # '#' starts a comment only at the start of a line or after whitespace
    geometry = tmp_path / "a#b.xyz"
    geometry.write_text(WATER_XYZ)
    cfg = _write_config(tmp_path, f"# run file\ngeometry = {geometry}   # water\n"
                                  "  # indented comment\nactive = 0,1\t# O and H\n")
    assert main(["embed", "--config", cfg]) == 0
    assert commands[0]["config"].geometry == str(geometry)
    assert commands[0]["config"].active_atoms == (0, 1)


def test_config_charge_reaches_the_molecule(tmp_path, water_file, capsys):
    cfg = _write_config(tmp_path, f"geometry = {water_file}\nactive = 0,1\ncharge = -1\n")
    assert main(["embed", "--config", cfg, "--out", str(tmp_path / "r.json")]) == EXIT_CONFIG
    assert "odd electron count 11" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("threshold", "high"), ("charge", "1.5"), ("active", "0,x"), ("localizer", "boys"),
    ("solver", "fci"),
])
@pytest.mark.parametrize("source", ["file", "flag"])
def test_bad_value_is_a_config_error(tmp_path, water_file, commands, capsys, key, value, source):
    lines = f"geometry = {water_file}\nactive = 0\n"
    if source == "file":
        argv = ["embed", "--config", _write_config(tmp_path, lines + f"{key} = {value}\n")]
    else:
        argv = ["embed", "--config", _write_config(tmp_path, lines), f"--{key}", value]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error [config] ")
    assert commands == []


def test_scan_without_atoms_is_a_config_error(tmp_path, water_file, capsys):
    out = tmp_path / "scan.txt"
    assert main(["scan", "--geometry", water_file, "--active", "0,2", "--distances", "0.8,1.0",
                 "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error [config] scan needs --atoms and --distances\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("threshold", "1.5", "threshold 1.5 outside (0, 1]"),
    ("threshold", "nan", "threshold nan outside (0, 1]"),
    ("active", ",", "active atom list is empty"),
])
@pytest.mark.parametrize("source", ["file", "flag"])
def test_bad_setting_is_refused_before_the_integrals(tmp_path, water_file, monkeypatch, capsys,
                                                     key, value, message, source):
    # these values parse, so cmd_embed's RunConfig.validate is what refuses them
    import qembed.cli as cli

    def integrals_ran(*args, **kwargs):
        raise AssertionError("integrals ran")

    monkeypatch.setattr(cli, "compute_integrals", integrals_ran)
    out = tmp_path / "r.json"
    lines = f"geometry = {water_file}\nactive = 0\nlocalizer = population\n"
    if source == "file":
        argv = ["embed", "--config", _write_config(tmp_path, lines + f"{key} = {value}\n")]
    else:
        argv = ["embed", "--config", _write_config(tmp_path, lines), f"--{key}", value]
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error [config] {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("line", ["atoms = 0,1", "jobs = 2", "config = other.cfg", "geo = x.xyz",
                                  "active 0,1"])
def test_embed_config_refuses_keys_that_are_not_embed_flags(tmp_path, water_file, commands,
                                                            capsys, line):
    # a key is a whole flag name of the chosen subcommand, and never config
    cfg = _write_config(tmp_path, f"geometry = {water_file}\nactive = 0\n{line}\n")
    assert main(["embed", "--config", cfg]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error [config] ")
    assert commands == []


def test_verbose_logs_each_scf_iteration_to_stderr(tmp_path, water_file, capsys):
    out = tmp_path / "r.json"
    argv = ["embed", "--geometry", water_file, "--active", "0,1", "--solver", "none",
            "--out", str(out)]
    for _ in range(2):   # a second call in the same process logs each line once
        assert main(argv + ["--verbose", "2"]) == 0
        captured = capsys.readouterr()
        report = json.loads(out.read_text())
        iterations = report["scf"]["n_iterations"] + report["embedding"]["embedded_scf_iterations"]
        assert captured.err.count("scf iter") == iterations
        assert "scf iter" not in captured.out
    assert main(argv) == 0
    assert "scf iter" not in capsys.readouterr().err


def test_verbose_reaches_scan_workers(tmp_path, h2_file, capfd, monkeypatch):
    import qembed.cli as cli

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    code = main(["scan", "--geometry", h2_file, "--active", "0", "--atoms", "0,1",
                 "--distances", "0.6,0.9,1.2", "--jobs", "2", "--verbose", "2",
                 "--out", str(tmp_path / "scan.txt")])
    assert code == 0
    captured = capfd.readouterr()
    # every point runs two SCFs, the full one and the embedded one
    assert captured.err.count("scf iter   1 ") == 6
    assert "scf iter" not in captured.out


def _loaded_after(code: str, cwd, *modules: str) -> list[bool]:
    """Whether each module is in sys.modules after `code` runs in a fresh interpreter."""
    src = str(Path(qembed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    script = f"{code}\nimport sys\nprint(*(m in sys.modules for m in {modules!r}))"
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return [word == "True" for word in done.stdout.splitlines()[-1].split()]


def test_import_leaves_scipy_out(tmp_path):
    assert _loaded_after("import qembed.cli", tmp_path, "scipy") == [False]


@pytest.mark.parametrize("xyz, argv, sparse", [
    # the README scan: dense sector solves (dimension 225) and the FCI oracle at every point
    (WATER_XYZ, ["scan", "--active", "0,2", "--atoms", "0,2", "--distances", "0.8:3.0:0.2"],
     False),
    (WATER_XYZ, ["embed", "--active", "0,1", "--solver", "none"], False),
    # 16 qubits, sector dimension 4,900: the Davidson route, whose products are scipy.sparse's
    (CH4_XYZ, ["embed", "--active", "0,1,2,3", "--localizer", "population"], True),
], ids=["readme_scan", "embed_solver_none", "ch4_sparse"])
def test_only_the_sparse_route_loads_scipy(tmp_path, xyz, argv, sparse):
    (tmp_path / "mol.xyz").write_text(xyz)
    argv = argv + ["--geometry", "mol.xyz", "--out", "out.txt"]
    code = f"from qembed.cli import main\nassert main({argv!r}) == 0"
    assert _loaded_after(code, tmp_path, "scipy", "scipy.sparse", "scipy.sparse.linalg") == [
        sparse, sparse, False]
    if argv[0] == "scan":
        rows = (tmp_path / "out.txt").read_text().splitlines()[1:]
        assert len(rows) == 12
        assert all(row.endswith(" ok") and " n/a " not in row for row in rows)
