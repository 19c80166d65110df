"""Spans and per-layer counts recorded around qembed's public functions.

The tracer replaces functions at the module attributes where their callers
look them up (``qembed.cli.compute_integrals``, ``qembed.integrals.eri_tensor``
and so on), so the program itself is not edited. Each call becomes a span
(name, start, end, parent, op id) kept in memory; a hook may read the call's
arguments and result to add counts to the current op. Hooks run after the
span has closed, so their cost is not layer time. The tracer times itself
(wrapper bookkeeping plus hooks, outside every span), which gives
``trace.overhead_frac``: the traced op's wall time over the same op without
the tracer, minus one. Measuring it directly rather than as the difference of
a traced and an untraced op keeps it free of machine-speed swings and of the
first op's extra cost (page faults of a first large allocation).
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

import qembed.cli
import qembed.integrals
import qembed.qubits
import qembed.solver

ERI_NONZERO = 1e-12

# Counts that must repeat bit for bit for a fixed seed.
EXACT_COUNTS = (
    "integrals.calls", "integrals.eri_quartets", "scf.iterations",
    "qubits.fermion_terms", "qubits.pauli_terms", "solver.sector_dim",
    "solver.x_mask_groups",
)
# Sizes and maxima are the largest seen in the op; every other count is summed over it.
LARGEST_COUNTS = ("basis.n_ao", "integrals.eri_mb", "scf.iterations_max",
                  "solver.sector_dim", "solver.x_mask_groups", "solver.fci_dim",
                  "solver.rss_growth_mb")
# Busy seconds per op: the span names summed into each time metric.
TIME_METRICS = {
    "basis.build_s": ("basis.build_basis",),
    "integrals.overlap_s": ("integrals.overlap_matrix",),
    "integrals.kinetic_s": ("integrals.kinetic_matrix",),
    "integrals.nuclear_s": ("integrals.nuclear_attraction_matrix",),
    "integrals.eri_s": ("integrals.eri_tensor",),
    "scf.rhf_s": ("scf.run_rhf",),
    "localize.partition_s": ("localize.spade_partition", "localize.population_localize",
                             "localize.assign_by_population"),
    "embedding.scf_s": ("embedding.run_embedded_scf",),
    "embedding.drop_s": ("embedding.drop_environment_orbitals",),
    "qubits.mo_transform_s": ("qubits.mo_transform",),
    "qubits.second_quantize_s": ("qubits.second_quantize",),
    "qubits.jw_s": ("qubits.jordan_wigner.embedded",),
    "qubits.jw_full_s": ("qubits.jordan_wigner.full",),
    "qubits.dump_s": ("qubits.dump",),
    "solver.ground_state_s": ("solver.ground_state",),
    "solver.fci_oracle_s": ("solver.fci_oracle",),
}
COUNT_METRICS = (
    "basis.n_ao", "integrals.calls", "integrals.eri_quartets", "integrals.eri_mb",
    "scf.calls", "scf.iterations", "scf.iterations_max", "localize.n_active_mos",
    "embedding.iterations", "qubits.fermion_terms", "qubits.pauli_terms",
    "qubits.pauli_terms_full", "qubits.json_bytes", "solver.dense_calls",
    "solver.lanczos_calls", "solver.sector_dim", "solver.x_mask_groups",
    "solver.rss_growth_mb", "solver.fci_dim",
)
UNITS = {"integrals.eri_mb": "MB", "solver.rss_growth_mb": "MB",
         "qubits.json_bytes": "bytes", "integrals.eri_nonzero_frac": "fraction",
         "qubits.pauli_per_fermion": "ratio", "trace.overhead_frac": "fraction"}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


@dataclass
class OpRecord:
    counts: dict = field(default_factory=dict)
    nonzero_quartets: int = 0
    n_ao: int = 0          # K of the molecule being processed, for JW labelling
    overhead_s: float = 0.0  # time spent in the tracer itself, outside every span


class Tracer:
    """Install with ``with Tracer() as t:`` and run each op inside ``with t.op():``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.ops: list[OpRecord] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, len(self.ops) - 1))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self):
        """One op; its root span is ``cli.main``."""
        self.ops.append(OpRecord())
        idx = self._open("cli.main")
        try:
            yield
        finally:
            self._close(idx)

    def _add(self, key: str, value) -> None:
        counts = self.ops[-1].counts
        if key in LARGEST_COUNTS:
            counts[key] = max(counts.get(key, 0), value)
        else:
            counts[key] = counts.get(key, 0) + value

    def _wrap(self, owner, attr: str, name: str, hook=None, rename=None):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            before = _maxrss_mb()
            idx = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            span = tracer.spans[idx]
            if rename is not None:
                span.name = rename(args)
            if hook is not None:
                hook(args, kwargs, result, before)
            tracer.ops[-1].overhead_s += time.perf_counter() - entered - (span.end - span.start)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    # -- hooks: counts read from arguments and results -----------------------

    def _on_basis(self, args, kwargs, basis, _rss):
        self.ops[-1].n_ao = basis.n_functions
        self._add("basis.n_ao", basis.n_functions)

    def _on_integrals(self, args, kwargs, ints, _rss):
        self._add("integrals.calls", 1)

    def _on_eri(self, args, kwargs, eri, _rss):
        k = eri.shape[0]
        rows, cols = np.tril_indices(k)
        pair_block = eri[rows, cols][:, rows, cols]
        unique = pair_block[np.tril_indices(len(rows))]
        self._add("integrals.eri_quartets", int(unique.size))
        self.ops[-1].nonzero_quartets += int(np.count_nonzero(np.abs(unique) > ERI_NONZERO))
        self._add("integrals.eri_mb", eri.size * 8 / 1e6)

    def _on_rhf(self, args, kwargs, scf, _rss):
        self._add("scf.calls", 1)
        self._add("scf.iterations", scf.n_iterations)
        self._add("scf.iterations_max", scf.n_iterations)

    def _on_partition(self, args, kwargs, partition, _rss):
        self._add("localize.n_active_mos", partition.n_active)

    def _on_embedded_scf(self, args, kwargs, result, _rss):
        self._add("embedding.iterations", result[1].n_iterations)

    def _is_full_jw(self, args) -> bool:
        """The full-system map has one qubit per spin orbital of all K AOs."""
        return args[1] == 2 * self.ops[-1].n_ao

    def _jw_label(self, args) -> str:
        return "qubits.jordan_wigner." + ("full" if self._is_full_jw(args) else "embedded")

    def _on_jw(self, args, kwargs, ham, _rss):
        if self._is_full_jw(args):
            self._add("qubits.pauli_terms_full", ham.term_count())
        else:
            self._add("qubits.fermion_terms", len(args[0]))
            self._add("qubits.pauli_terms", ham.term_count())

    def _on_dump(self, args, kwargs, _none, _rss):
        self._add("qubits.json_bytes", os.path.getsize(args[1]))

    def _on_ground_state(self, args, kwargs, _gs, rss_before):
        ham = args[0]
        self._add("solver.rss_growth_mb", _maxrss_mb() - rss_before)
        half = ham.n_qubits // 2
        n_el = kwargs["n_electrons"]
        n_alpha = (n_el + round(2 * kwargs["s_z"])) // 2
        dim = math.comb(half, n_alpha) * math.comb(half, n_el - n_alpha)
        self._add("solver.sector_dim", dim)
        route = "dense" if dim <= qembed.solver.DENSE_CUTOFF or dim < 5 else "lanczos"
        self._add(f"solver.{route}_calls", 1)
        x_masks = {word.replace("Z", "I").replace("Y", "X") for word in ham.terms}
        self._add("solver.x_mask_groups", len(x_masks))

    def _on_fci(self, args, kwargs, _energy, _rss):
        mol, ints = args[0], args[1]
        k, n_el = ints.n_functions, mol.n_electrons
        self._add("solver.fci_dim", math.comb(k, n_el // 2) * math.comb(k, n_el - n_el // 2))

    # -- install / uninstall -------------------------------------------------

    def __enter__(self):
        cli, ints, qubits, solver = qembed.cli, qembed.integrals, qembed.qubits, qembed.solver
        self._wrap(cli, "build_basis", "basis.build_basis", self._on_basis)
        self._wrap(cli, "compute_integrals", "integrals.compute_integrals", self._on_integrals)
        self._wrap(ints, "overlap_matrix", "integrals.overlap_matrix")
        self._wrap(ints, "kinetic_matrix", "integrals.kinetic_matrix")
        self._wrap(ints, "nuclear_attraction_matrix", "integrals.nuclear_attraction_matrix")
        self._wrap(ints, "eri_tensor", "integrals.eri_tensor", self._on_eri)
        self._wrap(cli, "run_rhf", "scf.run_rhf", self._on_rhf)
        self._wrap(solver, "run_rhf", "scf.run_rhf", self._on_rhf)
        self._wrap(cli, "spade_partition", "localize.spade_partition", self._on_partition)
        self._wrap(cli, "population_localize", "localize.population_localize")
        self._wrap(cli, "assign_by_population", "localize.assign_by_population",
                   self._on_partition)
        self._wrap(cli, "run_embedded_scf", "embedding.run_embedded_scf",
                   self._on_embedded_scf)
        self._wrap(cli, "drop_environment_orbitals", "embedding.drop_environment_orbitals")
        self._wrap(cli, "mo_transform", "qubits.mo_transform")
        self._wrap(cli, "second_quantize", "qubits.second_quantize")
        self._wrap(cli, "jordan_wigner", "qubits.jordan_wigner", self._on_jw,
                   rename=self._jw_label)
        self._wrap(qubits.QubitHamiltonian, "dump", "qubits.dump", self._on_dump)
        self._wrap(cli, "ground_state", "solver.ground_state", self._on_ground_state)
        self._wrap(cli, "fci_oracle", "solver.fci_oracle", self._on_fci)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    # -- derived numbers -----------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover (calls are sequential)."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def op_metrics(self, i: int) -> dict:
        """Per-layer metrics of op ``i``: busy seconds summed, counts as recorded."""
        spans = [s for s in self.spans if s.op == i]
        rec = self.ops[i]
        busy: dict[str, float] = {}
        for s in spans:
            busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
        out = {metric: sum(busy.get(n, 0.0) for n in names)
               for metric, names in TIME_METRICS.items()}
        out.update({key: rec.counts.get(key, 0) for key in COUNT_METRICS})
        quartets = out["integrals.eri_quartets"]
        out["integrals.eri_nonzero_frac"] = rec.nonzero_quartets / quartets if quartets else 0.0
        fermion = out["qubits.fermion_terms"]
        out["qubits.pauli_per_fermion"] = out["qubits.pauli_terms"] / fermion if fermion else 0.0
        root = next(j for j, s in enumerate(self.spans) if s.op == i and s.parent is None)
        out["cli.self_s"] = self.self_times()[root]
        traced_s = self.spans[root].end - self.spans[root].start
        out["trace.overhead_frac"] = rec.overhead_s / (traced_s - rec.overhead_s)
        return out

    def dump_spans(self) -> list[dict]:
        own = self.self_times()
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "op": s.op, "self_s": own[j]} for j, s in enumerate(self.spans)]


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return UNITS.get(metric, "count")
