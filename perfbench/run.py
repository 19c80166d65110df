#!/usr/bin/env python3
"""qembed benchmark: runs the qembed command line in-process on seeded inputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload water_scan --seed 1 --seconds 40 --trace 0

One op is one ``qembed scan`` or ``qembed embed`` command, driven through
``qembed.cli.main`` with a user's argv. Ops run back to back (a closed loop
with one client) until ``--seconds`` would be exceeded; at least one op always
runs. Every op's output is checked against stored energies, and an op that
raises or fails its check counts as failed, never retried.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh processes of start to ready: interpreter, ``import qembed`` and the
input files), ``op_s`` (median wall seconds per op) and ``peak_rss_mb``.
``--trace 1`` wraps qembed's public functions (see tracing.py) and reports
the per-layer metrics of the traced ops, including ``trace.overhead_frac``.

The last line of standard output is the JSON result; the line before it
records the environment. Inputs, outputs and a full record of the run
(ops, failures, spans) go to perfbench/work/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("water_scan", "methanol_embed", "ch4_solve")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def limit_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable core count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def prepare(args):
    """Import qembed from this checkout and write the workload's inputs."""
    sys.path.insert(0, str(SRC))
    import qembed.cli
    if not Path(qembed.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qembed was imported from {qembed.cli.__file__}, not {SRC}")
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    workdir = WORK / args.workload
    workload.write_inputs(workdir, args.seed)
    return workload, workdir


def time_setup(argv: list[str]) -> list[float]:
    """Seconds from spawning a fresh interpreter until it reports ready, per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), *argv,
                                 "--setup-only"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("set-up probe timed out") from None
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
    return samples


def _failure_from_exception(exc: Exception) -> dict:
    frames = traceback.extract_tb(exc.__traceback__)
    where = next((f"{Path(f.filename).stem}.{f.name}" for f in reversed(frames)
                  if f"{os.sep}qembed{os.sep}" in f.filename), "cli.main")
    return {"stage": where, "error": type(exc).__name__, "message": str(exc)}


def run_op(cli_main, workload, workdir: Path) -> dict:
    """One CLI command: its wall and CPU time, then the output check. Never retried."""
    from workloads import CheckError
    out = workdir / workload.out_name
    for stale in workdir.glob(out.stem + "*"):
        stale.unlink()
    captured_err = io.StringIO()
    failure = None
    cpu_start, start = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(captured_err):
            code = cli_main(workload.argv(workdir))
    except Exception as exc:  # any exception is a failed op, recorded with its stage
        code, failure = None, _failure_from_exception(exc)
    record = {"wall_s": time.perf_counter() - start, "cpu_s": time.process_time() - cpu_start}
    if failure is None and code != 0:
        failure = {"stage": "cli.main", "error": f"exit {code}",
                   "message": captured_err.getvalue().strip()}
    if failure is None:
        try:
            record["details"] = workload.check(out)
        except (CheckError, OSError, ValueError, KeyError) as exc:
            failure = {"stage": "check", "error": type(exc).__name__, "message": str(exc)}
    record["failure"] = failure
    return record


def run_ops(cli_main, workload, workdir: Path, seconds: float, wrap_op=None) -> list[dict]:
    """Closed loop: start another op only if it should finish within ``seconds``."""
    ops = []
    deadline = time.perf_counter() + seconds
    while True:
        with (wrap_op() if wrap_op else contextlib.nullcontext()):
            ops.append(run_op(cli_main, workload, workdir))
        if ops[-1]["failure"]:
            print(f"op {len(ops) - 1} failed: {ops[-1]['failure']}", file=sys.stderr)
        if time.perf_counter() + ops[-1]["wall_s"] > deadline:
            return ops


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qembed").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args, blas_threads: int) -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "blas": blas, "blas_threads": blas_threads,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": commit, "source_sha256": source_sha256(),
    }


def traced_metrics(args, env: dict, cli_main, workload, workdir: Path):
    """Traced ops and their per-layer metrics. Returns (ops, metrics, spans, problems)."""
    from tracing import EXACT_COUNTS, Tracer, unit_of
    with Tracer() as tracer:
        ops = run_ops(cli_main, workload, workdir, args.seconds, wrap_op=tracer.op)
    per_op = [tracer.op_metrics(i) for i, op in enumerate(ops) if not op["failure"]]
    problems = []
    if per_op:
        counts = {key: per_op[0][key] for key in EXACT_COUNTS}
        for i, m in enumerate(per_op[1:], 1):
            problems += [f"{key} is {m[key]} in traced op {i}, {counts[key]} in op 0"
                         for key in EXACT_COUNTS if m[key] != counts[key]]
        problems += _compare_stored_counts(args, env, counts)
    metrics = {key: {"value": statistics.median(m[key] for m in per_op), "unit": unit_of(key)}
               for key in (per_op[0] if per_op else {})}
    return ops, metrics, tracer.dump_spans(), problems


def _compare_stored_counts(args, env: dict, counts: dict) -> list[str]:
    """Exact counts must repeat across runs of one seed on one source tree."""
    path = WORK / f"counts-{args.workload}-seed{args.seed}.json"
    stored = json.loads(path.read_text()) if path.exists() else None
    if stored and stored["source_sha256"] == env["source_sha256"]:
        return [f"{key} is {counts[key]}, an earlier run of this seed had {stored['counts'][key]}"
                for key in counts if stored["counts"].get(key) != counts[key]]
    path.write_text(json.dumps({"source_sha256": env["source_sha256"], "counts": counts}))
    return []


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    blas_threads = limit_blas_threads()
    if not (SRC / "qembed" / "__init__.py").is_file():
        print(f"error: no qembed sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        prepare(args)
        print("ready", flush=True)
        return 0
    setup = [] if args.trace else time_setup(argv)
    workload, workdir = prepare(args)
    import qembed.cli
    env = environment(args, blas_threads)
    problems: list[str] = []
    spans: list[dict] = []
    if args.trace:
        ops, metrics, spans, problems = traced_metrics(args, env, qembed.cli.main,
                                                        workload, workdir)
    else:
        ops = run_ops(qembed.cli.main, workload, workdir, args.seconds)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "op_s": {"value": statistics.median(op["wall_s"] for op in ops), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    for problem in problems:
        print(f"count not repeated: {problem}", file=sys.stderr)
    failed = sum(1 for op in ops if op["failure"])
    result = {"correct": failed == 0 and not problems, "attempted": len(ops),
              "failed": failed, "metrics": metrics}
    record = {"environment": env, "setup_s_samples": setup, "ops": ops,
              "count_problems": problems, "result": result, "spans": spans}
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
