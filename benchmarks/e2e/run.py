"""End-to-end LCLS monitoring benchmark: one command, four workloads.

Run every workload, each in its own fresh process, and print every
metric with its unit::

    PYTHONPATH=src python benchmarks/e2e/run.py --workload all --seed 0 --out results.json

Run one workload in this process::

    python3 benchmarks/e2e/run.py --workload beam_lcls --seed 3 --trace 0

Each run generates its inputs from ``--seed``, sets up three throwaway
pipelines (warm-up), times three untraced repetitions on fresh
pipelines, optionally runs one traced repetition for the per-layer
ledger, and checks the outputs.  The last line of standard output is
one JSON object: with ``--trace 0`` it carries the end-to-end metrics
that have a bound, with ``--trace 1`` the wall-clock rates and latencies
and the per-layer metrics.  The exit code is non-zero when any check
fails, and when the program under test (``src/repro``) cannot be found.

BLAS is pinned to one thread before numpy loads: the benchmark measures
one core's worth of the pipeline, as one rank of the paper's deployment
would use, and a second BLAS thread on a shared two-core machine mostly
adds noise.  The thread count in force is printed with the results.
glibc is held to one malloc arena, so the memory high-water mark does
not depend on which simulated rank thread freed what.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
WORKLOAD_NAMES = ("beam_lcls", "analysis_small", "sharded_lcls", "serve_during_ingest")
#: Wall-clock cap on one workload's child process under ``--workload all``.
CHILD_TIMEOUT_S = 1800
#: ``mallopt`` parameter number from glibc's ``malloc.h``.
M_ARENA_MAX = -8
#: Set-ups per run; each one's imports are timed in a fresh interpreter.
SETUPS = 3
IMPORTS = (
    "import time; t = time.perf_counter(); import repro, e2e_workloads; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="accepted for the common benchmark command line; the timed phase is "
        "always the same number of repetitions, so it does not change the sample",
    )
    p.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=1,
        help="1 adds the traced repetition and reports per-layer metrics last",
    )
    p.add_argument("--out", type=Path, default=None, help="write the full results as JSON")
    p.add_argument(
        "--src",
        type=Path,
        default=HERE.parents[1] / "src",
        help="source tree holding the repro package under test",
    )
    return p.parse_args(argv)


def blas_threads() -> int:
    """Thread count the loaded OpenBLAS reports, or -1 when unknown."""
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def _fmt(value: float) -> str:
    if isinstance(value, float) and value != 0 and (abs(value) < 1e-3 or abs(value) >= 1e6):
        return f"{value:.4e}"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def print_result(res: dict) -> None:
    bench = res["bench"]
    print(
        f"\n=== {res['workload']}  seed={res['seed']}  "
        f"blas_threads={bench['blas_threads']} ==="
    )
    print("end-to-end (median [q1, q3] over n samples):")
    for name, m in res["e2e"].items():
        print(
            f"  {name:<28} {m['unit']:<10} {_fmt(m['value']):>12}  "
            f"[{_fmt(m['q1'])}, {_fmt(m['q3'])}]  n={len(m['samples'])}"
        )
    print(f"  ({res['failed']} of {res['attempted']} operations failed)")
    if res["layers"]:
        print("per-layer (traced repetition):")
        for name, m in res["layers"].items():
            print(f"  {name:<36} {m['unit']:<10} {_fmt(m['value']):>12}")
        print("ledger (traced repetition): span, calls, total s, self s")
        for name, row in sorted(res["ledger"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(
                f"  {name:<36} {row['count']:>6}  {row['total_s']:>9.4f}  {row['self_s']:>9.4f}"
            )
    print(
        f"bench: generate_s={bench['generate_s']:.3f} s  "
        f"rel_cov_error={res['rel_cov_error']:.5f} (FD bound {res['fd_bound']:.5f})"
    )
    status = "all checks passed" if res["correct"] else "CHECKS FAILED"
    print(f"checks: {status}")
    for problem in res["problems"]:
        print(f"  - {problem}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def import_times(src: Path) -> list[float]:
    """Seconds to import the program and this benchmark, once per set-up.

    Imports happen once per process, so each sample comes from a fresh
    interpreter, which exits before the next starts.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(HERE)])}
    out = []
    for _ in range(SETUPS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORTS], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        out.append(float(proc.stdout))
    return out


def run_one(args: argparse.Namespace, src: Path) -> int:
    import_s = import_times(src)
    sys.path.insert(0, str(src))
    import repro

    from e2e_workloads import E2E_METRICS, WALL_METRICS, WORKLOADS, measure

    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"repro imported from {repro.__file__}, not from {src}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        res = measure(WORKLOADS[args.workload], args.seed, workdir, import_s, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res["bench"]["blas_threads"] = blas_threads()
    print_result(res)
    if args.out:
        args.out.write_text(json.dumps(res, indent=1) + "\n")
    if args.trace:
        section = {**{k: res["e2e"][k] for k in WALL_METRICS}, **res["layers"]}
    else:
        section = {k: res["e2e"][k] for k in E2E_METRICS}
    metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in section.items()}
    print(result_line(res["correct"], res["attempted"], res["failed"], metrics))
    return 0 if res["correct"] else 1


def run_all(args: argparse.Namespace, src: Path) -> int:
    """Each workload in a fresh child process, one after another."""
    WORK.mkdir(exist_ok=True)
    results, failed_children = [], []
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for name in WORKLOAD_NAMES:
            out = Path(tmp) / f"{name}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--trace", "1", "--out", str(out),
                   "--src", str(src)]
            proc = subprocess.run(cmd, timeout=CHILD_TIMEOUT_S, check=False)
            if proc.returncode != 0 or not out.exists():
                failed_children.append(f"{name} exited with {proc.returncode}")
            if out.exists():
                results.append(json.loads(out.read_text()))
    correct = not failed_children and all(r["correct"] for r in results)
    print("\n=== summary: end-to-end metrics ===")
    for r in results:
        cells = "  ".join(f"{k}={_fmt(m['value'])} {m['unit']}" for k, m in r["e2e"].items())
        print(f"  {r['workload']:<20} {cells}")
        print(
            f"  {'':<20} ledger.coverage={_fmt(r['layers']['ledger.coverage']['value'])}  "
            f"trace_overhead={_fmt(r['layers']['ledger.trace_overhead_ratio']['value'])}  "
            f"failed={r['failed']}/{r['attempted']}"
        )
    for problem in failed_children:
        print(f"  - {problem}")
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    metrics = {
        f"{r['workload']}.{k}": {"value": m["value"], "unit": m["unit"]}
        for r in results
        for k, m in r["e2e"].items()
    }
    attempted = sum(r["attempted"] for r in results) or 1
    failed = sum(r["failed"] for r in results) + len(failed_children)
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # A terminated run still removes its generated inputs (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Before numpy loads (it is imported only below this point).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # One glibc malloc arena for every thread.  The simulated ranks of
    # consume_sharded are threads of this process; with an arena per
    # thread, peak_mem_mb depended on which thread freed what (437-549 MB
    # over five repetitions on one input, against 353-368 MB here).
    ctypes.CDLL(None).mallopt(M_ARENA_MAX, 1)
    src = args.src.resolve()
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no repro package under {src}; nothing to benchmark", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, src)
    return run_one(args, src)


if __name__ == "__main__":
    sys.exit(main())
