#!/usr/bin/env python3
"""Tiered CI runner: one entry point for local runs and the workflow.

Seven tiers, cheapest first, documented in ``docs/ci.md``:

- **Tier 1 — lint + fast tests.**  Byte-compiles every Python file
  (syntax gate; the container ships no third-party linter), runs the
  end-to-end benchmark's self-tests (``benchmarks/e2e``, whose traced
  repetition fails when a refactor removes a name the harness wraps),
  then the default pytest selection (``tests/``, which excludes the
  chaos and guard matrices via ``addopts``), run to the end without
  ``-x`` so one failing test cannot hide the ones after it; the step
  still fails on any failure.  This is the merge gate every PR must
  keep green.
- **Tier 2 — exhaustive matrices.**  The fault-injection chaos grid
  (``-m chaos``) and the stream-corruption guard grid (``-m guard``).
  Slower, still deterministic.
- **Tier 3 — bench gates.**  The three persisted-baseline benches
  (``bench_core``, ``bench_guard_overhead``, ``bench_serve``) compared
  against their committed ``BENCH_*.json`` through the shared
  comparator in ``benchmarks/_gate.py``.  Timing-sensitive: run on a
  quiet machine.
- **Tier 4 — observability suite.**  The trace/timeline/alert test
  files (incl. the exporter golden files and the bounded-append lint)
  plus the obs overhead gate (``bench_obs_overhead`` against
  ``BENCH_obs.json``).  Most of these also run in tier 1; the tier
  exists so observability changes can be iterated on in isolation and
  so the workflow pins the overhead budgets explicitly.
- **Tier 5 — backend portfolio.**  The ``-m backends`` selection
  (conformance contract, hypothesis properties, golden selector
  fixture, registry-hygiene lint) plus the backend bench gate
  (``bench_backends`` against ``BENCH_backends.json``).  The tests
  also run in tier 1; the tier isolates backend work and pins the
  wall-clock selector-payoff bar explicitly.
- **Tier 6 — campaign orchestration.**  The campaign chaos matrix
  (``-m campaign``): every fault kind at every task position must
  yield bit-identical sketches and the golden partial report.
  Deterministic (virtual clocks) but a full campaign per cell, so it
  rides outside the tier-1 merge gate.
- **Tier 7 — fleet fabric.**  The multi-tenant serving-fabric failover
  matrix (``-m fleet``: kill every shard at several replay batches,
  assert lossless bit-identical failover) plus the per-tenant-class
  SLO gate (``bench_fleet`` against ``BENCH_fleet.json``).

Usage::

    python tools/ci.py                # all tiers, stop at first failure
    python tools/ci.py --tier 1      # just the merge gate
    python tools/ci.py --tier 2 --tier 3
    python tools/ci.py --list        # show the plan, run nothing
    python tools/ci.py --list --json # the same plan, machine-readable

Exit status is the first failing step's return code (tiers run in
order; a failing tier aborts the later ones).  A per-step timing
summary is always printed, covering the steps that ran;
``--summary-out FILE`` additionally writes it as JSON, and
``--junit-dir DIR`` makes every pytest step drop per-step JUnit XML
(``tierN-step.xml``) for CI artifact upload.

The runner is dependency-free (stdlib only) and never touches the
network, so it behaves identically in CI and on a beamline console.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Step:
    """One subprocess in a tier."""

    name: str
    argv: tuple[str, ...]


#: tier number -> (title, steps).  Ordering inside a tier matters: a
#: failing step aborts the rest of the run, so cheaper steps go first.
TIERS: dict[int, tuple[str, tuple[Step, ...]]] = {
    1: (
        "lint + fast tests (merge gate)",
        (
            Step(
                "compileall",
                (
                    sys.executable,
                    "-m",
                    "compileall",
                    "-q",
                    "src",
                    "tests",
                    "benchmarks",
                    "tools",
                ),
            ),
            Step(
                "e2e-selftest",
                (sys.executable, "-m", "pytest", "benchmarks/e2e", "-q"),
            ),
            Step("pytest", (sys.executable, "-m", "pytest", "-q")),
        ),
    ),
    2: (
        "exhaustive matrices (chaos + guard)",
        (
            Step("chaos", (sys.executable, "-m", "pytest", "-q", "-m", "chaos")),
            Step("guard", (sys.executable, "-m", "pytest", "-q", "-m", "guard")),
        ),
    ),
    3: (
        "bench gates vs committed baselines",
        (
            Step(
                "bench",
                (
                    sys.executable,
                    "-m",
                    "pytest",
                    "benchmarks/bench_core.py",
                    "benchmarks/bench_guard_overhead.py",
                    "benchmarks/bench_serve.py",
                    "-q",
                    "--benchmark-disable",
                ),
            ),
        ),
    ),
    4: (
        "observability suite (traces + timelines + alerts)",
        (
            Step(
                "obs-tests",
                (
                    sys.executable,
                    "-m",
                    "pytest",
                    "-q",
                    "tests/test_obs_registry.py",
                    "tests/test_obs_spans.py",
                    "tests/test_obs_export.py",
                    "tests/test_obs_health.py",
                    "tests/test_obs_timeline.py",
                    "tests/test_obs_alerts.py",
                    "tests/test_obs_trace_context.py",
                    "tests/test_obs_export_golden.py",
                    "tests/test_obs_e2e.py",
                    "tests/test_no_unbounded_append.py",
                ),
            ),
            Step(
                "obs-bench",
                (
                    sys.executable,
                    "-m",
                    "pytest",
                    "benchmarks/bench_obs_overhead.py",
                    "-q",
                    "--benchmark-disable",
                ),
            ),
        ),
    ),
    5: (
        "backend portfolio (conformance + golden + bench gate)",
        (
            Step(
                "backend-tests",
                (
                    sys.executable,
                    "-m",
                    "pytest",
                    "-q",
                    "-m",
                    "backends",
                    "tests/test_backend_conformance.py",
                    "tests/test_backend_properties.py",
                    "tests/test_backend_golden.py",
                ),
            ),
            Step(
                "backend-bench",
                (
                    sys.executable,
                    "-m",
                    "pytest",
                    "benchmarks/bench_backends.py",
                    "-q",
                    "--benchmark-disable",
                ),
            ),
        ),
    ),
    6: (
        "campaign orchestration (kill-and-resume matrix)",
        (
            Step(
                "campaign",
                (sys.executable, "-m", "pytest", "-q", "-m", "campaign"),
            ),
        ),
    ),
    7: (
        "fleet fabric (failover matrix + tenant SLO gate)",
        (
            Step(
                "fleet",
                (sys.executable, "-m", "pytest", "-q", "-m", "fleet"),
            ),
            Step(
                "fleet-bench",
                (
                    sys.executable,
                    "-m",
                    "pytest",
                    "benchmarks/bench_fleet.py",
                    "-q",
                    "--benchmark-disable",
                ),
            ),
        ),
    ),
}


def _env() -> dict[str, str]:
    """Child environment with ``src`` on ``PYTHONPATH``.

    Prepending (rather than replacing) keeps any caller-provided path
    entries working, so the runner behaves the same under tox-style
    wrappers and bare shells.
    """
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = "src" if not extra else os.pathsep.join(["src", extra])
    return env


def _is_pytest(step: Step) -> bool:
    return "pytest" in step.argv


def _with_junit(step: Step, tier: int, junit_dir: str | None) -> Step:
    """Append ``--junitxml`` to pytest steps when ``--junit-dir`` is set."""
    if junit_dir is None or not _is_pytest(step):
        return step
    path = Path(junit_dir) / f"tier{tier}-{step.name}.xml"
    return Step(step.name, step.argv + (f"--junitxml={path}",))


def _run_step(tier: int, step: Step) -> tuple[int, float]:
    """Run one step from the repo root; returns ``(returncode, seconds)``."""
    print(f"\n== tier {tier} :: {step.name} ==")
    print("   $", " ".join(step.argv), flush=True)
    t0 = time.perf_counter()
    proc = subprocess.run(step.argv, cwd=REPO, env=_env())
    return proc.returncode, time.perf_counter() - t0


def _print_summary(results: list[tuple[int, str, float, int]]) -> None:
    print("\n" + "=" * 56)
    print(f"{'tier':<6}{'step':<14}{'seconds':>10}  status")
    print("-" * 56)
    for tier, name, seconds, code in results:
        status = "ok" if code == 0 else f"FAIL (exit {code})"
        print(f"{tier:<6}{name:<14}{seconds:>10.2f}  {status}")
    print("=" * 56)


def _write_summary(
    path: str, selected: list[int], results: list[tuple[int, str, float, int]]
) -> None:
    """Persist the timing summary as JSON (for CI artifact upload)."""
    payload = {
        "schema": 1,
        "tiers_selected": selected,
        "passed": all(code == 0 for _, _, _, code in results),
        "steps": [
            {"tier": tier, "step": name, "seconds": round(seconds, 3),
             "returncode": code}
            for tier, name, seconds, code in results
        ],
    }
    out = Path(path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")


def _plan_json(selected: list[int]) -> str:
    """The selected plan in machine-readable form (``--list --json``)."""
    return json.dumps(
        {
            "schema": 1,
            "tiers": [
                {
                    "tier": tier,
                    "title": TIERS[tier][0],
                    "steps": [
                        {"name": step.name, "argv": list(step.argv)}
                        for step in TIERS[tier][1]
                    ],
                }
                for tier in selected
            ],
        },
        indent=2,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/ci.py",
        description="Run the tiered CI suite (stops at the first failing tier).",
    )
    parser.add_argument(
        "--tier",
        action="append",
        type=int,
        choices=sorted(TIERS),
        help="tier to run (repeatable; default: all, in order)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the selected plan without running anything",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="with --list: emit the plan as JSON instead of text",
    )
    parser.add_argument(
        "--junit-dir",
        metavar="DIR",
        help="write per-step JUnit XML (tierN-step.xml) for pytest steps",
    )
    parser.add_argument(
        "--summary-out",
        metavar="FILE",
        help="also write the per-step timing summary as JSON",
    )
    args = parser.parse_args(argv)

    selected = sorted(set(args.tier)) if args.tier else sorted(TIERS)
    if args.list:
        if args.json:
            print(_plan_json(selected))
            return 0
        for tier in selected:
            title, steps = TIERS[tier]
            print(f"tier {tier}: {title}")
            for step in steps:
                print(f"  {step.name:<12} $ {' '.join(step.argv)}")
        return 0
    if args.json:
        parser.error("--json only makes sense together with --list")
    if args.junit_dir:
        Path(args.junit_dir).mkdir(parents=True, exist_ok=True)

    results: list[tuple[int, str, float, int]] = []
    failure = 0
    for tier in selected:
        title, steps = TIERS[tier]
        print(f"\n### tier {tier}: {title}")
        for step in steps:
            code, seconds = _run_step(tier, _with_junit(step, tier, args.junit_dir))
            results.append((tier, step.name, seconds, code))
            if code != 0:
                failure = code
                break
        if failure:
            break

    _print_summary(results)
    if args.summary_out:
        _write_summary(args.summary_out, selected, results)
    if failure:
        print(f"tier {results[-1][0]} failed at step '{results[-1][1]}'")
    else:
        print(f"tiers {', '.join(str(t) for t in selected)} passed")
    return failure


if __name__ == "__main__":
    raise SystemExit(main())
