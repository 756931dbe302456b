"""Parent-vs-change comparison on the e2e benchmark.

Runs the same benchmark code against two source trees in alternating
pairs, then judges every end-to-end metric on every workload::

    python benchmarks/e2e/compare.py --parent-src ../parent/src --change-src src \\
        --pairs 10 --out pairs.json
    python benchmarks/e2e/compare.py --load pairs.json

Pair ``i`` uses seed ``--seed0 + i`` on both sides; even pairs run the
parent first, odd pairs the change.  Every end-to-end metric a run
reports is judged: those in ``BENCHMARK.json``'s ``end_to_end`` against
their bound, and the wall-clock rates and latencies, which
``BENCHMARK.json`` lists without a bound, by pair wins alone.  Verdicts,
per workload and metric:

``gain``
    the change wins at least 9 of 10 pairs (ties count for neither) and
    the medians differ by more than the parent's interquartile range;
    void when the change failed more operations than the parent.
``regression``
    the change's median is worse than the parent's by more than the
    bound; without a bound, the mirror image of a gain.
``unresolved``
    the parent's interquartile range exceeds the bound, so "within
    bound" cannot be claimed, unless every change run beats every
    parent run.  Without a bound, anything that is neither a gain nor a
    regression.
``within bound``
    none of the above.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from e2e_stats import quartiles

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"
WORK = HERE / ".work"
GAIN_SHARE = 0.9
RUN_TIMEOUT_S = 900


def verdict(
    parent: list[float], change: list[float], better: str, bound: float | None
) -> dict:
    """Judge one metric from aligned pairs (``parent[i]`` ran with ``change[i]``)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of parent and change runs")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    iqr = pq3 - pq1
    gap = sign * (cmed - pmed)
    dominates = all(sign * (c - p) > 0 for c in change for p in parent)
    if wins >= GAIN_SHARE * len(parent) and gap > iqr:
        label = "gain"
    elif bound is None:
        lost = losses >= GAIN_SHARE * len(parent) and -gap > iqr
        label = "regression" if lost else "unresolved"
    elif -gap > bound * abs(pmed):
        label = "regression"
    elif iqr > bound * abs(pmed) and not dominates:
        label = "unresolved"
    else:
        label = "within bound"
    return {
        "verdict": label,
        "wins": wins,
        "pairs": len(parent),
        "parent": (pq1, pmed, pq3),
        "change": (cq1, cmed, cq3),
    }


def _run(src: Path, workload: str, seed: int, out: Path) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--trace", "0", "--src", str(src), "--out", str(out)]
    subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S, check=False)
    if not out.exists():
        raise RuntimeError(f"benchmark produced no result: {' '.join(cmd)}")
    res = json.loads(out.read_text())
    out.unlink()
    return {
        "e2e": {k: m["value"] for k, m in res["e2e"].items()},
        "attempted": res["attempted"],
        "failed": res["failed"],
    }


def collect(args: argparse.Namespace, spec: dict) -> dict:
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}
    runs = []
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for workload in workloads:
                for side in order:
                    out = Path(tmp) / f"{side}.json"
                    rec = _run(sides[side], workload, args.seed0 + i, out)
                    runs.append({"pair": i, "workload": workload, "side": side, **rec})
                    print(f"pair {i} {workload} {side}: {rec['e2e']}", flush=True)
    return {"sides": {k: str(v) for k, v in sides.items()}, "runs": runs}


def report(data: dict, spec: dict) -> list[dict]:
    rows = []
    workloads = sorted({r["workload"] for r in data["runs"]})
    reported = data["runs"][0]["e2e"]
    for metric in spec["end_to_end"] + spec["per_layer"]:
        name = metric["name"]
        if name not in reported:
            continue
        bound = metric.get("bound")
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better, bound {bound})")
        print(f"  {'workload':<20} {'parent median [q1, q3]':<34} "
              f"{'change median [q1, q3]':<34} wins  verdict")
        for workload in workloads:
            side = {
                s: sorted(
                    (r for r in data["runs"] if r["workload"] == workload and r["side"] == s),
                    key=lambda r: r["pair"],
                )
                for s in ("parent", "change")
            }
            v = verdict(
                [r["e2e"][name] for r in side["parent"]],
                [r["e2e"][name] for r in side["change"]],
                metric["better"],
                bound,
            )
            failed = {s: sum(r["failed"] for r in side[s]) for s in side}
            if v["verdict"] == "gain" and failed["change"] > failed["parent"]:
                v["verdict"] = "gain void: more failed operations"
            cells = [
                "{1:.4g} [{0:.4g}, {2:.4g}]".format(*v[s]) for s in ("parent", "change")
            ]
            print(f"  {workload:<20} {cells[0]:<34} {cells[1]:<34} "
                  f"{v['wins']}/{v['pairs']}  {v['verdict']}")
            rows.append({"workload": workload, "metric": name, **v})
    return rows


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent-src", type=Path)
    p.add_argument("--change-src", type=Path)
    p.add_argument("--workload", action="append", help="repeatable; default: all")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1000)
    p.add_argument("--out", type=Path, help="save the raw runs as JSON")
    p.add_argument("--load", type=Path, help="report on saved runs instead of running")
    args = p.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    if args.load:
        data = json.loads(args.load.read_text())
    else:
        if args.parent_src is None or args.change_src is None:
            p.error("--parent-src and --change-src are required unless --load is given")
        if args.pairs < 10:
            p.error("a gain needs at least 10 pairs")
        data = collect(args, spec)
        if args.out:
            args.out.write_text(json.dumps(data, indent=1) + "\n")
    rows = report(data, spec)
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
