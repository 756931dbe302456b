"""Command-line interface for the ARAMS monitoring toolkit.

Three subcommands mirror the repo's example scenarios so the system can
be driven without writing Python:

``repro-monitor monitor``
    Generate a synthetic run (beam or diffraction), stream it through
    the full monitoring pipeline — behind a :class:`FrameGuard` screen
    by default — and print the operator summary (clusters, anomalies,
    axis correlations, ASCII map); optionally export the embedding to
    CSV.  ``--corruption`` injects seeded detector faults upstream of
    the guard, and ``--checkpoint-dir``/``--resume`` exercise the
    crash-consistent pipeline checkpoints (docs/data_robustness.md).

``repro-monitor scaling``
    Run the tree-vs-serial strong-scaling study on simulated ranks.

``repro-monitor sketch``
    Benchmark the four FD variants (±priority sampling, ±rank
    adaptivity) on a synthetic spectrum, the paper's Fig. 1 shape.

``repro-monitor xpcs``
    Simulate an XPCS run whose coherence depends on the beam state and
    report speckle contrast pooled vs grouped by unsupervised beam
    cluster — the paper's motivating measurement.

``repro-monitor serve``
    Replay a seeded synthetic stream through the monitoring pipeline
    while a deterministic load generator issues typed queries
    (``project`` / ``residual`` / ``outlier_score`` / ``basis`` /
    ``stats``) against epoch-numbered sketch snapshots, through the
    admission-controlled serving layer (``repro.serve``).  Virtual-clock
    driven, so the served/shed/cache numbers are reproducible; prints a
    serving summary and can embed it in the HTML report.

``repro-monitor top``
    Live terminal dashboard over a deterministic serve replay: key
    metric sparklines (sampled on the virtual clock), active alerts and
    the alert-event tail, refreshed after every ingest batch — the
    operator's ``top`` for the sketch-serving stack.  ``--plain``
    disables the ANSI screen refresh for logs and tests.

``repro-monitor chaos``
    Run a distributed sketching job under a seeded fault plan
    (``--fault-plan "seed=7; kill rank=3 rotation=2"``) and print the
    degradation report — how much data survived, what was retried, what
    was recovered from checkpoints.  Uses a flop-based compute model, so
    the same plan always reproduces the same merged sketch and makespan.

``repro-monitor campaign``
    Execute a declarative campaign — a runs × detectors × variants task
    matrix with dependencies (``--spec campaign.yaml``, or a built-in
    demo matrix) — through the deterministic scheduler: shared
    retry/backoff policy, checkpoint-resumed retries, per-task virtual
    timeouts, and optional scheduler-level chaos
    (``--faults "seed=3; kill task=r0001/* batch=2"``).  Prints (or
    writes) the stable-schema campaign report; see docs/campaigns.md.

Every flag has a sensible default, so ``repro-monitor monitor`` alone
produces a meaningful demonstration in under a minute on one core.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _add_metrics_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="write a metrics snapshot (stage latencies + sketch health) "
             "to PATH on exit",
    )
    parser.add_argument(
        "--metrics-format", choices=["prom", "jsonl", "table"], default="prom",
        help="metrics snapshot format: Prometheus text exposition, "
             "JSON lines (appended), or an aligned table",
    )


def _command_registry():
    """Fresh per-command registry, installed as the process default.

    Module-level instrumentation (e.g. the rotation-kernel counter in
    ``repro.linalg.svd``) reports to the default registry, so installing
    the command's registry there makes those samples land in the same
    ``--metrics-out`` snapshot as the observer-driven ones.  ``main``
    restores the previous default after the command returns.
    """
    from repro.obs.registry import Registry, set_default_registry

    registry = Registry()
    set_default_registry(registry)
    return registry


def _write_metrics(registry, args: argparse.Namespace, alerts=()) -> None:
    if getattr(args, "metrics_out", None):
        from repro.obs.export import write_metrics

        path = write_metrics(
            registry, args.metrics_out, format=args.metrics_format, alerts=alerts
        )
        print(f"metrics snapshot written to {path}")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-monitor",
        description="ARAMS online image monitoring (SC 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mon = sub.add_parser("monitor", help="run the full monitoring pipeline")
    mon.add_argument("--scenario", choices=["beam", "diffraction"], default="beam")
    mon.add_argument("--shots", type=int, default=600)
    mon.add_argument("--size", type=int, default=64, help="frame side length")
    mon.add_argument("--ell", type=int, default=24, help="initial sketch size")
    mon.add_argument("--beta", type=float, default=0.8, help="sampling fraction")
    mon.add_argument("--epsilon", type=float, default=0.05, help="error tolerance")
    mon.add_argument("--seed", type=int, default=0)
    mon.add_argument(
        "--backend", choices=["auto", "fd", "ipca", "rrf"], default="fd",
        help="sketch backend; 'auto' probes the stream regime and picks "
             "the fastest backend meeting --target-error "
             "(see docs/backends.md); non-fd backends disable --epsilon "
             "rank adaptation",
    )
    mon.add_argument(
        "--target-error", type=float, default=None, metavar="REL",
        help="relative covariance-error target for --backend auto "
             "(default: select on accuracy alone)",
    )
    mon.add_argument("--csv", type=str, default=None, help="export embedding CSV")
    mon.add_argument("--html", type=str, default=None,
                     help="write an interactive HTML report (Bokeh-style)")
    mon.add_argument("--cluster", choices=["optics", "hdbscan"], default="optics",
                     help="clustering backend")
    mon.add_argument(
        "--corruption", type=str, default=None, metavar="SPEC",
        help="inject seeded detector corruption upstream of the guard: "
             "'seed=N; kind key=value ...' clauses (kinds: nan, shape, "
             "dup, drop, zero, hot); see docs/data_robustness.md",
    )
    mon.add_argument(
        "--no-guard", action="store_true",
        help="disable the FrameGuard screen in front of the sketch "
             "(ignored when --corruption is given)",
    )
    mon.add_argument(
        "--checkpoint-dir", type=str, default=None, metavar="DIR",
        help="write crash-consistent pipeline checkpoints to DIR after "
             "each consumed batch group",
    )
    mon.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="checkpoint after every N consumed batches (default 1)",
    )
    mon.add_argument(
        "--resume", action="store_true",
        help="resume from the newest intact checkpoint in --checkpoint-dir "
             "and skip the shots it already covers",
    )
    _add_metrics_args(mon)

    sca = sub.add_parser("scaling", help="tree vs serial strong-scaling study")
    sca.add_argument("--cores", type=str, default="1,2,4,8,16")
    sca.add_argument("--rows", type=int, default=1024)
    sca.add_argument("--dim", type=int, default=2048)
    sca.add_argument("--ell", type=int, default=48)
    sca.add_argument("--seed", type=int, default=7)

    ske = sub.add_parser("sketch", help="compare the four FD variants")
    ske.add_argument("--rows", type=int, default=2000)
    ske.add_argument("--dim", type=int, default=400)
    ske.add_argument(
        "--profile",
        choices=["subexponential", "exponential", "superexponential", "cubic"],
        default="exponential",
    )
    ske.add_argument("--ell", type=int, default=40)
    ske.add_argument("--beta", type=float, default=0.8)
    ske.add_argument("--epsilon", type=float, default=0.05)
    ske.add_argument("--seed", type=int, default=0)
    _add_metrics_args(ske)

    xp = sub.add_parser("xpcs", help="beam-grouped speckle-contrast demo")
    xp.add_argument("--shots", type=int, default=450, help="total shots")
    xp.add_argument("--seed", type=int, default=0)

    ser = sub.add_parser(
        "serve", help="replay a stream while serving snapshot queries"
    )
    ser.add_argument(
        "--replay", action="store_true",
        help="replay a seeded synthetic stream with a deterministic "
             "virtual-clock load generator (the only serving mode "
             "available offline; required)",
    )
    ser.add_argument("--scenario", choices=["beam", "diffraction"], default="beam")
    ser.add_argument("--shots", type=int, default=600)
    ser.add_argument("--size", type=int, default=48, help="frame side length")
    ser.add_argument("--batch", type=int, default=100, help="frames per ingest batch")
    ser.add_argument("--ell", type=int, default=24, help="initial sketch size")
    ser.add_argument("--beta", type=float, default=0.8, help="sampling fraction")
    ser.add_argument("--epsilon", type=float, default=0.05, help="error tolerance")
    ser.add_argument("--seed", type=int, default=0)
    ser.add_argument(
        "--backend", choices=["auto", "fd", "ipca", "rrf"], default="fd",
        help="sketch backend behind the snapshot store ('auto' probes "
             "the regime; see docs/backends.md)",
    )
    ser.add_argument(
        "--target-error", type=float, default=None, metavar="REL",
        help="relative covariance-error target for --backend auto",
    )
    ser.add_argument(
        "--publish-every", type=int, default=2, metavar="N",
        help="publish a sketch snapshot every N consumed batches",
    )
    ser.add_argument(
        "--keep", type=int, default=8, help="snapshots retained in the store"
    )
    ser.add_argument(
        "--queries-per-batch", type=int, default=10, metavar="Q",
        help="queries the load generator issues per ingest batch",
    )
    ser.add_argument(
        "--rate", type=float, default=20.0,
        help="token-bucket refill rate (queries per virtual second)",
    )
    ser.add_argument(
        "--burst", type=float, default=10.0, help="token-bucket capacity"
    )
    ser.add_argument(
        "--queue-depth", type=int, default=32, help="admission queue capacity"
    )
    ser.add_argument(
        "--deadline", type=float, default=0.5,
        help="per-query deadline in virtual seconds",
    )
    ser.add_argument(
        "--cache-size", type=int, default=256, help="query-cache entries (0 disables)"
    )
    ser.add_argument(
        "--html", type=str, default=None,
        help="write an interactive HTML report with the serving panel",
    )
    ser.add_argument(
        "--trace-out", type=str, default=None, metavar="PATH",
        help="write a merged Chrome/Perfetto trace (spans, serve flow "
             "arrows, alert markers) to PATH on exit",
    )
    ser.add_argument(
        "--alert-rules", type=str, default=None, metavar="SPEC",
        help="extra alert rules, one per ';'-separated clause "
             "(syntax in docs/observability.md); the built-in FD-bound "
             "and serve-p99 SLO rules are always installed",
    )
    ser.add_argument(
        "--slo-p99", type=float, default=0.05, metavar="SECONDS",
        help="serve-latency SLO objective: p99 of project queries "
             "(burn-rate alert fires when >10%% of the trailing window "
             "violates it)",
    )
    _add_metrics_args(ser)

    flt = sub.add_parser(
        "fleet", help="multi-tenant sharded serving fabric replay"
    )
    flt.add_argument(
        "--replay", action="store_true",
        help="replay a seeded multi-tenant workload through the "
             "virtual-clock load generator (the only fleet mode "
             "available offline; required)",
    )
    flt.add_argument("--shards", type=int, default=4, help="serving shards")
    flt.add_argument(
        "--replication", type=int, default=2,
        help="replicas per stream (>= 2 buys zero-loss failover)",
    )
    flt.add_argument(
        "--tenants", type=str, default="paid:1,standard:2,free:2",
        metavar="SPEC",
        help="tenant mix as 'tier:count,...' over paid/standard/free",
    )
    flt.add_argument(
        "--streams-per-tenant", type=int, default=1, metavar="N",
        help="detector streams each tenant declares",
    )
    flt.add_argument("--batches", type=int, default=16, help="ingest batches")
    flt.add_argument(
        "--batch", type=int, default=60, help="frames per ingest batch"
    )
    flt.add_argument("--size", type=int, default=16, help="frame side length")
    flt.add_argument("--ell", type=int, default=8, help="sketch size")
    flt.add_argument(
        "--publish-every", type=int, default=1, metavar="N",
        help="publish a snapshot every N consumed batches",
    )
    flt.add_argument(
        "--qps", type=float, default=60.0,
        help="aggregate query load in queries per virtual second "
             "(60 ~= 5.2M queries/day)",
    )
    flt.add_argument(
        "--ingest-ranks", type=int, default=1, metavar="R",
        help="when > 1, each shard sketches its batches across R "
             "simulated ranks (DistributedSketchRunner tree merge)",
    )
    flt.add_argument(
        "--queue-depth", type=int, default=64, help="per-shard queue capacity"
    )
    flt.add_argument(
        "--max-batch", type=int, default=32,
        help="requests drained per shard per process round",
    )
    flt.add_argument(
        "--shared-cache", type=int, default=512,
        help="fleet-wide shared result-cache entries (0 disables)",
    )
    flt.add_argument(
        "--cache-size", type=int, default=128,
        help="per-shard local query-cache entries (0 disables)",
    )
    flt.add_argument(
        "--kill", type=str, default=None, metavar="SPEC",
        help="fleet fault plan: 'seed=N; kill shard=shard-1 batch=4' "
             "clauses; failover is replayed bit-identically",
    )
    flt.add_argument("--seed", type=int, default=0)
    flt.add_argument(
        "--json", action="store_true",
        help="print the fleet report as JSON instead of a table",
    )
    flt.add_argument(
        "--report-out", type=str, default=None, metavar="PATH",
        help="also write the fleet report JSON to PATH",
    )
    flt.add_argument(
        "--html", type=str, default=None,
        help="write an HTML fleet panel",
    )
    flt.add_argument(
        "--trace-out", type=str, default=None, metavar="PATH",
        help="write a merged Chrome/Perfetto trace (spans, fleet flow "
             "arrows, kill markers) to PATH on exit",
    )
    _add_metrics_args(flt)

    top = sub.add_parser(
        "top", help="live metric/alert dashboard over a serve replay"
    )
    top.add_argument("--scenario", choices=["beam", "diffraction"], default="beam")
    top.add_argument("--shots", type=int, default=400)
    top.add_argument("--size", type=int, default=48, help="frame side length")
    top.add_argument("--batch", type=int, default=100, help="frames per ingest batch")
    top.add_argument("--ell", type=int, default=24, help="initial sketch size")
    top.add_argument("--seed", type=int, default=0)
    top.add_argument(
        "--publish-every", type=int, default=2, metavar="N",
        help="publish a sketch snapshot every N consumed batches",
    )
    top.add_argument(
        "--queries-per-batch", type=int, default=6, metavar="Q",
        help="queries the load generator issues per ingest batch",
    )
    top.add_argument(
        "--alert-rules", type=str, default=None, metavar="SPEC",
        help="extra alert rules (';'-separated; see docs/observability.md)",
    )
    top.add_argument(
        "--plain", action="store_true",
        help="print frames sequentially instead of ANSI screen refresh",
    )

    cha = sub.add_parser("chaos", help="distributed run under a seeded fault plan")
    cha.add_argument(
        "--fault-plan", type=str, default="seed=7; kill rank=3 rotation=2",
        metavar="SPEC",
        help="fault plan spec: 'seed=N; kind key=value ...' clauses "
             "(kinds: drop, delay, corrupt, stall, kill); see "
             "docs/fault_tolerance.md",
    )
    cha.add_argument("--ranks", type=int, default=8)
    cha.add_argument("--rows-per-rank", type=int, default=120)
    cha.add_argument("--dim", type=int, default=60)
    cha.add_argument("--ell", type=int, default=24)
    cha.add_argument("--strategy", choices=["serial", "tree"], default="tree")
    cha.add_argument("--arity", type=int, default=2)
    cha.add_argument("--seed", type=int, default=0, help="dataset seed")
    cha.add_argument(
        "--checkpoint-dir", type=str, default=None, metavar="DIR",
        help="enable periodic checkpoints + restart of killed ranks",
    )
    cha.add_argument(
        "--json", action="store_true",
        help="print the degradation report as JSON instead of a table",
    )
    _add_metrics_args(cha)

    cam = sub.add_parser(
        "campaign", help="run a declarative multi-task campaign"
    )
    cam.add_argument(
        "--spec", type=str, default=None, metavar="PATH",
        help="campaign spec file (.yaml/.yml/.json) declaring the "
             "runs x detectors x variants matrix, dependencies and retry "
             "policy (default: a built-in two-run demo campaign); see "
             "docs/campaigns.md for the grammar",
    )
    cam.add_argument(
        "--workdir", type=str, default=None, metavar="DIR",
        help="working directory for per-task checkpoint trees "
             "(default: a temporary directory discarded on exit)",
    )
    cam.add_argument(
        "--faults", type=str, default=None, metavar="SPEC",
        help="campaign chaos plan: 'seed=N; kind task=PATTERN ...' "
             "clauses (kinds: kill, stall, corrupt_checkpoint); see "
             "docs/campaigns.md",
    )
    cam.add_argument(
        "--seed", type=int, default=None,
        help="override the spec's campaign seed",
    )
    cam.add_argument(
        "--wall-timeout", type=float, default=None, metavar="SECONDS",
        help="SIGALRM wall-clock safety budget for the whole campaign "
             "(the per-attempt timeout in the spec is virtual and "
             "separate)",
    )
    cam.add_argument(
        "--json", action="store_true",
        help="print the campaign report as JSON instead of a table",
    )
    cam.add_argument(
        "--report-out", type=str, default=None, metavar="PATH",
        help="also write the campaign report JSON to PATH",
    )
    cam.add_argument(
        "--html", type=str, default=None,
        help="write an HTML campaign report",
    )
    _add_metrics_args(cam)
    return parser


# ----------------------------------------------------------------------
def _sketch_kwargs(args: argparse.Namespace) -> dict:
    """ARAMSConfig kwargs honoring --backend/--target-error.

    Non-fd backends have fixed sketch budgets, so the --epsilon rank
    adaptation is dropped for them (ARAMSConfig would reject the
    combination).
    """
    kwargs = dict(
        ell=args.ell, beta=args.beta, epsilon=args.epsilon, seed=args.seed
    )
    backend = getattr(args, "backend", "fd")
    if backend != "fd":
        kwargs["epsilon"] = None
        kwargs["backend"] = backend
        kwargs["target_error"] = getattr(args, "target_error", None)
    return kwargs


def _describe_backend(arams) -> str:
    """One status line naming the active backend (+ auto evidence)."""
    name = getattr(type(arams.sketcher), "backend_name", None) or "fd"
    selection = getattr(arams, "selection", None)
    if selection is None:
        return name
    evidence = ", ".join(
        f"{c.name}: err={c.error:.4f}"
        f"{'' if c.meets_target else ' (misses target)'}"
        for c in selection.candidates
    )
    target = (
        f" for target {selection.target_error}"
        if selection.target_error is not None
        else ""
    )
    return f"{name} (auto{target}; probe: {evidence})"


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.core.arams import ARAMSConfig
    from repro.data.beam import BeamProfileConfig, BeamProfileGenerator
    from repro.data.diffraction import DiffractionConfig, DiffractionGenerator
    from repro.data.stream import CorruptionPlan, StreamCorruptor
    from repro.pipeline.checkpoint import (
        load_pipeline_checkpoint,
        save_pipeline_checkpoint,
    )
    from repro.pipeline.monitor import MonitoringPipeline
    from repro.pipeline.results import ascii_density_map, export_embedding_csv

    registry = _command_registry()
    shape = (args.size, args.size)
    if args.scenario == "beam":
        gen = BeamProfileGenerator(BeamProfileConfig(shape=shape), seed=args.seed)
    else:
        gen = DiffractionGenerator(DiffractionConfig(shape=shape), seed=args.seed)
    images, truth = gen.sample(args.shots)

    corruptor = None
    if args.corruption:
        corruptor = StreamCorruptor(CorruptionPlan.parse(args.corruption))
        if args.no_guard:
            print("note: --corruption requires the frame guard; ignoring --no-guard")

    if args.resume:
        if not args.checkpoint_dir:
            print("error: --resume requires --checkpoint-dir", file=sys.stderr)
            return 2
        pipe = load_pipeline_checkpoint(args.checkpoint_dir, registry=registry)
        print(f"resumed        : {pipe.n_offered} shots already offered, "
              f"ell={pipe.sketcher.ell}")
    else:
        pipe = MonitoringPipeline(
            image_shape=shape,
            seed=args.seed,
            sketch=ARAMSConfig(**_sketch_kwargs(args)),
            umap={"n_epochs": 200, "n_neighbors": 15},
            optics={"min_samples": max(10, args.shots // 50)},
            cluster_method=args.cluster,
            hdbscan={"min_cluster_size": max(15, args.shots // 40)},
            registry=registry,
            guard=(corruptor is not None) or not args.no_guard,
        )
    already_offered = pipe.n_offered
    skipped = 0
    consumed_batches = 0
    checkpoint_every = max(args.checkpoint_every, 1)
    with registry.span("cli.monitor") as run_span:
        for start in range(0, args.shots, 250):
            stop = min(start + 250, args.shots)
            ids = np.arange(start, stop, dtype=np.int64)
            frames = images[start:stop]
            if corruptor is not None:
                frames, ids, _ = corruptor.apply(frames, ids)
            if skipped + len(frames) <= already_offered:
                skipped += len(frames)  # batch already inside the checkpoint
                continue
            pipe.consume(frames, shot_ids=ids)
            consumed_batches += 1
            if args.checkpoint_dir and consumed_batches % checkpoint_every == 0:
                save_pipeline_checkpoint(pipe, args.checkpoint_dir)
        if args.checkpoint_dir and consumed_batches % checkpoint_every != 0:
            save_pipeline_checkpoint(pipe, args.checkpoint_dir)
        result = pipe.analyze()
    total = run_span.elapsed

    print(f"scenario       : {args.scenario} ({args.shots} shots of {shape[0]}x{shape[1]})")
    print(f"sketch         : ell={pipe.sketcher.ell} (started {args.ell}), "
          f"beta={args.beta}, epsilon={args.epsilon}")
    print(f"backend        : {_describe_backend(pipe.sketcher)}")
    print(f"ingest rate    : {pipe.throughput_hz():.1f} Hz")
    print(f"total wall time: {total:.1f}s "
          f"({', '.join(f'{k}={v:.2f}s' for k, v in result.timings.items())})")
    if corruptor is not None:
        inj = ", ".join(f"{k}={v}" for k, v in sorted(corruptor.stats.items()))
        print(f"corruption     : {corruptor.n_injected} injected ({inj or 'none'})")
    if pipe.guard is not None:
        g = pipe.guard.summary()
        rej = ", ".join(f"{k}={v}" for k, v in sorted(g["by_reason"].items()))
        print(f"frame guard    : {g['accepted']}/{g['offered']} accepted, "
              f"{g['rejected']} rejected ({rej or 'none'}), "
              f"{g['missing_shots']} shot ids missing")
    stage_bits = ", ".join(
        f"{name}={'ok' if s.ok else 'DEGRADED -> ' + (s.fallback or '?')}"
        for name, s in result.stages.items()
    )
    print(f"stages         : {stage_bits}")
    print(f"clusters       : {result.n_clusters} "
          f"({int((result.labels == -1).sum())} noise points)")
    print(f"anomalies      : {int(result.outliers.sum())} flagged")
    if args.scenario == "beam":
        from repro.data.beam import measured_asymmetry, measured_circularity
        from repro.pipeline.results import embedding_axis_correlations

        sel = (result.shot_ids if result.shot_ids is not None
               else np.arange(args.shots))
        corr = embedding_axis_correlations(
            result.embedding,
            {
                "asymmetry": measured_asymmetry(images)[sel],
                "circularity": measured_circularity(images)[sel],
            },
            mask=~truth["exotic"][sel],
        )
        for name, (best, other) in corr.items():
            print(f"  axis corr {name:12s}: best |r|={best:.2f} other |r|={other:.2f}")
    print()
    print(ascii_density_map(result.embedding,
                            labels=result.labels if args.scenario == "diffraction" else None,
                            width=72, height=20))
    if args.csv:
        path = export_embedding_csv(args.csv, result.embedding, result.labels)
        print(f"\nembedding exported to {path}")
    if args.html:
        from repro.pipeline.html_report import write_embedding_report

        path = write_embedding_report(
            args.html,
            result.embedding,
            labels=result.labels,
            outliers=result.outliers,
            title=f"ARAMS {args.scenario} run ({args.shots} shots)",
            health=pipe.health_summary(),
            guard=pipe.guard.summary() if pipe.guard is not None else None,
            stages=result.stage_summary(),
        )
        print(f"interactive report written to {path}")
    _write_metrics(registry, args)
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.data.synthetic import synthetic_dataset
    from repro.parallel.scaling import strong_scaling_study

    cores = [int(c) for c in args.cores.split(",")]
    data = synthetic_dataset(
        n=args.rows, d=args.dim, rank=min(args.rows, args.dim, 192),
        profile="cubic", rate=0.05, seed=args.seed,
    )
    records = strong_scaling_study(data, cores, ell=args.ell)
    print(f"{'strategy':8s} {'cores':>5s} {'makespan_s':>11s} {'eff':>6s} "
          f"{'seq.SVDs':>9s} {'rel_err':>10s}")
    for r in records:
        print(f"{r.strategy:8s} {r.cores:5d} {r.makespan:11.4f} "
              f"{r.efficiency:6.2f} {r.merge_rotations_critical_path:9d} "
              f"{r.error:10.2e}")
    return 0


def _cmd_sketch(args: argparse.Namespace) -> int:
    from repro.core.arams import ARAMS, ARAMSConfig
    from repro.core.errors import relative_covariance_error
    from repro.data.synthetic import synthetic_dataset
    from repro.obs.health import SketchHealth

    registry = _command_registry()
    data = synthetic_dataset(
        n=args.rows, d=args.dim, rank=min(args.rows, args.dim) // 2,
        profile=args.profile, rate=0.05, seed=args.seed,
    )
    variants = {
        "FD (fixed rank)": dict(beta=1.0, epsilon=None),
        "FD (rank adaptive)": dict(beta=1.0, epsilon=args.epsilon),
        "PS+FD (fixed rank)": dict(beta=args.beta, epsilon=None),
        "PS+FD (rank adaptive) = ARAMS": dict(beta=args.beta, epsilon=args.epsilon),
    }
    print(f"{'variant':32s} {'runtime_s':>10s} {'final_ell':>9s} {'rel_err':>10s}")
    for name, kw in variants.items():
        cfg = ARAMSConfig(ell=args.ell, nu=10, seed=args.seed, **kw)
        sk = ARAMS(d=args.dim, config=cfg)
        SketchHealth(registry, labels={"variant": name}).attach(sk)
        with registry.span("sketch.fit", tags={"variant": name}) as sp:
            sk.fit(data)
        err = relative_covariance_error(data, sk.sketch)
        print(f"{name:32s} {sp.elapsed:10.3f} {sk.ell:9d} {err:10.2e}")
    _write_metrics(registry, args)
    return 0


def _cmd_xpcs(args: argparse.Namespace) -> int:
    from repro.core.arams import ARAMSConfig
    from repro.data.beam import BeamProfileConfig, BeamProfileGenerator
    from repro.data.xpcs import XPCSConfig, XPCSGenerator, speckle_contrast
    from repro.pipeline.monitor import MonitoringPipeline

    states = [
        (dict(circularity_range=(0.9, 1.0), lobe_separation=0.02,
              asymmetry_range=(-0.05, 0.05)), 1),
        (dict(circularity_range=(0.35, 0.45), lobe_separation=0.10,
              asymmetry_range=(-0.1, 0.1)), 2),
        (dict(circularity_range=(0.6, 0.75), lobe_separation=0.30,
              asymmetry_range=(0.55, 0.75)), 4),
    ]
    per_state = max(args.shots // len(states), 30)
    beams, contrasts = [], []
    for sid, (beam_kw, modes) in enumerate(states):
        bgen = BeamProfileGenerator(
            BeamProfileConfig(shape=(48, 48), exotic_fraction=0.0, **beam_kw),
            seed=args.seed + sid,
        )
        xgen = XPCSGenerator(
            XPCSConfig(shape=(48, 48), speckle_size=2.0, n_modes=modes,
                       tau_shots=5.0),
            seed=args.seed + 50 + sid,
        )
        imgs, _ = bgen.sample(per_state)
        beams.append(imgs)
        contrasts.append(speckle_contrast(xgen.sample(per_state)))
    beams_all = np.concatenate(beams)
    contrast_all = np.concatenate(contrasts)

    pipe = MonitoringPipeline(
        image_shape=(48, 48), seed=args.seed, n_latent=12,
        umap={"n_epochs": 150, "n_neighbors": 15},
        optics={"min_samples": max(20, per_state // 10)},
        sketch=ARAMSConfig(ell=20, beta=0.85, epsilon=0.05, seed=args.seed),
        outlier_contamination=None,
    )
    res = pipe.consume(beams_all).analyze()
    print(f"pooled speckle contrast : {contrast_all.mean():.3f} "
          f"+/- {contrast_all.std():.3f}")
    for c in sorted(set(res.labels.tolist()) - {-1}):
        members = res.labels == c
        mc = contrast_all[members]
        print(f"beam cluster {c} (n={int(members.sum()):4d}): "
              f"{mc.mean():.3f} +/- {mc.std():.3f}")
    print(f"noise shots             : {(res.labels == -1).sum()}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.arams import ARAMSConfig
    from repro.data.beam import BeamProfileConfig, BeamProfileGenerator
    from repro.data.diffraction import DiffractionConfig, DiffractionGenerator
    from repro.pipeline.monitor import MonitoringPipeline
    from repro.serve import (
        QUERY_KINDS,
        AdmissionController,
        QueryEngine,
        ServeRejected,
        SketchServer,
        SnapshotStore,
        TokenBucket,
        VirtualClock,
    )

    if not args.replay:
        print(
            "error: live serving needs an external data source; "
            "use --replay for the deterministic replay mode",
            file=sys.stderr,
        )
        return 2

    registry = _command_registry()
    shape = (args.size, args.size)
    if args.scenario == "beam":
        gen = BeamProfileGenerator(BeamProfileConfig(shape=shape), seed=args.seed)
    else:
        gen = DiffractionGenerator(DiffractionConfig(shape=shape), seed=args.seed)
    images, _ = gen.sample(args.shots)

    pipe = MonitoringPipeline(
        image_shape=shape,
        seed=args.seed,
        sketch=ARAMSConfig(**_sketch_kwargs(args)),
        umap={"n_epochs": 150, "n_neighbors": 15},
        optics={"min_samples": max(10, args.shots // 50)},
        registry=registry,
    )
    store = pipe.attach_snapshot_store(
        SnapshotStore(keep=args.keep, registry=registry),
        every_batches=args.publish_every,
    )
    clock = VirtualClock()
    bucket = TokenBucket(rate=args.rate, burst=args.burst, clock=clock)
    trace_sink = trace_root = None
    if args.trace_out:
        from repro.obs import TraceContext, TraceSink

        trace_sink = TraceSink()
        trace_root = TraceContext.root(f"serve-replay-seed{args.seed}")
    admission = AdmissionController(
        clock,
        max_queue=args.queue_depth,
        default_deadline=args.deadline,
        bucket=bucket,
        registry=registry,
        trace_sink=trace_sink,
        trace_context=trace_root,
    )
    engine = QueryEngine(store, registry=registry, cache_size=args.cache_size)
    server = SketchServer(engine, admission)

    # Timelines + alerting on the serving clock: the built-in FD-bound
    # SLO, a serve-p99 burn-rate SLO, plus any --alert-rules extras.
    from repro.obs import AlertManager, BurnRateRule, FDBoundRule, Timeline, parse_rules

    timeline = Timeline(registry, clock=clock.now)
    for metric in ("arams_rank", "serve_queue_depth", "pipeline_images_total"):
        timeline.track(metric)
    timeline.track("serve_query_seconds", {"kind": "project"}, field="p99")
    alerts = AlertManager(
        timeline,
        rules=[
            FDBoundRule(ell=args.ell),
            BurnRateRule(
                "serve_p99_slo",
                "serve_query_seconds",
                objective=args.slo_p99,
                budget=0.10,
                window_seconds=5.0,
                labels={"kind": "project"},
                field="p99",
                severity="warning",
            ),
        ],
        trace_sink=trace_sink,
        trace_context=trace_root,
    )
    if args.alert_rules:
        for rule in parse_rules(args.alert_rules.replace(";", "\n")):
            alerts.add_rule(rule)
    pipe.attach_timeline(timeline)
    pipe.attach_alerts(alerts)

    # Deterministic load generator: a seeded RNG of its own (never the
    # pipeline's), issuing a weighted mix of query kinds against mostly
    # the latest epoch, sometimes a pinned past epoch, and occasionally
    # a doomed pin — so every typed shed path is exercised on replay.
    rng = np.random.default_rng(args.seed + 9001)
    kind_weights = dict(zip(
        QUERY_KINDS, (0.30, 0.20, 0.15, 0.10, 0.25)
    ))
    payload_pool: list[np.ndarray] = []
    n_issued = 0
    n_served = 0
    batch = max(args.batch, 1)
    ingest_hz = 120.0  # nominal LCLS-I repetition rate for the virtual clock
    with registry.span("cli.serve") as run_span:
        for start in range(0, args.shots, batch):
            frames = images[start : min(start + batch, args.shots)]
            pipe.consume(frames)
            clock.advance(frames.shape[0] / ingest_hz)
            if len(store) == 0:
                continue  # nothing published yet; clients have no epochs
            for _ in range(args.queries_per_batch):
                kind = str(rng.choice(list(kind_weights), p=list(kind_weights.values())))
                payload = None
                if kind in ("project", "residual", "outlier_score"):
                    if payload_pool and rng.random() < 0.5:
                        # Re-issue a recent payload: cache-hit traffic.
                        payload = payload_pool[int(rng.integers(len(payload_pool)))]
                    else:
                        m = int(rng.integers(1, 9))
                        idx = rng.integers(0, frames.shape[0], size=m)
                        payload = pipe.preprocessor.apply_flat(frames[idx])
                        payload_pool.append(payload)
                        if len(payload_pool) > 32:
                            payload_pool.pop(0)
                epoch = None
                roll = rng.random()
                if roll < 0.25:
                    epoch = int(rng.choice(store.epochs()))
                elif roll < 0.30:
                    epoch = 10_000 + n_issued  # never published: typed shed
                n_issued += 1
                try:
                    server.submit(kind, payload=payload, epoch=epoch)
                except ServeRejected:
                    pass  # counted by reason in the admission summary
            n_served += len(server.process())
        n_served += len(server.process())
        # Final observability tick so the tail of the run is covered.
        timeline.sample()
        alerts.evaluate()
    total = run_span.elapsed

    n_batches = (args.shots + batch - 1) // batch
    adm = admission.summary()
    by_kind = {}
    for kind in QUERY_KINDS:
        c = registry.get_sample("serve_queries_total", labels={"kind": kind})
        if c is not None and c.value:
            by_kind[kind] = int(c.value)
    shed = {reason: n for reason, n in adm["shed"].items() if n}
    hits, misses = engine.n_hits, engine.n_misses
    ratio = engine.cache_hit_ratio()
    latency_ms = {}
    for kind in QUERY_KINDS:
        h = registry.get_sample("serve_query_seconds", labels={"kind": kind})
        if h is not None and h.count:
            latency_ms[kind] = {
                "p50": h.quantile(0.5) * 1e3,
                "p99": h.quantile(0.99) * 1e3,
            }

    print(f"serve replay   : {args.scenario}, {args.shots} shots of "
          f"{shape[0]}x{shape[1]} in {n_batches} batches, "
          f"publish every {args.publish_every}")
    print(f"backend        : {_describe_backend(pipe.sketcher)}")
    print(f"epochs         : {store.published} published, {len(store)} retained "
          f"(latest {store.latest().epoch if len(store) else '-'})")
    print(f"queries        : {n_issued} issued, {adm['admitted']} admitted, "
          f"{n_served} served")
    if by_kind:
        print("  by kind      : "
              + ", ".join(f"{k}={v}" for k, v in by_kind.items()))
    print("shed           : "
          + (", ".join(f"{k}={v}" for k, v in sorted(shed.items())) or "none"))
    ratio_s = f"{ratio:.1%}" if np.isfinite(ratio) else "n/a"
    print(f"cache          : {hits} hits / {misses} misses ({ratio_s} hit ratio)")
    for kind, q in latency_ms.items():
        print(f"  latency {kind:12s}: p50={q['p50']:.3f}ms p99={q['p99']:.3f}ms")
    print(f"wall time      : {total:.1f}s "
          f"(virtual serving time {clock.now():.2f}s)")
    fired = [e for e in alerts.events if e.state == "firing"]
    active = alerts.active()
    print(f"alerts         : {len(alerts.rules)} rules, {len(fired)} fired, "
          f"{len(active)} active"
          + (f" ({', '.join(sorted(active))})" if active else ""))
    for ev in alerts.events[-5:]:
        print(f"  [{ev.at:8.3f}s] {ev.state:8s} {ev.rule} ({ev.severity}): "
              f"{ev.message}")

    if args.trace_out:
        from repro.obs import write_chrome_trace

        path = write_chrome_trace(
            args.trace_out,
            registry=registry,
            sink=trace_sink,
            serve_lanes=((0, "submit"), (1, "answer"), (2, "epochs"),
                         (99, "alerts")),
        )
        print(f"merged trace written to {path} "
              f"({len(trace_sink.points)} flow points)")

    if args.html:
        from repro.pipeline.html_report import write_embedding_report

        result = pipe.analyze()
        serving = {
            "epochs_published": store.published,
            "latest_epoch": store.latest().epoch if len(store) else None,
            "served": n_served,
            "queries": by_kind,
            "shed": shed,
            "cache": {"hits": hits, "misses": misses, "ratio": ratio},
            "latency_ms": latency_ms,
        }
        alerts_panel = {
            "active": [
                {"rule": name, "since": since}
                for name, since in sorted(alerts.active().items())
            ],
            "events": [e.to_dict() for e in alerts.events],
            "timelines": {
                f"{s.name}" + (f".{s.field}" if s.field != "value" else ""):
                    list(zip(s.times(), s.values()))
                for s in timeline.all_series()
                if len(s)
            },
        }
        path = write_embedding_report(
            args.html,
            result.embedding,
            labels=result.labels,
            outliers=result.outliers,
            title=f"ARAMS {args.scenario} serve replay ({args.shots} shots)",
            health=pipe.health_summary(),
            stages=result.stage_summary(),
            serving=serving,
            alerts=alerts_panel,
        )
        print(f"interactive report written to {path}")
    _write_metrics(registry, args, alerts=alerts.events)
    return 0


def _parse_tenant_mix(spec: str, streams_per_tenant: int) -> list:
    """Build TenantSpecs from a ``tier:count,...`` mix string."""
    from repro.serve import TENANT_TIERS, TenantSpec

    streams = tuple(f"det{i}" for i in range(streams_per_tenant))
    tenants = []
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        tier, _, count = clause.partition(":")
        if tier not in TENANT_TIERS:
            raise ValueError(
                f"unknown tenant tier {tier!r}; expected one of "
                f"{sorted(TENANT_TIERS)}"
            )
        for i in range(int(count or 1)):
            tenants.append(
                TenantSpec(f"{tier}{i}", tier=tier, streams=streams)
            )
    if not tenants:
        raise ValueError(f"empty tenant mix {spec!r}")
    return tenants


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.clock import StopWatch
    from repro.serve import FleetFaultPlan, FleetReplay, SketchFleet

    if not args.replay:
        print(
            "error: a live fleet needs external data sources; "
            "use --replay for the deterministic replay mode",
            file=sys.stderr,
        )
        return 2

    registry = _command_registry()
    try:
        tenants = _parse_tenant_mix(args.tenants, args.streams_per_tenant)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    plan = FleetFaultPlan.parse(args.kill) if args.kill else None
    trace_sink = trace_root = None
    if args.trace_out:
        from repro.obs import TraceContext, TraceSink

        trace_sink = TraceSink()
        trace_root = TraceContext.root(f"fleet-replay-seed{args.seed}")

    fleet = SketchFleet(
        tenants,
        n_shards=args.shards,
        replication=args.replication,
        image_shape=(args.size, args.size),
        ell=args.ell,
        publish_every=args.publish_every,
        ingest_ranks=args.ingest_ranks,
        shared_cache_size=args.shared_cache,
        local_cache_size=args.cache_size,
        max_queue=args.queue_depth,
        max_batch=args.max_batch,
        fault_plan=plan,
        registry=registry,
        trace_sink=trace_sink,
        trace_context=trace_root,
        seed=args.seed,
    )
    replay = FleetReplay(
        fleet,
        batches=args.batches,
        frames_per_batch=args.batch,
        queries_per_second=args.qps,
        seed=args.seed,
    )
    with StopWatch() as sw, registry.span("cli.fleet"):
        report = replay.run()
    wall = sw.elapsed

    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        rp = report["replay"]
        print(f"fleet replay   : {len(tenants)} tenants x "
              f"{args.streams_per_tenant} streams on {args.shards} shards "
              f"(replication {args.replication}), {args.batches} batches")
        print(f"load           : {rp['issued']} issued over "
              f"{report['virtual_seconds']:.2f} virtual s "
              f"({rp['queries_per_day']:,.0f} queries/day extrapolated)")
        print(f"queries        : {report['submitted']} submitted, "
              f"{report['answered']} answered")
        print("shed           : "
              + (", ".join(f"{k}={v}" for k, v in sorted(report["shed"].items())
                           if v) or "none"))
        for tier, q in report["tiers"].items():
            print(f"  {tier:<13}: {q['answered']} answered, "
                  f"p50={q['p50_ms']:.3f}ms p99={q['p99_ms']:.3f}ms")
        cache = report["cache"]
        print(f"cache          : shared {cache['shared_hits']}/"
              f"{cache['shared_hits'] + cache['shared_misses']} hits, "
              f"local {cache['local_hits']}/"
              f"{cache['local_hits'] + cache['local_misses']} hits")
        print(f"failover       : {report['failovers']} kills, "
              f"{report['requeued']} requeued, recovery max "
              f"{report['recovery_seconds_max']:.4f}s")
        for name in sorted(fleet.shards):
            shard = fleet.shards[name]
            state = "alive" if shard.alive else f"killed @{shard.killed_at:.2f}s"
            print(f"  {name:<13}: {state}, {len(shard.entries)} streams, "
                  f"{shard.admission.n_admitted} admitted")
        diverged = [
            key
            for key, per_shard in report["sketch_sha"].items()
            if len({v for v in per_shard.values() if v != '-'}) > 1
        ]
        lost_total = sum(report["lost"].values())
        print(f"invariants     : lost={lost_total}, "
              f"replica divergence={'none' if not diverged else diverged}")
        print(f"wall time      : {wall:.1f}s "
              f"(virtual {report['virtual_seconds']:.2f}s)")

    if args.report_out:
        from pathlib import Path

        Path(args.report_out).write_text(
            _json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"fleet report written to {args.report_out}")
    if args.html:
        from repro.pipeline.html_report import write_fleet_report

        path = write_fleet_report(
            args.html,
            report,
            title=f"ARAMS fleet replay ({len(tenants)} tenants, "
                  f"{args.shards} shards)",
        )
        print(f"fleet panel written to {path}")
    if args.trace_out:
        from repro.obs import write_chrome_trace

        path = write_chrome_trace(
            args.trace_out,
            registry=registry,
            sink=trace_sink,
            serve_lanes=((0, "submit"), (1, "answer"), (3, "kills")),
        )
        print(f"merged trace written to {path} "
              f"({len(trace_sink.points)} flow points)")
    _write_metrics(registry, args)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.core.arams import ARAMSConfig
    from repro.data.beam import BeamProfileConfig, BeamProfileGenerator
    from repro.data.diffraction import DiffractionConfig, DiffractionGenerator
    from repro.obs import (
        AlertManager,
        FDBoundRule,
        Timeline,
        ascii_sparkline,
        parse_rules,
        render_alerts_table,
    )
    from repro.pipeline.monitor import MonitoringPipeline
    from repro.serve import (
        AdmissionController,
        QueryEngine,
        ServeRejected,
        SketchServer,
        SnapshotStore,
        VirtualClock,
    )

    registry = _command_registry()
    shape = (args.size, args.size)
    if args.scenario == "beam":
        gen = BeamProfileGenerator(BeamProfileConfig(shape=shape), seed=args.seed)
    else:
        gen = DiffractionGenerator(DiffractionConfig(shape=shape), seed=args.seed)
    images, _ = gen.sample(args.shots)

    pipe = MonitoringPipeline(
        image_shape=shape,
        seed=args.seed,
        sketch=ARAMSConfig(ell=args.ell, beta=0.8, epsilon=0.05, seed=args.seed),
        registry=registry,
    )
    store = pipe.attach_snapshot_store(
        SnapshotStore(keep=8, registry=registry), every_batches=args.publish_every
    )
    clock = VirtualClock()
    admission = AdmissionController(clock, max_queue=32, registry=registry)
    engine = QueryEngine(store, registry=registry)
    server = SketchServer(engine, admission)

    timeline = Timeline(registry, clock=clock.now)
    tracked = [
        ("arams_rank", None, "value", "sketch rank"),
        ("pipeline_images_total", None, "value", "images ingested"),
        ("serve_queue_depth", None, "value", "serve queue depth"),
        ("serve_query_seconds", {"kind": "project"}, "p99", "serve p99 (s)"),
    ]
    for metric, labels, field, _title in tracked:
        timeline.track(metric, labels, field=field)
    alerts = AlertManager(timeline, rules=[FDBoundRule(ell=args.ell)])
    if args.alert_rules:
        for rule in parse_rules(args.alert_rules.replace(";", "\n")):
            alerts.add_rule(rule)
    pipe.attach_timeline(timeline)
    pipe.attach_alerts(alerts)

    rng = np.random.default_rng(args.seed + 9001)
    batch = max(args.batch, 1)
    n_batches = (args.shots + batch - 1) // batch
    use_ansi = (not args.plain) and sys.stdout.isatty()

    def frame(i: int) -> str:
        lines = [
            f"repro-monitor top — batch {i}/{n_batches}  "
            f"virtual t={clock.now():.2f}s  epochs={store.published}",
            "",
            f"  {'metric':24s} {'value':>12s}  history",
        ]
        for metric, labels, field, title in tracked:
            s = timeline.series(metric, labels, field)
            if s is None or not len(s):
                lines.append(f"  {title:24s} {'—':>12s}")
                continue
            last = s.last()
            lines.append(
                f"  {title:24s} {last:12.4g}  {ascii_sparkline(s.values())}"
            )
        active = alerts.active()
        lines.append("")
        lines.append(
            f"  ACTIVE ALERTS ({len(active)})"
            + (f": {', '.join(sorted(active))}" if active else "")
        )
        tail = alerts.events[-6:]
        if tail:
            lines.append(
                "\n".join("  " + ln for ln in
                          render_alerts_table(tail).splitlines())
            )
        return "\n".join(lines)

    for i, start in enumerate(range(0, args.shots, batch), start=1):
        frames = images[start : min(start + batch, args.shots)]
        pipe.consume(frames)
        clock.advance(frames.shape[0] / 120.0)
        if len(store):
            for _ in range(args.queries_per_batch):
                kind = str(rng.choice(["project", "residual", "stats"]))
                payload = None
                if kind != "stats":
                    m = int(rng.integers(1, 5))
                    idx = rng.integers(0, frames.shape[0], size=m)
                    payload = pipe.preprocessor.apply_flat(frames[idx])
                try:
                    server.submit(kind, payload=payload)
                except ServeRejected:
                    pass
            server.process()
        # Refresh the sampled view so the frame reflects this batch's
        # serving work too (consume() sampled before the queries ran).
        timeline.sample()
        alerts.evaluate()
        if use_ansi:
            sys.stdout.write("\x1b[H\x1b[2J")
        print(frame(i))
        if not use_ansi:
            print()
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.core.errors import relative_covariance_error
    from repro.data.synthetic import sharded_synthetic_dataset
    from repro.parallel import ComputeCostModel, DistributedSketchRunner, FaultPlan

    plan = FaultPlan.parse(args.fault_plan)
    registry = _command_registry()
    shards = sharded_synthetic_dataset(
        n_shards=args.ranks, rows_per_shard=args.rows_per_rank, d=args.dim,
        rank=min(args.dim, args.rows_per_rank) // 2, profile="cubic",
        rate=0.05, seed=args.seed,
    )
    runner = DistributedSketchRunner(
        ell=args.ell, strategy=args.strategy, arity=args.arity,
        fault_plan=plan, checkpoint_dir=args.checkpoint_dir,
        compute_model=ComputeCostModel(), registry=registry,
    )
    result = runner.run(shards)
    report = result.degradation
    assert report is not None
    if args.json:
        print(report.to_json())
    else:
        print(f"fault plan     : {plan.to_spec()}")
        print(f"topology       : {args.strategy} merge, {args.ranks} ranks, "
              f"ell={args.ell}")
        print(f"status         : {'DEGRADED' if report.degraded else 'clean'}")
        print(f"ranks lost     : {report.ranks_lost or '-'}")
        print(f"ranks recovered: {report.ranks_recovered or '-'}")
        print(f"rows merged    : {report.rows_merged}/{report.rows_total} "
              f"({report.rows_dropped} dropped, {report.rows_recovered} recovered)")
        print(f"retries        : {report.retries} "
              f"(messages dropped {report.messages_dropped}, "
              f"corruptions detected {report.corruptions_detected})")
        print(f"checkpoints    : {report.checkpoints_written}")
        print(f"makespan       : {result.makespan:.6f}s (virtual)")
        if report.contributing_ranks:
            surviving = np.vstack([shards[i] for i in report.contributing_ranks])
            err = relative_covariance_error(surviving, result.sketch)
            print(f"covariance err : {err:.2e} on surviving rows "
                  f"(bound 2/ell = {2.0 / args.ell:.2e})")
    _write_metrics(registry, args)
    return 0


DEMO_CAMPAIGN = {
    "name": "demo-campaign",
    "seed": 7,
    "runs": [
        {"run": 1, "shots": 40, "batch": 10},
        {"run": 2, "shots": 30, "batch": 10},
    ],
    "detectors": [
        {"name": "epix", "size": 16, "scenario": "beam"},
        {"name": "jungfrau", "size": 16, "scenario": "diffraction"},
    ],
    "variants": [
        {"name": "fd", "ell": 8},
        {"name": "arams", "ell": 8, "beta": 0.8, "epsilon": 0.1},
    ],
    "dependencies": [{"task": "r0002/*", "after": "r0001/*"}],
    "retry": {"max_attempts": 3, "base": 0.25, "cap": 8.0, "jitter": 0.1},
    "checkpoint_every": 1,
}
"""The built-in demo matrix ``repro-monitor campaign`` runs by default."""


def _cmd_campaign(args: argparse.Namespace) -> int:
    import tempfile
    from dataclasses import replace as dc_replace
    from pathlib import Path

    from repro.campaign import CampaignSpec, CampaignSpecError
    from repro.campaign.scheduler import CampaignScheduler

    registry = _command_registry()
    try:
        if args.spec:
            spec = CampaignSpec.from_file(args.spec)
        else:
            spec = CampaignSpec.from_dict(DEMO_CAMPAIGN)
        if args.seed is not None:
            spec = dc_replace(spec, seed=args.seed)
        if args.workdir:
            workdir = Path(args.workdir)
            workdir.mkdir(parents=True, exist_ok=True)
            scheduler = CampaignScheduler(
                spec, workdir, faults=args.faults, registry=registry
            )
            report = scheduler.run(wall_timeout=args.wall_timeout)
        else:
            with tempfile.TemporaryDirectory(prefix="repro-campaign-") as tmp:
                scheduler = CampaignScheduler(
                    spec, tmp, faults=args.faults, registry=registry
                )
                report = scheduler.run(wall_timeout=args.wall_timeout)
    except CampaignSpecError as exc:
        print(f"error: invalid campaign: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    doc = report.to_dict()
    if args.json:
        print(report.to_json())
    else:
        policy = spec.retry
        print(f"campaign       : {spec.name} ({doc['tasks_total']} tasks = "
              f"{len(spec.runs)} runs x {len(spec.detectors)} detectors x "
              f"{len(spec.variants)} variants)")
        print(f"retry policy   : max_attempts={policy.max_attempts} "
              f"base={policy.base}s factor={policy.factor} cap={policy.cap}s "
              f"jitter={policy.jitter}")
        print(f"faults         : {args.faults or 'none'}")
        print(f"status         : {'DEGRADED' if doc['degraded'] else 'clean'} "
              f"({doc['tasks_succeeded']} succeeded, {doc['tasks_failed']} failed, "
              f"{doc['tasks_skipped']} skipped)")
        print(f"attempts       : {doc['attempts_total']} total, "
              f"{doc['retries_total']} retries, "
              f"{doc['tasks_resumed']} resumed, "
              f"{doc['tasks_restarted']} restarted from scratch")
        print(f"makespan       : {doc['makespan_virtual_seconds']:.3f}s (virtual)")
        active = scheduler.alerts.active()
        print(f"alerts         : {len(scheduler.alerts.rules)} rules, "
              f"{len(active)} active"
              + (f" ({', '.join(sorted(active))})" if active else ""))
        print()
        print(f"{'task':32s} {'state':10s} {'att':>3s} {'res':>3s} "
              f"{'frames':>6s} {'sketch':10s}")
        for task in doc["tasks"]:
            sha = (task["sketch_sha256"] or "-")[:10]
            print(f"{task['task_id']:32s} {task['state']:10s} "
                  f"{task['attempts']:3d} {'y' if task['resumed'] else '.':>3s} "
                  f"{task['n_frames']:6d} {sha:10s}"
                  + (f"  {task['error']}" if task["error"] else ""))

    if args.report_out:
        out = Path(args.report_out)
        out.write_text(report.to_json() + "\n")
        print(f"campaign report written to {out}")
    if args.html:
        from repro.pipeline.html_report import write_campaign_report

        path = write_campaign_report(
            args.html,
            doc,
            title=f"Campaign {spec.name}",
            alerts={
                "active": sorted(scheduler.alerts.active()),
                "events": [ev.to_dict() for ev in scheduler.alerts.events],
            },
        )
        print(f"campaign HTML report written to {path}")
    _write_metrics(registry, args, alerts=scheduler.alerts.events)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "monitor": _cmd_monitor,
        "scaling": _cmd_scaling,
        "sketch": _cmd_sketch,
        "xpcs": _cmd_xpcs,
        "serve": _cmd_serve,
        "fleet": _cmd_fleet,
        "top": _cmd_top,
        "chaos": _cmd_chaos,
        "campaign": _cmd_campaign,
    }
    from repro.obs.registry import get_default_registry, set_default_registry

    previous = get_default_registry()
    try:
        return handlers[args.command](args)
    finally:
        set_default_registry(previous)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
