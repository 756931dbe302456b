"""Unit tests for the command-line interface."""

from __future__ import annotations

import csv
import json
import re
from html.parser import HTMLParser

import pytest

from repro.cli import build_parser, main

_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[+-]Inf|[-+0-9.e]+)$"
)


def _parse_prom(text: str) -> None:
    for line in text.splitlines():
        assert line.startswith("#") or _PROM_SAMPLE.match(line), line


def _parse_jsonl(text: str) -> None:
    assert [json.loads(line) for line in text.splitlines() if line]


def _parse_table(text: str) -> None:
    assert text.splitlines()[0].split()[:2] == ["metric", "type"]


def _parse_json(text: str) -> None:
    assert isinstance(json.loads(text), dict)


def _parse_trace(text: str) -> None:
    assert json.loads(text)["traceEvents"]


def _parse_csv(text: str) -> None:
    rows = list(csv.reader(text.splitlines()))
    assert rows[0][:3] == ["x", "y", "label"] and len(rows) > 1


def _parse_html(text: str) -> None:
    HTMLParser().feed(text)
    assert text.lstrip().lower().startswith("<!doctype html")


_TINY_CAMPAIGN = {
    "name": "cli-tiny",
    "seed": 3,
    "runs": [{"run": 1, "shots": 20, "batch": 5}],
    "detectors": [{"name": "epix", "size": 16, "scenario": "beam"}],
    "variants": [{"name": "fd", "ell": 6}],
    "retry": {"max_attempts": 2, "base": 0.25, "jitter": 0.0},
}

#: Every subcommand once at tiny sizes with its output flags: command
#: line (``{d}`` is the test's tmp dir) and the files it must write,
#: each with the parser that must accept it.
_COMMANDS = {
    "monitor": (
        "monitor --shots 60 --size 16 --ell 8 --corruption 'seed=1; nan prob=0.1' "
        "--csv {d}/m.csv --html {d}/m.html --checkpoint-dir {d}/ckpt "
        "--metrics-out {d}/m.prom",
        {"m.csv": _parse_csv, "m.html": _parse_html, "m.prom": _parse_prom},
    ),
    "monitor-resume": (
        "monitor --shots 60 --size 16 --ell 8 --checkpoint-dir {d}/ckpt --resume "
        "--metrics-out {d}/r.jsonl --metrics-format jsonl",
        {"r.jsonl": _parse_jsonl},
    ),
    "scaling": ("scaling --cores 1,2 --rows 64 --dim 48 --ell 8", {}),
    "sketch": (
        "sketch --rows 120 --dim 32 --ell 8 --metrics-out {d}/s.txt "
        "--metrics-format table",
        {"s.txt": _parse_table},
    ),
    "xpcs": ("xpcs --shots 90", {}),
    "serve": (
        "serve --replay --shots 60 --size 16 --batch 20 --ell 8 "
        "--alert-rules 'shed: rate(serve_queries_shed_total, 10s) > 5' "
        "--html {d}/v.html --trace-out {d}/v.trace --metrics-out {d}/v.prom",
        {"v.html": _parse_html, "v.trace": _parse_trace, "v.prom": _parse_prom},
    ),
    "fleet": (
        "fleet --replay --shards 2 --batches 3 --batch 12 --size 8 --ell 4 "
        "--tenants paid:1,free:1 --kill 'seed=1; kill shard=shard-1 batch=1' "
        "--json --report-out {d}/f.json --html {d}/f.html --trace-out {d}/f.trace "
        "--metrics-out {d}/f.jsonl --metrics-format jsonl",
        {"f.json": _parse_json, "f.html": _parse_html, "f.trace": _parse_trace,
         "f.jsonl": _parse_jsonl},
    ),
    "top": (
        "top --plain --shots 60 --size 16 --batch 20 --ell 8 "
        "--alert-rules 'deep: serve_queue_depth > 1000'",
        {},
    ),
    "chaos": (
        "chaos --ranks 4 --rows-per-rank 30 --dim 20 --ell 8 --json "
        "--fault-plan 'seed=7; kill rank=3 rotation=1; drop source=1 dest=0 prob=0.5' "
        "--metrics-out {d}/c.txt --metrics-format table",
        {"c.txt": _parse_table},
    ),
    "campaign": (
        "campaign --spec {d}/spec.json --workdir {d}/work "
        "--faults 'seed=1; kill task=r0001/* batch=2 attempt=1' --json "
        "--report-out {d}/k.json --html {d}/k.html --metrics-out {d}/k.prom",
        {"k.json": _parse_json, "k.html": _parse_html, "k.prom": _parse_prom},
    ),
}


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_monitor_defaults(self):
        args = build_parser().parse_args(["monitor"])
        assert args.scenario == "beam"
        assert args.shots == 600

    def test_scenario_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["monitor", "--scenario", "xpcs"])

    def test_scaling_core_list(self):
        args = build_parser().parse_args(["scaling", "--cores", "1,4,16"])
        assert args.cores == "1,4,16"

    def test_sketch_profile_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sketch", "--profile", "linear"])


class TestExecution:
    def test_sketch_command_runs(self, capsys):
        rc = main(["sketch", "--rows", "300", "--dim", "80", "--ell", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ARAMS" in out
        assert "rel_err" in out

    def test_scaling_command_runs(self, capsys):
        rc = main(["scaling", "--cores", "1,2", "--rows", "128",
                   "--dim", "256", "--ell", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tree" in out and "serial" in out

    def test_monitor_command_runs(self, capsys, tmp_path):
        csv = tmp_path / "emb.csv"
        rc = main([
            "monitor", "--shots", "150", "--size", "32", "--ell", "12",
            "--csv", str(csv),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "clusters" in out
        assert csv.exists()
        assert csv.read_text().startswith("x,y,label")

    def test_monitor_diffraction_scenario(self, capsys):
        rc = main([
            "monitor", "--scenario", "diffraction", "--shots", "150",
            "--size", "32", "--ell", "12",
        ])
        assert rc == 0
        assert "clusters" in capsys.readouterr().out


class TestXPCSCommand:
    def test_xpcs_runs(self, capsys):
        rc = main(["xpcs", "--shots", "120", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pooled speckle contrast" in out
        assert "beam cluster" in out

    def test_monitor_hdbscan_backend(self, capsys):
        rc = main([
            "monitor", "--shots", "150", "--size", "32", "--ell", "12",
            "--cluster", "hdbscan",
        ])
        assert rc == 0
        assert "clusters" in capsys.readouterr().out


class TestChaos:
    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.strategy == "tree"
        assert args.fault_plan.doomed_ranks() == (3,)

    def test_chaos_run_prints_degradation(self, capsys):
        rc = main([
            "chaos", "--fault-plan", "seed=7; kill rank=3 rotation=2",
            "--ranks", "8", "--rows-per-rank", "60", "--dim", "40",
            "--ell", "16",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "DEGRADED" in out
        assert "ranks lost     : [3]" in out
        assert "covariance err" in out

    def test_chaos_json_matches_schema(self, capsys):
        import json as _json

        rc = main([
            "chaos", "--json",
            "--fault-plan", "seed=7; kill rank=3 rotation=2",
            "--ranks", "4", "--rows-per-rank", "60", "--dim", "40",
            "--ell", "16",
        ])
        assert rc == 0
        report = _json.loads(capsys.readouterr().out)
        assert report["schema_version"] == 1
        assert report["ranks_lost"] == [3]

    def test_chaos_with_checkpoints_recovers(self, capsys, tmp_path):
        rc = main([
            "chaos", "--fault-plan", "seed=7; kill rank=3 rotation=2",
            "--ranks", "8", "--rows-per-rank", "60", "--dim", "40",
            "--ell", "16", "--checkpoint-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ranks recovered: [3]" in out
        assert "(0 dropped" in out

    def test_bad_fault_plan_raises(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--fault-plan", "explode rank=1"])
        assert exc.value.code == 2
        assert "unknown fault kind" in capsys.readouterr().err


class TestCampaignCommand:
    SPEC = _TINY_CAMPAIGN

    def write_spec(self, tmp_path):
        import json

        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(self.SPEC))
        return path

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.spec is None and args.faults is None
        assert not args.json

    def test_campaign_runs_and_prints_table(self, capsys, tmp_path):
        rc = main(["campaign", "--spec", str(self.write_spec(tmp_path))])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cli-tiny" in out and "clean" in out
        assert "r0001/epix/fd" in out and "succeeded" in out

    def test_campaign_json_report(self, capsys, tmp_path):
        import json

        rc = main([
            "campaign", "--spec", str(self.write_spec(tmp_path)), "--json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 1
        assert doc["tasks_total"] == 1 and not doc["degraded"]

    def test_campaign_chaos_report_and_artifacts(self, capsys, tmp_path):
        import json

        report = tmp_path / "report.json"
        html = tmp_path / "report.html"
        rc = main([
            "campaign", "--spec", str(self.write_spec(tmp_path)),
            "--workdir", str(tmp_path / "work"),
            "--faults", "seed=1; kill task=r0001/* batch=2 attempt=1",
            "--report-out", str(report), "--html", str(html),
        ])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["degraded"] and doc["retries_total"] == 1
        assert doc["tasks"][0]["resumed"] is True
        page = html.read_text()
        assert "campaign orchestration" in page and "DEGRADED" in page

    def test_campaign_seed_override(self, capsys, tmp_path):
        import json

        spec = self.write_spec(tmp_path)
        shas = []
        for seed in ("3", "4"):
            main(["campaign", "--spec", str(spec), "--seed", seed, "--json"])
            doc = json.loads(capsys.readouterr().out)
            shas.append(doc["tasks"][0]["sketch_sha256"])
        assert shas[0] != shas[1]

    def test_campaign_invalid_spec_fails_cleanly(self, capsys, tmp_path):
        import json

        bad = dict(self.SPEC, variants=[])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        rc = main(["campaign", "--spec", str(path)])
        assert rc == 2
        assert "invalid campaign" in capsys.readouterr().err


class TestEveryCommandWithOutputs:
    """Characterization: each subcommand runs to exit 0 with its output
    flags, and every file it writes parses."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("cli")
        (d / "spec.json").write_text(json.dumps(_TINY_CAMPAIGN))
        return d

    @pytest.mark.parametrize("name", list(_COMMANDS))
    def test_runs_and_writes_parseable_files(self, name, workdir, capsys):
        import shlex

        line, outputs = _COMMANDS[name]
        assert main(shlex.split(line.format(d=workdir))) == 0
        out = capsys.readouterr().out
        assert out.strip()
        if name.startswith("monitor"):
            assert "clusters" in out
        if name == "monitor-resume":
            assert "resumed" in out
        for filename, parse in outputs.items():
            parse((workdir / filename).read_text())


class TestSpecFlags:
    """Every spec flag arrives parsed, and a malformed one is a usage
    error (exit 2, naming the flag and the parse message) before any
    work starts."""

    @pytest.mark.parametrize(
        "argv, flag, message",
        [
            (["monitor", "--corruption", "seed=1; nan wat=1"],
             "--corruption", "unknown corruption parameter 'wat'"),
            (["chaos", "--fault-plan", "drop whoops"],
             "--fault-plan", "malformed fault clause"),
            (["fleet", "--replay", "--kill", "kill batch=1"],
             "--kill", "fleet fault clause 'kill batch=1' needs shard="),
            (["fleet", "--replay", "--tenants", "gold:1"],
             "--tenants", "unknown tenant tier 'gold'"),
            (["campaign", "--faults", "kill task=x when=later"],
             "--faults", "unknown campaign fault parameter 'when'"),
            (["serve", "--replay", "--alert-rules", "no-colon-here"],
             "--alert-rules", "no-colon-here"),
            (["top", "--alert-rules", "r: m > 1 frobnicate"],
             "--alert-rules", "frobnicate"),
        ],
        ids=["monitor-corruption", "chaos-fault-plan", "fleet-kill",
             "fleet-tenants", "campaign-faults", "serve-alert-rules",
             "top-alert-rules"],
    )
    def test_malformed_spec_is_a_usage_error(self, argv, flag, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err
        assert message in err

    def test_specs_arrive_parsed(self):
        from repro.data.stream import CorruptionPlan
        from repro.parallel.faults import CampaignFaultPlan, FaultPlan
        from repro.serve.fleet import FleetFaultPlan

        parse = build_parser().parse_args
        assert parse(["monitor", "--corruption", "seed=2; dup"]).corruption == (
            CorruptionPlan(seed=2).duplicate()
        )
        assert parse(["chaos"]).fault_plan == FaultPlan(seed=7).kill(3, rotation=2)
        fleet = parse(["fleet", "--kill", "seed=1; kill shard=shard-1 batch=2"])
        assert fleet.kill == FleetFaultPlan(seed=1).kill("shard-1", 2)
        assert fleet.tenants == [("paid", 1), ("standard", 2), ("free", 2)]
        campaign = parse(["campaign", "--faults", "kill task=r* batch=2"])
        assert campaign.faults == CampaignFaultPlan().kill("r*", batch=2)
        rules = parse(["top", "--alert-rules", "a: m > 1; b: n < 2"]).alert_rules
        assert [r.name for r in rules] == ["a", "b"]


class TestCommandRegistry:
    """``main`` runs every command on its own registry and leaves the
    caller's default registry as it found it."""

    @pytest.mark.parametrize("name", list(_COMMANDS))
    def test_caller_registry_stays_empty(self, name, tmp_path, capsys):
        import shlex

        from repro.obs.registry import (
            Registry,
            get_default_registry,
            set_default_registry,
        )

        (tmp_path / "spec.json").write_text(json.dumps(_TINY_CAMPAIGN))
        line, _ = _COMMANDS[name]
        if name == "monitor-resume":
            assert main(shlex.split(_COMMANDS["monitor"][0].format(d=tmp_path))) == 0
        caller = Registry()
        previous = get_default_registry()
        set_default_registry(caller)
        try:
            assert main(shlex.split(line.format(d=tmp_path))) == 0
            assert get_default_registry() is caller
        finally:
            set_default_registry(previous)
        capsys.readouterr()
        assert list(caller.instruments()) == []
