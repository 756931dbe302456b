"""Every repo path the CI plan names exists.

``tools/ci.py`` hard-codes test files, bench files and directories per
tier.  Deleting or renaming one of them would leave that tier failing
on "file not found" long after the change that caused it, because only
the tier that names it ever reads the path.  This test reads the plan
the way CI does (``--list --json``) and checks every path in it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _plan() -> dict:
    out = subprocess.run(
        [sys.executable, "tools/ci.py", "--list", "--json"],
        cwd=REPO, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def _paths(argv: list[str]) -> list[str]:
    """The path operands of one step's argv.

    Skips the interpreter, every ``-flag`` and the operand of ``-m``
    (a module such as ``pytest`` or a marker expression such as
    ``chaos``); what is left names files or directories.
    """
    paths: list[str] = []
    args = iter(argv[1:])
    for arg in args:
        if arg == "-m":
            next(args, None)
        elif not arg.startswith("-"):
            paths.append(arg)
    return paths


def test_every_path_in_the_plan_exists():
    plan = _plan()
    named = [
        (tier["tier"], step["name"], path)
        for tier in plan["tiers"]
        for step in tier["steps"]
        for path in _paths(step["argv"])
    ]
    assert any(path.startswith("tests/") for _, _, path in named)
    missing = [entry for entry in named if not (REPO / entry[2]).exists()]
    assert missing == [], f"CI plan names paths that do not exist: {missing}"
