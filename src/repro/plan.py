"""The clause grammar every seeded chaos plan shares.

A plan is a seed plus an ordered tuple of rules, written as
``;``-separated clauses with an optional ``seed=N`` clause::

    seed=7; kill rank=3 rotation=2; drop source=1 dest=0 prob=0.5

A clause is ``kind key=value ...``.  Its keys are the fields of the
plan's rule dataclass other than ``kind``; each value is read as that
field's declared type (``int | None`` reads as ``int``), and a field
without a default is required.  :meth:`SeededPlan.to_spec` writes the
canonical spec, so ``parse(plan.to_spec()) == plan`` for every plan.
This module imports nothing from ``repro``, so every package can use it.
"""

from __future__ import annotations

import typing
from dataclasses import MISSING, dataclass, fields, replace
from typing import Any, Callable, ClassVar, TypeVar

__all__ = ["SeededPlan"]

P = TypeVar("P", bound="SeededPlan")


def _reader(hint: Any) -> Callable[[str], Any]:
    """The type a spec value is read as: ``int | None`` reads as ``int``."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    return args[0] if args else hint


@dataclass(frozen=True)
class SeededPlan:
    """A seeded, declarative plan: a pure value, shareable between a
    test, a CLI invocation and a bug report.

    Subclasses name their rule dataclass in ``rule`` (its first field
    is ``kind``) and the noun their parse errors use in ``label``.
    """

    rule: ClassVar[type]
    label: ClassVar[str]

    seed: int = 0
    rules: tuple = ()

    def with_rule(self: P, rule: Any) -> P:
        """Return a copy of this plan with ``rule`` appended."""
        return replace(self, rules=self.rules + (rule,))

    @classmethod
    def parse(cls: type[P], spec: str) -> P:
        """Parse the ``seed=N; kind key=value ...`` spec syntax."""
        hints = typing.get_type_hints(cls.rule)
        keys = [f for f in fields(cls.rule) if f.name != "kind"]
        readers = {f.name: _reader(hints[f.name]) for f in keys}
        required = [f.name for f in keys if f.default is MISSING]
        seed = 0
        rules = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            tokens = clause.split()
            if len(tokens) == 1 and tokens[0].startswith("seed="):
                seed = int(tokens[0][len("seed="):])
                continue
            kwargs: dict[str, Any] = {}
            for token in tokens[1:]:
                if "=" not in token:
                    raise ValueError(
                        f"malformed {cls.label} clause {clause!r}: "
                        f"expected key=value, got {token!r}"
                    )
                key, value = token.split("=", 1)
                if key not in readers:
                    raise ValueError(
                        f"unknown {cls.label} parameter {key!r} in clause {clause!r}"
                    )
                kwargs[key] = readers[key](value)
            missing = [name for name in required if name not in kwargs]
            if missing:
                raise ValueError(
                    f"{cls.label} clause {clause!r} needs "
                    + " and ".join(f"{name}=" for name in missing)
                )
            rules.append(cls.rule(tokens[0], **kwargs))
        return cls(seed=seed, rules=tuple(rules))

    def to_spec(self) -> str:
        """The canonical spec, which :meth:`parse` reads back to this plan:
        required and non-default fields in field order, floats by ``str``."""
        clauses = [f"seed={self.seed}"]
        for rule in self.rules:
            parts = [rule.kind]
            for f in fields(rule):
                value = getattr(rule, f.name)
                if f.name != "kind" and (f.default is MISSING or value != f.default):
                    parts.append(f"{f.name}={value}")
            clauses.append(" ".join(parts))
        return "; ".join(clauses)
