"""The one clause grammar every seeded plan shares (``repro.plan``)."""

from __future__ import annotations

import pytest

from repro.data.stream import CorruptionPlan, CorruptionRule
from repro.parallel.faults import (
    CampaignFaultPlan,
    CampaignFaultRule,
    FaultPlan,
    FaultRule,
)
from repro.serve.fleet import FleetFaultPlan, FleetFaultRule

# Every rule field set away from its default; floats carry more
# significant digits than ``:g`` keeps.
PLANS = {
    "fault": FaultPlan(seed=11).with_rule(
        FaultRule("delay", source=1, dest=2, tag=3, rank=4, rotation=5,
                  seconds=0.1234567, prob=0.7654321, count=6, op=7)
    ),
    "campaign": CampaignFaultPlan(seed=12).with_rule(
        CampaignFaultRule("stall", task="r0001/*", attempt=2, batch=3,
                          seconds=1.2345678)
    ),
    "fleet": FleetFaultPlan(seed=13, rules=(FleetFaultRule("kill", "shard-1", 4),)),
    "corruption": CorruptionPlan(seed=14).with_rule(
        CorruptionRule("hot", prob=0.1234567, first=3, last=99, count=5,
                       pixels=7, factor=12345678.9)
    ),
}


@pytest.mark.parametrize("name", list(PLANS))
def test_every_plan_round_trips_through_its_spec(name):
    plan = PLANS[name]
    assert type(plan).parse(plan.to_spec()) == plan
