"""The seeded fault-campaign engine.

One :class:`~repro.chaos.plan.ChaosPlan` — parsed from a composable clause
grammar (``crash``, ``slow``, ``drop``, ``zoneout``, ``flashcrowd``,
``corrupt_checkpoint``, ``clock_skew``, …) — routes deterministic fault
injection to every layer that can fail:

* the runner scheduler (injected task-attempt failures),
* the service front-end (dropped connections, slow solves, crashes),
* the checkpoint store (torn journal records, garbled snapshots),
* the topology fault schedule (zone outages/partitions, node crashes),
* the workload emulator (flash crowds, diurnal cycles, clock skew).

The ``REPRO_CHAOS`` and ``REPRO_SERVICE_CHAOS`` environment variables
(and ``repro serve --chaos``) take the same grammar, restricted to the
clauses their layer can inject (``parse_plan(spec, layers=…)``), so a spec
that works there composes unchanged into a campaign.

:mod:`repro.chaos.campaign` executes a plan end-to-end — baseline run,
supervised chaos run under closed-loop load, invariant checks, report
artifact — behind ``repro chaos <plan>``.  Grammar reference:
``docs/CHAOS.md``.
"""

from repro.chaos.campaign import CampaignReport, run_campaign
from repro.chaos.plan import (
    ChaosPlan,
    TaskChaos,
    chaos_draw,
    parse_plan,
)

__all__ = [
    "CampaignReport",
    "ChaosPlan",
    "TaskChaos",
    "chaos_draw",
    "parse_plan",
    "run_campaign",
]
