"""Chaos campaign engine: scripted failure scenarios with deterministic
survivor-invariant gates.

The paper's hardest demo is migrating a live file server mid-I/O; the
literature on process migration singles out *failure transparency* —
message delivery and state integrity across crashes and partitions — as
the property separating toy migration from deployable migration.  This
package composes the repo's failure primitives (fail-stop crashes via
:class:`~repro.policy.recovery.CrashRecoveryManager`, lossy wires via
:class:`~repro.net.channel.FaultPlan`, network partitions via
:meth:`~repro.net.network.Network.partition`, forced migration storms,
machine evacuation) into declarative, seeded, fully deterministic
campaigns, runs a live workload throughout, and gates survivor
invariants at quiescence instead of merely logging them.

Every experiment — a campaign scenario or a fuzz draw — is one
:class:`Scenario` record run by :func:`run_scenario`.  See
``docs/CHAOS.md`` for the record format and the invariant list.
"""

from repro.chaos.campaign import SCENARIOS, CampaignResult, run_campaign
from repro.chaos.engine import ChaosEngine, FaultEvent
from repro.chaos.fuzz import (
    FuzzReport,
    generate_schedule,
    load_repro,
    replay,
    run_fuzz,
    shrink,
    validate_schedule,
    write_repro,
)
from repro.chaos.invariants import (
    check_chain_collapse,
    check_exactly_once,
    check_memory_accounting,
    check_no_stranded_forwarding,
    check_quiescence,
    check_recovery_state,
    survivor_invariants,
)
from repro.chaos.runner import ScenarioOutcome, ledger_digest, run_scenario
from repro.chaos.scenario import ActionSpec, Scenario

__all__ = [
    "SCENARIOS",
    "ActionSpec",
    "CampaignResult",
    "ChaosEngine",
    "FaultEvent",
    "FuzzReport",
    "Scenario",
    "ScenarioOutcome",
    "check_chain_collapse",
    "check_exactly_once",
    "check_memory_accounting",
    "check_no_stranded_forwarding",
    "check_quiescence",
    "check_recovery_state",
    "generate_schedule",
    "ledger_digest",
    "load_repro",
    "replay",
    "run_campaign",
    "run_fuzz",
    "run_scenario",
    "shrink",
    "survivor_invariants",
    "validate_schedule",
    "write_repro",
]
