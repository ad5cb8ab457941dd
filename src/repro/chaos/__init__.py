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
:class:`~repro.chaos.scenario.Scenario` record run by
:func:`~repro.chaos.runner.run_scenario`.  See
``docs/CHAOS.md`` for the record format and the invariant list.
"""
