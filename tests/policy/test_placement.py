"""Tests for destination autonomy: fallback placement and domains (§3.2)."""

import pytest

from repro.errors import ConfigError
from repro.policy.domains import (
    Domain,
    DomainRegistry,
    refuse_foreign,
    size_capped,
)
from repro.policy.placement import migrate_with_fallback
from tests.conftest import drain, make_bare_system


def parked(ctx):
    while True:
        yield ctx.receive()


def refuse(pid, size):
    return False


class TestFallbackMigration:
    def test_first_choice_accepts(self):
        system = make_bare_system(machines=4)
        pid = system.spawn(parked, machine=0)
        outcome = migrate_with_fallback(system, pid, [1, 2, 3])
        drain(system)
        assert outcome.done and outcome.succeeded
        assert outcome.placed_on == 1
        assert outcome.refusals == []
        assert system.where_is(pid) == 1

    def test_rebuffed_source_looks_elsewhere(self):
        system = make_bare_system(machines=4)
        system.kernel(1).accept_migration = refuse
        system.kernel(2).accept_migration = refuse
        pid = system.spawn(parked, machine=0)
        outcome = migrate_with_fallback(system, pid, [1, 2, 3])
        drain(system)
        assert outcome.succeeded and outcome.placed_on == 3
        assert [m for m, _ in outcome.refusals] == [1, 2]
        assert len(outcome.records) == 3
        assert system.where_is(pid) == 3

    def test_everyone_refuses_leaves_process_home(self):
        system = make_bare_system(machines=3)
        system.kernel(1).accept_migration = refuse
        system.kernel(2).accept_migration = refuse
        pid = system.spawn(parked, machine=0)
        outcome = migrate_with_fallback(system, pid, [1, 2])
        drain(system)
        assert outcome.done and not outcome.succeeded
        assert system.where_is(pid) == 0
        # The process still works after every refusal.
        state = system.process_state(pid)
        assert state.status.value in ("ready", "waiting")

    def test_preference_for_current_machine_is_immediate(self):
        system = make_bare_system(machines=3)
        pid = system.spawn(parked, machine=0)
        outcome = migrate_with_fallback(system, pid, [0, 1])
        assert outcome.done and outcome.placed_on == 0

    def test_on_done_callback(self):
        system = make_bare_system(machines=3)
        pid = system.spawn(parked, machine=0)
        seen = []
        migrate_with_fallback(system, pid, [2], on_done=seen.append)
        drain(system)
        assert len(seen) == 1 and seen[0].placed_on == 2


class TestDomains:
    def build(self, admission):
        system = make_bare_system(machines=4)
        registry = DomainRegistry()
        registry.add(Domain("research", {0, 1}))
        registry.add(Domain("production", {2, 3}, admission=admission))
        registry.install(system)
        return system, registry

    def test_intra_domain_always_admitted(self):
        system, registry = self.build(refuse_foreign)
        pid = system.spawn(parked, machine=2)
        ticket = system.migrate(pid, 3)
        drain(system)
        assert ticket.success
        assert registry.domain_of(3).admitted == 1

    def test_suspicious_domain_refuses_foreign_process(self):
        system, registry = self.build(refuse_foreign)
        pid = system.spawn(parked, machine=0)
        ticket = system.migrate(pid, 2)
        drain(system)
        assert ticket.success is False
        assert system.where_is(pid) == 0
        assert registry.domain_of(2).refused == 1

    def test_size_capped_admission(self):
        from repro.kernel.memory import MemoryImage

        system, registry = self.build(size_capped(10_000))
        small = system.kernel(0).spawn(
            parked, name="small",
            memory=MemoryImage.sized(code=1_000, data=1_000, stack=500),
        )
        big = system.kernel(0).spawn(
            parked, name="big",
            memory=MemoryImage.sized(code=50_000, data=50_000, stack=500),
        )
        small_ticket = system.migrate(small, 2)
        drain(system)
        big_ticket = system.migrate(big, 2)
        drain(system)
        assert small_ticket.success
        assert big_ticket.success is False

    def test_leaving_a_domain_is_not_restricted(self):
        system, registry = self.build(refuse_foreign)
        pid = system.spawn(parked, machine=2)
        # production -> research: research accepts everyone.
        ticket = system.migrate(pid, 0)
        drain(system)
        assert ticket.success

    def test_overlapping_domains_rejected(self):
        registry = DomainRegistry()
        registry.add(Domain("a", {0, 1}))
        with pytest.raises(ConfigError):
            registry.add(Domain("b", {1, 2}))

    def test_domain_of(self):
        registry = DomainRegistry()
        d = registry.add(Domain("a", {0}))
        assert registry.domain_of(0) is d
        assert registry.domain_of(5) is None


class TestForwardingSweeper:
    def test_sweep_collects_old_entries(self):
        from repro.policy.gc import ForwardingSweeper

        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        system.migrate(pid, 1)
        drain(system)
        assert system.total_forwarding_entries() == 1
        sweeper = ForwardingSweeper(system, max_age=100_000)
        # Entry is young: nothing collected.
        assert sweeper.sweep_now() == 0
        system.run(until=system.loop.now + 200_000)
        assert sweeper.sweep_now() == 1
        assert system.total_forwarding_entries() == 0
        assert sweeper.stats.collected == 1

    def test_periodic_sweeper(self):
        from repro.policy.gc import ForwardingSweeper

        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        system.migrate(pid, 1)
        drain(system)
        sweeper = ForwardingSweeper(
            system, interval=50_000, max_age=100_000,
        )
        sweeper.install()
        system.run(until=400_000)
        sweeper.stop()
        assert system.total_forwarding_entries() == 0
        assert sweeper.stats.sweeps >= 2

    def test_message_after_sweep_falls_back_to_undeliverable(self):
        from repro.kernel.messages import MessageKind
        from repro.kernel.ids import ProcessAddress
        from repro.policy.gc import ForwardingSweeper

        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        system.migrate(pid, 1)
        drain(system)
        system.run(until=system.loop.now + 200_000)
        ForwardingSweeper(system, max_age=100_000).sweep_now()
        system.kernel(2).send_to_process(
            ProcessAddress(pid, 0), "stale", {}, kind=MessageKind.USER,
        )
        drain(system)
        assert system.kernel(0).stats.undeliverable == 1
