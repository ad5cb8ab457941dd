"""Tests for the timeline renderer, a view of migration spans."""

from repro.kernel.ids import ProcessAddress
from repro.stats.timeline import (
    forwarding_story,
    migration_timeline,
    render_timeline,
)
from tests.conftest import drain, make_bare_system


def parked(ctx):
    while True:
        yield ctx.receive()


class TestTimeline:
    def test_empty_timeline(self):
        assert render_timeline([]) == "(no migration events)"
        assert migration_timeline([]) == []

    def test_real_migration_renders_all_eight_steps(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        system.migrate(pid, 1)
        drain(system)
        entries = migration_timeline(system.spans(), pid=str(pid))
        labels = [e.label for e in entries]
        assert labels[0].startswith("1 freeze")
        assert labels[-1].startswith("8 restart")
        assert len(entries) == 9  # step 4 appears twice
        assert entries[0].detail == "machine=0 dest=1 saved=ready"
        text = render_timeline(entries)
        assert "1 freeze (source)" in text
        assert "8 restart (destination)" in text
        assert text.count("|>") == 9

    def test_timeline_filters_by_pid(self):
        system = make_bare_system()
        a = system.spawn(parked, machine=0)
        b = system.spawn(parked, machine=1)
        system.migrate(a, 1)
        system.migrate(b, 2)
        drain(system)
        only_a = migration_timeline(system.spans(), pid=str(a))
        both = migration_timeline(system.spans())
        assert len(both) == 2 * len(only_a)

    def test_entries_monotone_in_time(self):
        system = make_bare_system()
        a = system.spawn(parked, machine=0)
        b = system.spawn(parked, machine=2)
        system.migrate(a, 1)
        system.run(until=500)
        system.migrate(b, 0)  # overlaps a's migration
        drain(system)
        entries = migration_timeline(system.spans())
        assert len(entries) == 18
        times = [e.time for e in entries]
        assert times == sorted(times)

    def test_forwarding_story(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        system.migrate(pid, 1)
        drain(system)
        client = system.spawn(parked, machine=2)  # gives updates a home

        def chatty(ctx):
            yield ctx.send(ctx.bootstrap["target"], op="hi")
            yield ctx.receive(timeout=50_000)
            yield ctx.exit()

        system.kernel(2).spawn(
            chatty, name="chatty",
            extra_links={"target": ProcessAddress(pid, 0)},
        )
        drain(system)
        story = forwarding_story(system.spans(), str(pid))
        assert any("redirected to machine 1" in line for line in story)
        assert any("retargeted to machine 1" in line for line in story)
        assert forwarding_story(system.spans(), str(client)) == []
