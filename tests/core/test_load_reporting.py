"""Tests for in-system load/memory reporting (§3.1)."""

from repro.servers.common import rpc
from tests.conftest import drain, make_system


class TestLoadReporting:
    def test_pm_accumulates_load_reports(self):
        system = make_system()
        system.start_load_reporting(10_000)
        status = {}

        def probe(ctx):
            yield ctx.sleep(50_000)
            reply = yield from rpc(
                ctx, ctx.bootstrap["process_manager"], "status", {},
            )
            status.update(reply.payload)
            yield ctx.exit()

        system.spawn(probe, machine=2, name="probe")
        system.run(until=100_000)
        system.stop_load_reporting()
        drain(system)
        loads = status["loads"]
        assert set(loads) == {0, 1, 2, 3}
        assert all("run_queue" in entry for entry in loads.values())

    def test_memory_scheduler_places_by_real_free_memory(self):
        # Fill machine 0's memory so reports steer placement elsewhere.
        system = make_system()
        system.start_load_reporting(10_000)
        system.kernel(0).memory.reserve("ballast",
                                        system.kernel(0).memory.free_bytes)
        placement = {}

        def probe(ctx):
            yield ctx.sleep(40_000)
            reply = yield from rpc(
                ctx, ctx.bootstrap["memory_scheduler"], "place",
                {"bytes": 10_000},
            )
            placement.update(reply.payload)
            yield ctx.exit()

        system.spawn(probe, machine=2, name="probe")
        system.run(until=120_000)
        system.stop_load_reporting()
        drain(system)
        assert placement["ok"]
        assert placement["machine"] != 0
        system.kernel(0).memory.cancel_reservation("ballast")

    def test_reporting_off_by_default(self):
        system = make_system()
        system.run(until=100_000)
        sends = system.network.stats.sends_by_category
        assert sends.get("load", 0) == 0

    def test_stop_load_reporting_lets_loop_drain(self):
        system = make_system()
        system.start_load_reporting(5_000)
        system.run(until=20_000)
        system.stop_load_reporting()
        drain(system)  # would hang (assert) if the timer kept rearming
