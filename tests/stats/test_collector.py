"""Tests for the system-wide report collector."""

from repro.core.config import SystemConfig
from repro.obs.metrics import merge_snapshots
from repro.sim.shard import ShardedSystem
from repro.stats.collector import collect_report, report_from_snapshot
from tests.conftest import drain, make_bare_system, make_system


def parked(ctx):
    while True:
        yield ctx.receive()


class TestCollector:
    def test_fresh_system_report_is_zeroed(self):
        system = make_bare_system()
        report = collect_report(system)
        assert report.machines == 3
        assert report.processes_alive == 0
        assert report.migrations_completed == 0
        assert report.forwarding_entries == 0

    def test_report_after_migration(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        system.migrate(pid, 1)
        drain(system)
        report = collect_report(system)
        assert report.processes_alive == 1
        assert report.migrations_completed == 1
        assert report.admin_messages == 9
        assert report.admin_bytes == 74
        assert report.state_bytes_moved > 250 + 440
        assert report.forwarding_entries == 1
        assert report.forwarding_residual_bytes == 8
        assert report.total_downtime > 0
        assert report.sends_by_category.get("admin") == 9

    def test_report_counts_refusals_separately(self):
        system = make_bare_system()
        system.kernel(1).accept_migration = lambda p, s: False
        pid = system.spawn(parked, machine=0)
        system.migrate(pid, 1)
        drain(system)
        report = collect_report(system)
        assert report.migrations_completed == 0
        assert report.migrations_refused == 1

    def test_lines_render_every_headline_number(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        system.migrate(pid, 1)
        drain(system)
        text = "\n".join(collect_report(system).lines())
        assert "migrations: 1 completed" in text
        assert "9 messages, 74 payload bytes" in text
        assert "1 live entries (8 bytes)" in text

    def test_per_machine_load_present(self):
        system = make_bare_system(machines=2)
        report = collect_report(system)
        assert set(report.per_machine_load) == {0, 1}


class TestRequestLatencySection:
    def test_absent_without_closed_loop_workload(self):
        system = make_bare_system()
        report = collect_report(system)
        assert report.request_latency is None
        assert report.to_dict()["request_latency"] is None
        assert not any("request latency" in line for line in report.lines())

    def test_digest_after_closed_loop_run(self):
        from repro.workloads.closed_loop import ClientPool, ClosedLoopConfig
        from repro.workloads.pingpong import echo_server

        system = make_system()
        system.spawn(lambda ctx: echo_server(ctx), machine=1, name="echo")
        pool = ClientPool(
            system, ClosedLoopConfig(clients=2, requests_per_client=3)
        )
        pool.install()
        drain(system)
        assert pool.done
        report = collect_report(system)
        digest = report.request_latency
        assert digest is not None
        assert digest["count"] == 6
        assert 0 < digest["p50_us"] <= digest["p95_us"] <= digest["p99_us"]
        assert digest["p99_us"] <= digest["max_us"]
        rendered = "\n".join(report.lines())
        assert "request latency: p50" in rendered
        assert "(6 requests)" in rendered
        assert report.to_dict()["request_latency"]["count"] == 6

    def test_per_domain_digests_after_open_loop_run(self):
        from repro.workloads.closed_loop import ClientPool, OpenLoopConfig
        from repro.workloads.pingpong import echo_server

        system = make_system()
        for machine, name in ((1, "svc-a"), (2, "svc-b")):
            system.spawn(
                lambda ctx, _n=name: echo_server(ctx, service_name=_n),
                machine=machine, name=name,
            )
        pool = ClientPool(
            system,
            OpenLoopConfig(clients=8, mean_interarrival_us=20_000,
                           duration=120_000, deadline_us=50_000),
            services=("svc-a", "svc-b"),
            domains={"svc-a": "east", "svc-b": "west"},
        )
        pool.install()
        drain(system, max_events=5_000_000)
        report = collect_report(system)
        domains = report.request_latency_by_domain
        assert set(domains) == {"east", "west"}
        assert sum(d["count"] for d in domains.values()) == (
            report.request_latency["count"]
        )
        rendered = "\n".join(report.lines())
        assert "domain east: p50" in rendered
        assert report.to_dict()["request_latency_by_domain"]["west"][
            "count"
        ] == domains["west"]["count"]

    def test_domain_section_empty_without_domain_labels(self):
        system = make_bare_system()
        report = collect_report(system)
        assert report.request_latency_by_domain == {}
        assert report.to_dict()["request_latency_by_domain"] == {}


class TestShardSyncLine:
    @staticmethod
    def _line(executor):
        system = ShardedSystem(SystemConfig(
            machines=4, topology="torus", shards=2,
        ))
        snapshots = system.execute(
            50_000, lambda shard: shard.metrics.snapshot(),
            executor=executor,
        )
        # The fork executor leaves the parent's system stale, so the
        # report is assembled from the snapshots the workers shipped.
        report = report_from_snapshot(
            merge_snapshots(snapshots), now=50_000, machines=4,
        )
        assert report.sync_overhead["rounds"] > 0
        return next(
            line for line in report.lines()
            if line.startswith("shard sync:")
        )

    def test_bytes_are_named_only_when_bytes_were_shipped(self):
        assert "bytes" not in self._line("serial")
        assert "bytes shipped" in self._line("fork")
