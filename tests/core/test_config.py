"""Tests for SystemConfig validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.system import System
from repro.errors import ConfigError
from repro.kernel.ids import ProcessAddress
from repro.kernel.forwarding import UndeliverablePolicy
from repro.kernel.memory import MemoryImage
from repro.net.channel import FaultPlan
from repro.servers.common import rpc
from repro.sim.shard import ShardedSystem


class TestValidation:
    def test_defaults_valid(self):
        SystemConfig().validate()

    def test_zero_machines_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(machines=0).validate()

    def test_bad_topology_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(topology="moebius").validate()

    def test_all_shapes_accepted(self):
        for shape in ("mesh", "line", "torus"):
            SystemConfig(machines=4, topology=shape).validate()

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(latency=-1).validate()

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(bandwidth=0).validate()

    @pytest.mark.parametrize("rto", [0, -5])
    def test_non_positive_rto_rejected(self, rto):
        # rto=0 retransmits every tick and never quiesces; a negative
        # rto stops the run with packets unacked and no error.
        with pytest.raises(ConfigError, match="rto must be positive"):
            SystemConfig(rto=rto).validate()

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_non_positive_memory_capacity_rejected(self, capacity):
        # Else the server boot fails with MemoryError_, not ConfigError.
        with pytest.raises(ConfigError, match="memory_capacity must be"):
            SystemConfig(memory_capacity=capacity).validate()

    def test_memory_too_small_for_the_servers_rejected_at_boot(self):
        with pytest.raises(ConfigError, match="cannot hold the system"):
            System(SystemConfig(memory_capacity=1_000))

    def test_negative_jitter_rejected(self):
        with pytest.raises(ConfigError, match="max_jitter"):
            SystemConfig(faults=FaultPlan(max_jitter=-1)).validate()

    def test_control_machine_bounds(self):
        with pytest.raises(
            ConfigError,
            match=r"control_machine 2 is not one of the 2 machines \(0\.\.1\)",
        ):
            SystemConfig(machines=2, control_machine=2).validate()

    def test_fs_machine_bounds_only_when_booting_servers(self):
        with pytest.raises(
            ConfigError,
            match=r"file_system_machine 1 is not one of the 1 machines",
        ):
            SystemConfig(machines=1, file_system_machine=1).validate()
        SystemConfig(
            machines=1, file_system_machine=1, boot_servers=False,
        ).validate()

    def test_return_to_sender_requires_no_forwarding(self):
        with pytest.raises(ConfigError):
            SystemConfig(
                undeliverable_policy=UndeliverablePolicy.RETURN_TO_SENDER,
            ).validate()
        SystemConfig(
            undeliverable_policy=UndeliverablePolicy.RETURN_TO_SENDER,
            leave_forwarding_address=False,
        ).validate()


def _tiny():
    return MemoryImage.sized(code=256, data=64, stack=64)


def _echo(ctx):
    while True:
        msg = yield ctx.receive()
        yield ctx.send(msg.delivered_link_ids[0], op="pong")


def _ping(ctx, replies):
    for _ in range(2):
        reply = yield from rpc(ctx, ctx.bootstrap["echo"], "ping")
        replies.append(reply.op)
    yield ctx.exit()


def _mostly(good, edges):
    """Each good value eight times as likely as each edge, so that a
    useful share of draws builds and drains."""
    return st.sampled_from([*good] * 8 + [*edges])


class TestDrawnConfigs:
    @settings(max_examples=100, deadline=None)
    @given(drawn=st.fixed_dictionaries({
        "machines": _mostly(range(1, 17), [-1, 0]),
        "topology": _mostly(["mesh", "line", "torus"], ["bogus"]),
        "latency": _mostly([1, 100, 2_000], [-1, 0]),
        "bandwidth": _mostly([1, 1_000], [-1, 0]),
        # (a total blackout, drop 1.0, is legal and by design never
        # answers: tests lift it with set_faults)
        "faults": st.builds(
            FaultPlan, st.sampled_from([0.0, 0.05]),
            st.sampled_from([0.0, 0.05]), _mostly([0, 300], [-1]),
        ),
        "rto": _mostly([1, 5_000], [-5, 0]),
        "shards": _mostly([1, 2], [0, 3, 4]),
        "backbone_latency": _mostly([None], [-1, 50, 3_000]),
        "memory_capacity": _mostly([1 << 22], [-1, 0, 1_000, 20_000]),
        "undeliverable_policy": _mostly(
            [UndeliverablePolicy.FORWARD],
            [UndeliverablePolicy.RETURN_TO_SENDER],
        ),
        "leave_forwarding_address": _mostly([True], [False]),
        "send_link_updates": st.booleans(),
        "notify_process_manager": st.booleans(),
        "boot_servers": st.booleans(),
        "control_machine": _mostly([0, 1, 2], [-1, 16]),
        "file_system_machine": _mostly([0, 1, 2], [-1, 16]),
        "seed": st.integers(0, 2**32 - 1),
        "trace_categories": st.sampled_from([None, (), ("net",)]),
        "metrics_enabled": st.booleans(),
    }))
    def test_drawn_config_refuses_or_drains(self, drawn):
        """Any config is refused with ConfigError at build, or its
        engine drains a two-round ping to quiescence."""
        config = SystemConfig(**drawn)
        engine = System if config.shards == 1 else ShardedSystem
        try:
            cluster = engine(config)
        except ConfigError:
            return
        # Images small enough for whatever memory the servers left.
        last = config.machines - 1
        server = cluster.kernel(last).spawn(
            _echo, name="echo", memory=_tiny()
        )
        replies = []
        cluster.kernel(0).spawn(
            lambda ctx: _ping(ctx, replies), name="ping", memory=_tiny(),
            extra_links={"echo": ProcessAddress(server, last)},
        )
        assert cluster.run(max_events=200_000) < 200_000
        assert replies == ["pong", "pong"]
