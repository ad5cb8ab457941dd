"""Tests for SystemConfig validation."""

import pytest

from repro.core.config import SystemConfig
from repro.errors import ConfigError
from repro.kernel.kernel import UndeliverablePolicy


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
        for shape in (
            "mesh", "line", "ring", "star", "torus", "hypercube", "cliques",
        ):
            SystemConfig(machines=4, topology=shape).validate()

    def test_hypercube_requires_power_of_two(self):
        with pytest.raises(ConfigError):
            SystemConfig(machines=6, topology="hypercube").validate()
        SystemConfig(machines=8, topology="hypercube").validate()

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(latency=-1).validate()

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(bandwidth=0).validate()

    def test_zero_quantum_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(quantum=0).validate()

    def test_zero_packet_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(max_data_packet=0).validate()

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
