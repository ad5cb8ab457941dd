"""Tests for the message representation."""

from repro.kernel.ids import ProcessAddress, ProcessId
from repro.kernel.links import LINK_WIRE_BYTES, Link, LinkSnapshot
from repro.kernel.messages import MESSAGE_HEADER_BYTES, Message, MessageKind
from tests.conftest import drain, make_bare_system


def addr(machine=0, local=1):
    return ProcessAddress(ProcessId(machine, local), machine)


class TestMessage:
    def test_wire_bytes_header_plus_payload(self):
        msg = Message(
            dest=addr(),
            sender=addr(1, 2),
            kind=MessageKind.USER,
            op="x",
            payload_bytes=100,
        )
        assert msg.wire_bytes == MESSAGE_HEADER_BYTES + 100

    def test_wire_bytes_counts_enclosed_links(self):
        snap = LinkSnapshot.of(Link(addr()))
        msg = Message(
            dest=addr(),
            sender=addr(1, 2),
            kind=MessageKind.USER,
            op="x",
            payload_bytes=10,
            links=(snap, snap),
        )
        assert msg.wire_bytes == (
            MESSAGE_HEADER_BYTES + 10 + 2 * LINK_WIRE_BYTES
        )

    def test_redirect_rewrites_location_and_counts(self):
        msg = Message(
            dest=addr(), sender=addr(1, 2), kind=MessageKind.USER, op="x"
        )
        original_pid = msg.dest.pid
        msg.redirect(5)
        assert msg.dest.pid == original_pid
        assert msg.dest.last_known_machine == 5
        assert msg.forward_count == 1
        msg.redirect(6)
        assert msg.forward_count == 2

    def test_serials_unique(self):
        # The sending kernel mints the serial: with the sender's machine
        # it names a message cluster-wide.
        system = make_bare_system()
        received = []
        system.kernel(2).register_control("probe", received.append)
        for machine in (0, 0, 1):
            system.kernel(machine).send_control(2, "probe", None, 8)
        drain(system)
        names = {(m.sender.last_known_machine, m.serial) for m in received}
        assert len(names) == 3

    def test_repr_flags(self):
        msg = Message(
            dest=addr(),
            sender=addr(),
            kind=MessageKind.USER,
            op="x",
            deliver_to_kernel=True,
        )
        msg.redirect(3)
        text = repr(msg)
        assert "D2K" in text and "fwd=1" in text

    def test_control_message_builder(self):
        # Kernel.send_control builds every kernel-to-kernel message.
        system = make_bare_system()
        received = []
        system.kernel(2).register_control("probe", received.append)
        for _ in range(2):
            system.kernel(0).send_control(2, "probe", {"pid": 1}, 12)
        drain(system)
        first, second = received
        assert first.kind is MessageKind.CONTROL
        assert first.category == "admin"
        assert first.dest.pid.is_kernel and first.dest.last_known_machine == 2
        assert first.sender is system.kernel(0).address
        assert first.payload_bytes == 12
        # One address per peer machine, minted once and then reused.
        assert second.dest is first.dest
