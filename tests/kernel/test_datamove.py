"""Tests for the move-data facility (paper §2.2)."""

from repro.errors import LinkAccessError, TransferError
from repro.kernel.ids import ProcessAddress
from repro.kernel.links import DataArea, LinkAttribute
from repro.kernel.memory import MemoryImage
from tests.conftest import drain, make_bare_system


def make_owner(area_length=4_096, writable=False, park=True):
    """An owner program that mints a data-area link and sends it to the
    process at bootstrap['holder']."""

    def owner(ctx):
        attrs = LinkAttribute.DATA_READ
        if writable:
            attrs |= LinkAttribute.DATA_WRITE
        data_link = yield ctx.create_link(attrs, DataArea(0, area_length))
        yield ctx.send(
            ctx.bootstrap["holder"], op="here-is-the-area", links=(data_link,)
        )
        if park:
            while True:
                yield ctx.receive()
        else:
            yield ctx.exit()

    return owner


def make_holder(direction, offset, length, outcome):
    def holder(ctx):
        msg = yield ctx.receive()
        area_link = msg.delivered_link_ids[0]
        try:
            moved = yield ctx.move_data(area_link, direction, offset, length)
            outcome["moved"] = moved
        except (LinkAccessError, TransferError) as exc:
            outcome["error"] = type(exc).__name__
        outcome["machine"] = ctx.machine
        yield ctx.exit()

    return holder


def wire_up(
    system, owner_machine, holder_machine, owner, holder, owner_memory=None,
):
    holder_pid = system.kernel(holder_machine).spawn(holder, name="holder")
    system.kernel(owner_machine).spawn(
        owner,
        name="owner",
        memory=owner_memory,
        extra_links={"holder": ProcessAddress(holder_pid, holder_machine)},
    )
    return holder_pid


class TestRead:
    def test_remote_read_completes_with_byte_count(self):
        system = make_bare_system()
        outcome = {}
        wire_up(
            system, 0, 1, make_owner(), make_holder("read", 0, 3_000, outcome)
        )
        drain(system)
        assert outcome["moved"] == 3_000

    def test_read_streams_in_packets(self):
        system = make_bare_system()
        outcome = {}
        wire_up(
            system, 0, 1, make_owner(), make_holder("read", 0, 4_096, outcome)
        )
        drain(system)
        assert outcome["moved"] == 4_096
        # ceil(4096/1024) = 4 chunks in the datamove category.
        assert system.network.stats.sends_by_category["datamove"] == 4

    def test_local_read_uses_no_network(self):
        system = make_bare_system()
        outcome = {}
        wire_up(
            system, 0, 0, make_owner(), make_holder("read", 0, 2_000, outcome)
        )
        before = system.network.stats.packets_sent
        drain(system)
        assert outcome["moved"] == 2_000
        assert system.network.stats.packets_sent == before

    def test_read_beyond_area_rejected(self):
        system = make_bare_system()
        outcome = {}
        wire_up(
            system,
            0,
            1,
            make_owner(area_length=1_000),
            make_holder("read", 500, 1_000, outcome),
        )
        drain(system)
        assert outcome["error"] == "LinkAccessError"

    def test_read_without_grant_rejected(self):
        system = make_bare_system()
        outcome = {}

        def owner(ctx):
            # DATA_WRITE only: reads must be refused.
            link = yield ctx.create_link(
                LinkAttribute.DATA_WRITE, DataArea(0, 1_000)
            )
            yield ctx.send(ctx.bootstrap["holder"], op="area", links=(link,))
            while True:
                yield ctx.receive()

        wire_up(system, 0, 1, owner, make_holder("read", 0, 100, outcome))
        drain(system)
        assert outcome["error"] == "LinkAccessError"


class TestWrite:
    def test_remote_write_completes(self):
        system = make_bare_system()
        outcome = {}
        wire_up(
            system,
            0,
            1,
            make_owner(writable=True),
            make_holder("write", 0, 2_500, outcome),
        )
        drain(system)
        assert outcome["moved"] == 2_500

    def test_write_without_grant_rejected(self):
        system = make_bare_system()
        outcome = {}
        wire_up(
            system,
            0,
            1,
            make_owner(writable=False),
            make_holder("write", 0, 100, outcome),
        )
        drain(system)
        assert outcome["error"] == "LinkAccessError"

    def test_bad_direction_rejected(self):
        system = make_bare_system()
        outcome = {}
        wire_up(
            system,
            0,
            1,
            make_owner(writable=True),
            make_holder("sideways", 0, 100, outcome),
        )
        drain(system)
        assert outcome["error"] == "TransferError"


class TestTransferVsMigration:
    def test_read_from_migrated_owner_follows_forwarding(self):
        """The data-move request rides a DELIVERTOKERNEL message, so it
        chases the owner through its forwarding address."""
        system = make_bare_system()
        outcome = {}

        def holder(ctx):
            msg = yield ctx.receive()          # the data-area link
            area_link = msg.delivered_link_ids[0]
            yield ctx.receive(timeout=20_000)  # wait out the migration
            moved = yield ctx.move_data(area_link, "read", 0, 1_024)
            outcome["moved"] = moved
            yield ctx.exit()

        holder_pid = system.kernel(1).spawn(holder, name="holder")
        owner_pid = system.kernel(0).spawn(
            make_owner(),
            name="owner",
            extra_links={"holder": ProcessAddress(holder_pid, 1)},
        )
        system.run(until=5_000)
        system.migrate(owner_pid, 2)
        drain(system)
        assert outcome["moved"] == 1_024

    def test_read_from_dead_owner_fails_cleanly(self):
        system = make_bare_system()
        outcome = {}

        def holder(ctx):
            msg = yield ctx.receive()
            area_link = msg.delivered_link_ids[0]
            yield ctx.receive(timeout=20_000)  # let the owner die
            try:
                yield ctx.move_data(area_link, "read", 0, 512)
            except TransferError as exc:
                outcome["error"] = "TransferError"
            yield ctx.exit()

        wire_up(system, 0, 1, make_owner(park=False), holder)
        drain(system)
        assert outcome["error"] == "TransferError"

    def test_holder_migrating_mid_transfer_still_completes(self):
        """Chunks and the completion chase the holder via forwarding."""
        system = make_bare_system(
            latency=2_000,  # slow wires: the transfer takes a while
        )
        outcome = {}

        def holder(ctx):
            msg = yield ctx.receive()
            area_link = msg.delivered_link_ids[0]
            moved = yield ctx.move_data(area_link, "read", 0, 24_576)
            outcome["moved"] = moved
            outcome["machine"] = ctx.machine
            yield ctx.exit()

        holder_pid = wire_up(
            system, 0, 1, make_owner(area_length=24_576), holder,
            owner_memory=MemoryImage.sized(data=24_576),
        )
        # Migrate the holder while chunks are in flight: the area link
        # arrives ~2ms (one wire latency), the read request ~4ms, and the
        # 24 chunks land from ~6ms — so at 4.5ms the transfer is pending.
        system.loop.call_at(4_500, lambda: system.migrate(holder_pid, 2))
        drain(system)
        assert outcome["moved"] == 24_576
        assert outcome["machine"] == 2
