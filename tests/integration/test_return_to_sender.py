"""The §4 alternative: return messages as not deliverable.

"An alternative to message forwarding is to return messages to their
senders as not deliverable. ... The disadvantage of this scheme is that
... more of the system would be involved in message forwarding and would
have to be aware of process migration."  We implement it as an ablation:
no forwarding address is left; the sender's kernel asks the process
manager for the new location and re-sends.
"""

from repro.kernel.ids import ProcessAddress
from repro.kernel.forwarding import UndeliverablePolicy
from repro.kernel.messages import MessageKind
from repro.workloads.pingpong import echo_server, pinger
from repro.workloads.results import ResultsBoard
from tests.conftest import drain, make_system


def make_rts_system(**overrides):
    return make_system(
        undeliverable_policy=UndeliverablePolicy.RETURN_TO_SENDER,
        leave_forwarding_address=False,
        notify_process_manager=True,
        **overrides,
    )


class TestReturnToSender:
    def test_no_forwarding_address_left(self):
        system = make_rts_system()

        def parked(ctx):
            while True:
                yield ctx.receive()

        pid = system.spawn(parked, machine=0, name="moved")
        system.migrate(pid, 2)
        drain(system)
        assert system.total_forwarding_entries() == 0
        assert system.where_is(pid) == 2

    def test_stale_message_still_delivered_via_pm_lookup(self):
        system = make_rts_system()
        got = []

        def receiver(ctx):
            msg = yield ctx.receive()
            got.append((msg.op, ctx.machine))
            yield ctx.exit()

        pid = system.spawn(receiver, machine=0, name="r")
        system.migrate(pid, 2)
        drain(system)
        # Stale send to machine 0; no forwarding address exists there.
        system.kernel(3).send_to_process(
            ProcessAddress(pid, 0), "stale", {}, kind=MessageKind.USER,
        )
        drain(system)
        assert got == [("stale", 2)]
        assert system.kernel(0).stats.nacks_sent >= 1

    def test_sender_links_patched_after_lookup(self):
        system = make_rts_system()
        board = ResultsBoard()
        server_box = {}

        def server(ctx):
            server_box["pid"] = ctx.pid
            yield from echo_server(ctx)

        system.spawn(server, machine=0, name="echo")
        client_pid = system.spawn(
            lambda ctx: pinger(ctx, rounds=6, gap=8_000, board=board,
                               key="rts"),
            machine=3, name="pinger",
        )
        system.loop.call_at(
            12_000, lambda: system.migrate(server_box["pid"], 1),
        )
        drain(system, max_events=5_000_000)
        transcript = board.only("rts-summary")["transcript"]
        # All rounds completed despite the NACK/lookup detour.
        assert [t["round"] for t in transcript] == list(range(6))
        assert transcript[-1]["server_machine"] == 1

    def test_message_to_dead_process_reported_undeliverable(self):
        from repro.kernel.ops import OP_UNDELIVERABLE

        system = make_rts_system()
        notices = []

        def brief(ctx):
            yield ctx.exit()

        def sender(ctx):
            yield ctx.sleep(5_000)
            yield ctx.send(ctx.bootstrap["peer"], op="too-late")
            msg = yield ctx.receive(timeout=200_000)
            notices.append(msg.op if msg else None)
            yield ctx.exit()

        dead = system.spawn(brief, machine=0)
        system.kernel(1).spawn(
            sender, name="sender",
            extra_links={"peer": ProcessAddress(dead, 0)},
        )
        drain(system)
        assert notices == [OP_UNDELIVERABLE]

    def test_more_machinery_involved_than_forwarding(self):
        """The paper's qualitative claim: the rejected design drags the
        process manager into every stale delivery.  Compare 'locate'
        traffic across the two designs for the same scenario."""

        def run(policy_kwargs):
            system = make_system(notify_process_manager=True,
                                 **policy_kwargs)
            got = []

            def receiver(ctx):
                while True:
                    msg = yield ctx.receive()
                    got.append(msg.op)

            pid = system.spawn(receiver, machine=0, name="r")
            system.migrate(pid, 2)
            drain(system)
            system.kernel(3).send_to_process(
                ProcessAddress(pid, 0), "stale", {}, kind=MessageKind.USER,
            )
            drain(system)
            assert got == ["stale"]
            return system.network.stats.sends_by_category.get("locate", 0)

        forwarding_locates = run({})
        rts_locates = run({
            "undeliverable_policy": UndeliverablePolicy.RETURN_TO_SENDER,
            "leave_forwarding_address": False,
        })
        assert forwarding_locates == 0
        assert rts_locates >= 1
