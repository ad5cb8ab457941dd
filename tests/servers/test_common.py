"""Tests for the server/client RPC conventions."""

from repro.errors import ServerError
from repro.servers.common import rpc, serve_reply
from tests.conftest import drain, make_bare_system
from repro.kernel.ids import ProcessAddress


class TestRpcRoundTrip:
    def wire(self, server_program, client_program):
        system = make_bare_system()
        server_pid = system.spawn(server_program, machine=0, name="srv")
        system.kernel(1).spawn(
            client_program, name="cli",
            extra_links={"srv": ProcessAddress(server_pid, 0)},
        )
        drain(system)
        return system

    def test_rpc_returns_reply_message(self):
        out = {}

        def server(ctx):
            msg = yield ctx.receive()
            yield from serve_reply(ctx, msg, "pong", {"v": 42})
            yield ctx.exit()

        def client(ctx):
            reply = yield from rpc(ctx, ctx.bootstrap["srv"], "ping")
            out["op"] = reply.op
            out["v"] = reply.payload["v"]
            yield ctx.exit()

        self.wire(server, client)
        assert out == {"op": "pong", "v": 42}

    def test_rpc_timeout_returns_none(self):
        out = {}

        def server(ctx):
            yield ctx.receive()  # never replies
            yield ctx.receive()

        def client(ctx):
            reply = yield from rpc(
                ctx, ctx.bootstrap["srv"], "ping", timeout=10_000,
            )
            out["reply"] = reply
            yield ctx.exit()

        self.wire(server, client)
        assert out["reply"] is None

    def test_rpc_raises_on_dead_service(self):
        out = {}

        def server(ctx):
            yield ctx.exit()

        def client(ctx):
            yield ctx.sleep(5_000)
            try:
                yield from rpc(ctx, ctx.bootstrap["srv"], "ping")
            except ServerError:
                out["raised"] = True
            yield ctx.exit()

        self.wire(server, client)
        assert out.get("raised")

    def test_serve_reply_echoes_req_id(self):
        out = {}

        def server(ctx):
            msg = yield ctx.receive()
            yield from serve_reply(ctx, msg, "pong",
                                   {"stale_req_id": "overwritten"})
            yield ctx.exit()

        def client(ctx):
            reply_link = yield ctx.create_link()
            yield ctx.send(ctx.bootstrap["srv"], op="ping",
                          payload={"req_id": ("me", 7)},
                          links=(reply_link,))
            reply = yield ctx.receive()
            out["req_id"] = reply.payload["req_id"]
            yield ctx.exit()

        self.wire(server, client)
        assert out["req_id"] == ("me", 7)

    def test_serve_reply_without_reply_link_is_noop(self):
        out = {"served": False}

        def server(ctx):
            msg = yield ctx.receive()
            yield from serve_reply(ctx, msg, "pong", {})
            out["served"] = True
            yield ctx.exit()

        def client(ctx):
            yield ctx.send(ctx.bootstrap["srv"], op="fire-and-forget")
            yield ctx.exit()

        self.wire(server, client)
        assert out["served"]

    def test_reply_link_destroyed_after_use(self):
        """Reply links are the paper's short-lived links: used once and
        torn down on both sides."""
        counts = {}

        def server(ctx):
            msg = yield ctx.receive()
            yield from serve_reply(ctx, msg, "pong", {})
            info = yield ctx.get_info()
            counts["server_links"] = info["link_count"]
            yield ctx.exit()

        def client(ctx):
            reply = yield from rpc(ctx, ctx.bootstrap["srv"], "ping")
            assert reply is not None
            info = yield ctx.get_info()
            counts["client_links"] = info["link_count"]
            yield ctx.exit()

        self.wire(server, client)
        # Server: reply link materialised then destroyed -> 0.
        assert counts["server_links"] == 0
        # Client: bootstrap link to the server remains, reply link gone.
        assert counts["client_links"] == 1
