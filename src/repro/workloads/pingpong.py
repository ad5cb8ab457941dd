"""Message-exchange workloads: echo servers and pingers.

These exercise exactly the traffic pattern the forwarding/link-update
analysis (paper §5, §6) reasons about: a client holds a link to a server,
the server migrates, and the client's next messages go through the
forwarding address until the link-update message patches its table.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.registry import register_program
from repro.kernel.context import ProcessContext
from repro.servers.common import lookup_service, rpc
from repro.servers.switchboard import register_service
from repro.workloads.results import ResultsBoard


@register_program("echo-server")
def echo_server(
    ctx: ProcessContext,
    service_name: str = "echo",
    compute_per_request: int = 0,
) -> Generator[Any, Any, None]:
    """Register under *service_name* and echo every request's payload.

    Replies carry the server's current machine, so clients can watch the
    server move without any out-of-band channel.
    """
    yield from register_service(ctx, service_name)
    while True:
        msg = yield ctx.receive()
        if not msg.delivered_link_ids:
            continue
        if compute_per_request:
            yield ctx.compute(compute_per_request)
        reply_link = msg.delivered_link_ids[0]
        yield ctx.send(
            reply_link, op="echo-reply",
            payload={"echo": msg.payload, "machine": ctx.machine,
                     "forwarded": msg.forward_count},
            payload_bytes=msg.payload_bytes,
        )
        yield ctx.destroy_link(reply_link)


@register_program("pinger")
def pinger(
    ctx: ProcessContext,
    service_name: str = "echo",
    rounds: int = 10,
    payload_bytes: int = 32,
    gap: int = 0,
    board: ResultsBoard | None = None,
    key: str = "pinger",
) -> Generator[Any, Any, None]:
    """Send *rounds* echo requests and record each round-trip.

    Posts on *board* (nothing without one) one record per round:
    latency, which machine answered, and how many forwarding hops the
    request suffered (mirrored back by the server), plus a final summary
    under ``key + '-summary'``.
    """
    service = yield from lookup_service(ctx, service_name)
    transcript = []
    for round_no in range(rounds):
        sent_at = ctx.now
        reply = yield from rpc(
            ctx, service, "echo", {"round": round_no},
            payload_bytes=payload_bytes,
        )
        assert reply is not None
        transcript.append({
            "round": round_no,
            "latency": ctx.now - sent_at,
            "server_machine": reply.payload["machine"],
            "request_forwarded": reply.payload["forwarded"],
            "echo": reply.payload["echo"],
        })
        if board is not None:
            board.post(key, transcript[-1])
        if gap:
            yield ctx.sleep(gap)
    if board is not None:
        board.post(key + "-summary", {
            "pid": ctx.pid,
            "rounds": rounds,
            "transcript": transcript,
        })
    yield ctx.exit()


def make_pair_programs(
    board: ResultsBoard,
    rounds: int = 50,
    payload_bytes: int = 64,
    key: str = "pair",
):
    """Two tightly-coupled peers for communication-affinity experiments.

    Returns ``(leader, follower)`` program factories.  The leader creates
    a link to itself, passes it to the follower through the switchboard,
    and the two then exchange *rounds* messages; both post their total
    elapsed time.
    """

    def leader(ctx: ProcessContext):
        yield from register_service(ctx, f"{key}-leader")
        started = ctx.now
        for _ in range(rounds):
            msg = yield ctx.receive()
            reply_link = msg.delivered_link_ids[0]
            yield ctx.send(reply_link, op="pong", payload_bytes=payload_bytes)
            yield ctx.destroy_link(reply_link)
        board.post(key + "-leader", {"elapsed": ctx.now - started,
                                     "machine": ctx.machine})
        yield ctx.exit()

    def follower(ctx: ProcessContext):
        service = yield from lookup_service(ctx, f"{key}-leader")
        started = ctx.now
        for _ in range(rounds):
            yield from rpc(ctx, service, "ping", payload_bytes=payload_bytes)
        board.post(key + "-follower", {"elapsed": ctx.now - started,
                                       "machine": ctx.machine})
        yield ctx.exit()

    return leader, follower
