"""Conventions shared by the system processes and their clients.

Requests are messages whose first enclosed link is a *reply link* — the
paper's short-lived link used exactly once to respond.  ``serve_reply``
answers on it and destroys it; ``rpc`` is the client half: create a reply
link, send, wait for the answer.  ``lookup_service`` is the one ``rpc``
every client starts with: ask the switchboard for a service link by
name.  A server that fans out sub-requests (the file system, the
command interpreter) tags each with a request id and waits for that
reply, backlogging whatever else arrives (``filesystem._serial_rpc``).

These helpers are sub-generators: call them with ``yield from`` inside a
program.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import ServerError
from repro.kernel.context import ProcessContext
from repro.kernel.messages import Message
from repro.kernel.ops import OP_UNDELIVERABLE


def serve_reply(
    ctx: ProcessContext,
    request: Message,
    op: str,
    payload: Any = None,
    payload_bytes: int = 32,
    links: tuple[int, ...] = (),
) -> Generator[Any, Any, None]:
    """Answer *request* on its reply link, then destroy the reply link.

    If the request carried a ``req_id`` (the correlation convention used
    by servers that fan out sub-requests), the reply payload echoes it —
    overriding any stale ``req_id`` the payload may have picked up from a
    forwarded sub-reply.
    """
    if not request.delivered_link_ids:
        return  # fire-and-forget request; nothing to answer on
    if isinstance(payload, dict):
        request_payload = (
            request.payload if isinstance(request.payload, dict) else {}
        )
        payload = dict(payload)
        payload["req_id"] = request_payload.get("req_id")
    reply_link = request.delivered_link_ids[0]
    yield ctx.send(
        reply_link, op=op, payload=payload,
        payload_bytes=payload_bytes, links=links,
    )
    yield ctx.destroy_link(reply_link)


def rpc(
    ctx: ProcessContext,
    service_link: int,
    op: str,
    payload: Any = None,
    payload_bytes: int = 32,
    links: tuple[int, ...] = (),
    timeout: int | None = None,
) -> Generator[Any, Any, Message | None]:
    """Send a request and wait for the single reply.

    Returns the reply message (links it carried are already materialised
    as ``delivered_link_ids``), or None on timeout.  Raises
    :class:`ServerError` if the system reports the service unreachable.
    Intended for clients with no other concurrent traffic.
    """
    reply_link = yield ctx.create_link()
    yield ctx.send(
        service_link, op=op, payload=payload,
        payload_bytes=payload_bytes, links=(reply_link, *links),
    )
    message = yield ctx.receive(timeout=timeout)
    yield ctx.destroy_link(reply_link)
    if message is None:
        return None
    if message.op == OP_UNDELIVERABLE:
        raise ServerError(
            f"request {op!r} undeliverable: {message.payload}"
        )
    return message


def lookup_service(
    ctx: ProcessContext,
    name: str,
    timeout: int | None = None,
) -> Generator[Any, Any, int]:
    """Resolve *name* via the switchboard; returns a link id to it.

    The switchboard holds unknown lookups until the service registers, so
    boot races resolve themselves.
    """
    reply = yield from rpc(
        ctx, ctx.bootstrap["switchboard"], "lookup",
        payload={"name": name}, timeout=timeout,
    )
    if reply is None or not reply.payload.get("ok"):
        raise ServerError(f"switchboard lookup failed for {name!r}")
    # delivered_link_ids[0] is the service link enclosed in the reply
    return reply.delivered_link_ids[0]
