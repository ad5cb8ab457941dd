"""The command interpreter (§2.3): interactive access to DEMOS/MP.

Accepts ``command`` messages carrying a text line, drives the process
manager (and friends) to execute it, and replies with a text result.
Examples:

- ``run pingpong on 2 name=experiment``  — create a process
- ``migrate p2.5 3``                     — move process p2.5 to machine 3
- ``stop p2.5`` / ``start p2.5``         — suspend / resume
- ``ps``                                 — list known processes
- ``where p2.5``                         — locate a process
- ``help``

A pid is written as ``run`` and ``ps`` print it (``p2.5``) or bare
(``2.5``); see :func:`~repro.kernel.ids.parse_pid`.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.kernel.context import ProcessContext
from repro.kernel.ids import parse_pid
from repro.servers.common import serve_reply
from repro.servers.filesystem import Backlog, _serial_rpc

HELP_TEXT = (
    "commands: run <program> [on <machine>] [key=value ...] | "
    "migrate <pid> <machine> | stop <pid> | start <pid> | "
    "where <pid> | ps | help"
)


def _parse_value(text: str) -> Any:
    """Best-effort literal parsing for key=value command arguments."""
    try:
        return int(text)
    except ValueError:
        pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def command_interpreter_program(
    ctx: ProcessContext,
) -> Generator[Any, Any, None]:
    """The command-interpreter server loop."""
    backlog = Backlog()
    pm_link = ctx.bootstrap["process_manager"]

    while True:
        if backlog:
            msg = backlog.popleft()
        else:
            msg = yield ctx.receive()
        if msg.op != "command":
            # Stray replies from past interactions; drop.
            continue
        line = (msg.payload or {}).get("line", "").strip()
        tokens = line.split()
        result: dict[str, Any]

        if not tokens or tokens[0] == "help":
            result = {"ok": True, "text": HELP_TEXT}

        elif tokens[0] == "run" and len(tokens) >= 2:
            program = tokens[1]
            machine: int | None = None
            params: dict[str, Any] = {}
            name = program
            rest = tokens[2:]
            i = 0
            while i < len(rest):
                if rest[i] == "on" and i + 1 < len(rest):
                    machine = int(rest[i + 1])
                    i += 2
                elif "=" in rest[i]:
                    key, _, value = rest[i].partition("=")
                    if key == "name":
                        name = value
                    else:
                        params[key] = _parse_value(value)
                    i += 1
                else:
                    i += 1
            reply = yield from _serial_rpc(
                ctx, backlog, pm_link, "create-process",
                {"program": program, "machine": machine,
                 "params": params, "name": name},
            )
            body = reply.payload
            if body.get("ok"):
                result = {
                    "ok": True,
                    "pid": body["pid"],
                    "text": f"started {body['pid']} on machine "
                            f"{body['machine']}",
                }
            else:
                result = {"ok": False,
                          "text": f"run failed: {body.get('error')}"}

        elif tokens[0] == "migrate" and len(tokens) == 3:
            pid = parse_pid(tokens[1])
            if pid is None:
                result = {"ok": False, "text": f"bad pid {tokens[1]!r}"}
            else:
                reply = yield from _serial_rpc(
                    ctx, backlog, pm_link, "migrate",
                    {"pid": pid, "dest": int(tokens[2])},
                )
                ok = reply.payload.get("ok", False)
                result = {
                    "ok": ok,
                    "text": (f"migration of {pid} to {tokens[2]} initiated"
                             if ok else
                             f"migrate failed: {reply.payload.get('error')}"),
                }

        elif tokens[0] in ("stop", "start") and len(tokens) == 2:
            pid = parse_pid(tokens[1])
            if pid is None:
                result = {"ok": False, "text": f"bad pid {tokens[1]!r}"}
            else:
                reply = yield from _serial_rpc(
                    ctx, backlog, pm_link, tokens[0], {"pid": pid},
                )
                ok = reply.payload.get("ok", False)
                result = {"ok": ok,
                          "text": f"{tokens[0]} {pid}: "
                                  f"{'ok' if ok else 'failed'}"}

        elif tokens[0] == "where" and len(tokens) == 2:
            pid = parse_pid(tokens[1])
            if pid is None:
                result = {"ok": False, "text": f"bad pid {tokens[1]!r}"}
            else:
                reply = yield from _serial_rpc(
                    ctx, backlog, pm_link, "where-is", {"pid": pid},
                )
                body = reply.payload
                if body.get("ok"):
                    result = {"ok": True, "machine": body["machine"],
                              "text": f"{pid} is on machine "
                                      f"{body['machine']}"}
                else:
                    result = {"ok": False, "text": f"{pid} not found"}

        elif tokens[0] == "ps":
            reply = yield from _serial_rpc(
                ctx, backlog, pm_link, "status", {},
            )
            processes = reply.payload.get("processes", {})
            lines = [
                f"{pid_text} {info['name']} machine={info['machine']}"
                f"{'' if info['alive'] else ' (exited)'}"
                for pid_text, info in sorted(processes.items())
            ]
            result = {"ok": True, "processes": processes,
                      "text": "\n".join(lines) or "(no known processes)"}

        else:
            result = {"ok": False, "text": f"unknown command {line!r}"}

        yield from serve_reply(
            ctx, msg, "command-reply", result,
            payload_bytes=16 + len(result.get("text", "")),
        )
