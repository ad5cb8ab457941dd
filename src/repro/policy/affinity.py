"""Communication-affinity placement (paper §1, §3.1).

"Moving a process closer to the resource it is using most heavily may
reduce system-wide communication traffic."  This policy watches the
communication matrix and, when two processes on different machines
exchange more than a threshold of messages, migrates the lighter-loaded
one next to the other.

The paper also warns of the tension: "Processes cooperating in a
computation may exhibit a great deal of parallelism, and therefore should
be on different machines."  The ``min_cpu_headroom`` knob encodes that:
co-location only happens when the target machine has spare capacity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernel.ids import ProcessId, parse_pid
from repro.policy.load_balancer import DEFAULT_EXCLUDE, BalancerStats
from repro.policy.metrics import CommunicationMatrix, machine_loads
from repro.stats.migration_cost import MigrationCostRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import System


class AffinityPolicy:
    """Co-locate the chattiest cross-machine process pair."""

    def __init__(
        self,
        system: "System",
        interval: int = 20_000,
        message_threshold: int = 20,
        min_cpu_headroom: int = 4,
        exclude_names: frozenset[str] = DEFAULT_EXCLUDE,
    ) -> None:
        self.system = system
        self.interval = interval
        self.message_threshold = message_threshold
        self.min_cpu_headroom = min_cpu_headroom
        self.exclude_names = exclude_names
        self.matrix = CommunicationMatrix()
        self.stats = BalancerStats()
        self._stopped = False

    def install(self) -> None:
        """Subscribe to the tracer and start periodic evaluation."""
        self.system.tracer.subscribe(self.matrix.observe)
        self.system.loop.call_after(self.interval, self._tick)

    def stop(self) -> None:
        """Cease evaluating and stop observing the tracer."""
        self._stopped = True
        self.system.tracer.unsubscribe(self.matrix.observe)

    def _tick(self) -> None:
        if self._stopped:
            return
        self.stats.samples += 1
        self._evaluate()
        self.system.loop.call_after(self.interval, self._tick)

    def _evaluate(self) -> None:
        loads = machine_loads(self.system)
        for (sender_text, receiver_text), count in (
            self.matrix.heaviest_pairs(10)
        ):
            if count < self.message_threshold:
                break
            sender = parse_pid(sender_text)
            receiver = parse_pid(receiver_text)
            if sender is None or receiver is None:
                continue
            placement = self._plan_move(sender, receiver, loads)
            if placement is None:
                continue
            mover, dest, source = placement
            self.stats.migrations_started += 1
            self.stats.moves.append((str(mover), source, dest))
            self.system.tracer.record(
                "policy", "affinity", pid=str(mover), dest=dest,
                traffic=count,
            )
            self.system.kernel(source).migration.start(
                mover, dest, on_done=self._on_done,
            )
            return  # one move per tick

    def _plan_move(
        self,
        a: ProcessId,
        b: ProcessId,
        loads: dict[int, int],
    ) -> tuple[ProcessId, int, int] | None:
        """Decide which of *a*/*b* moves where; None if nothing sensible."""
        machine_a = self.system.where_is(a)
        machine_b = self.system.where_is(b)
        if machine_a is None or machine_b is None or machine_a == machine_b:
            return None
        state_a = self.system.process_state(a)
        state_b = self.system.process_state(b)
        assert state_a is not None and state_b is not None
        movable_a = state_a.name not in self.exclude_names
        movable_b = state_b.name not in self.exclude_names
        # Prefer moving the process on the more loaded machine toward the
        # other, so affinity moves also help balance.
        ordered = sorted(
            [
                (loads.get(machine_b, 0), movable_a, a, machine_b, machine_a),
                (loads.get(machine_a, 0), movable_b, b, machine_a, machine_b),
            ],
            key=lambda item: item[0],
        )
        for target_load, movable, pid, dest, source in ordered:
            if movable and target_load < self.min_cpu_headroom:
                return pid, dest, source
        return None

    def _on_done(self, success: bool, record: MigrationCostRecord) -> None:
        if success:
            self.stats.migrations_succeeded += 1
        else:
            self.stats.migrations_failed += 1
