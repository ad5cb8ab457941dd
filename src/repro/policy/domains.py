"""Administrative domains and interdomain migration (paper §3.2).

"It is also possible to migrate processes between domains.  By domain, we
mean that the destination processor belongs to a collection of machines
under a different administrative control than the source processor, and
may be suspicious of the source processor and the incoming process.  The
destination processor may simply refuse to accept any migrations not
fitting its criteria."

A :class:`Domain` groups machines and carries an admission policy; the
:class:`DomainRegistry` installs per-kernel acceptance predicates that
consult it.  Intra-domain traffic is always admitted; interdomain
admission is the domain's decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigError
from repro.kernel.ids import ProcessId
from repro.net.topology import MachineId

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import System

#: admission policy: (pid, total_bytes, source_domain_name) -> accept?
AdmissionPolicy = Callable[[ProcessId, int, str], bool]


def accept_all(pid: ProcessId, size: int, from_domain: str) -> bool:
    """The trusting-cluster default: everyone is welcome."""
    return True


def refuse_foreign(pid: ProcessId, size: int, from_domain: str) -> bool:
    """Suspicious domain: only processes born inside it are admitted —
    and the registry only consults this for *interdomain* arrivals, so
    it amounts to refusing every foreign process."""
    return False


def size_capped(max_bytes: int) -> AdmissionPolicy:
    """Admit foreign processes only up to *max_bytes* of state."""

    def policy(pid: ProcessId, size: int, from_domain: str) -> bool:
        return size <= max_bytes

    return policy


@dataclass
class Domain:
    """A named collection of machines under one administration."""

    name: str
    machines: set[MachineId]
    admission: AdmissionPolicy = accept_all
    admitted: int = 0
    refused: int = 0

    def contains(self, machine: MachineId) -> bool:
        """Whether *machine* belongs to this domain."""
        return machine in self.machines


@dataclass
class DomainRegistry:
    """All domains of one system, plus the kernel hook installation."""

    domains: list[Domain] = field(default_factory=list)

    def add(self, domain: Domain) -> Domain:
        """Register a domain (machines must not overlap an existing one)."""
        for existing in self.domains:
            overlap = existing.machines & domain.machines
            if overlap:
                raise ConfigError(
                    f"machines {sorted(overlap)} already in domain "
                    f"{existing.name!r}"
                )
        self.domains.append(domain)
        return domain

    def domain_of(self, machine: MachineId) -> Domain | None:
        """The domain containing *machine*, if any."""
        for domain in self.domains:
            if domain.contains(machine):
                return domain
        return None

    def install(self, system: "System") -> None:
        """Wire every kernel's migration-acceptance predicate to its
        domain's admission policy.

        The source machine is recovered per-migration from the process id
        is not enough (processes move); instead the predicate closes over
        the destination kernel and asks the system where the process
        currently is — which is what a real border kernel learns from the
        request's sender anyway.
        """
        for kernel in system.kernels:
            dest_domain = self.domain_of(kernel.machine)
            if dest_domain is None:
                continue

            def predicate(
                pid: ProcessId,
                size: int,
                _dest: Domain = dest_domain,
                _system: "System" = system,
            ) -> bool:
                source_machine = _system.where_is(pid)
                source_domain = (
                    self.domain_of(source_machine)
                    if source_machine is not None else None
                )
                if source_domain is _dest:
                    _dest.admitted += 1
                    return True  # intra-domain: kernels trust each other
                from_name = source_domain.name if source_domain else "?"
                verdict = _dest.admission(pid, size, from_name)
                if verdict:
                    _dest.admitted += 1
                else:
                    _dest.refused += 1
                return verdict

            kernel.accept_migration = predicate
