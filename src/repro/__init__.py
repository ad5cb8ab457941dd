"""demos-mp-repro: a reproduction of "Process Migration in DEMOS/MP"
(Powell & Miller, SOSP 1983).

A deterministic discrete-event simulation of the DEMOS/MP operating
system — kernels, links, message delivery, system servers — carrying the
paper's contribution: transparent process migration with forwarding
addresses and lazy link updating.

Quickstart::

    from repro import System, SystemConfig

    system = System(SystemConfig(machines=3))

    def worker(ctx):
        yield ctx.compute(10_000)
        yield ctx.exit()

    pid = system.spawn(worker, machine=0, name="worker")
    ticket = system.migrate(pid, dest=2)
    system.run()
    assert ticket.success
"""

from repro.core.cluster import MigrationTicket
from repro.core.config import SystemConfig
from repro.core.registry import register_program
from repro.core.system import System
from repro.errors import ReproError
from repro.kernel.context import ProcessContext
from repro.kernel.ids import ProcessAddress, ProcessId
from repro.kernel.forwarding import UndeliverablePolicy
from repro.kernel.links import DataArea, Link, LinkAttribute
from repro.kernel.memory import MemoryImage
from repro.kernel.process_state import ProcessStatus
from repro.net.channel import FaultPlan
from repro.servers.filesystem import FileClient
from repro.stats.migration_cost import MigrationCostRecord
from repro.workloads.results import ResultsBoard

__version__ = "1.0.0"

__all__ = [
    "DataArea",
    "FaultPlan",
    "FileClient",
    "Link",
    "LinkAttribute",
    "MemoryImage",
    "MigrationCostRecord",
    "MigrationTicket",
    "ProcessAddress",
    "ProcessContext",
    "ProcessId",
    "ProcessStatus",
    "ReproError",
    "ResultsBoard",
    "System",
    "SystemConfig",
    "UndeliverablePolicy",
    "register_program",
    "__version__",
]
