"""Public API of the DEMOS/MP reproduction."""

from repro.core.cluster import Cluster, MigrationTicket
from repro.core.config import SystemConfig
from repro.core.registry import (
    lookup_program,
    register_program,
    registered_programs,
)
from repro.core.system import System

__all__ = [
    "Cluster",
    "MigrationTicket",
    "System",
    "SystemConfig",
    "lookup_program",
    "register_program",
    "registered_programs",
]
