"""Workloads: the paper's five benchmarks plus microbenchmarks."""

from repro.workloads.base import (
    Op,
    OpKind,
    Section,
    VirtualAllocator,
    Workload,
    validate_sections,
)
from repro.workloads.berkeleydb import BerkeleyDB
from repro.workloads.datastructs import BankTransfer, HashTable, LinkedListSet
from repro.workloads.cholesky import Cholesky
from repro.workloads.microbench import (
    BigFootprint,
    FalseSharing,
    NestedUpdate,
    RepeatStores,
    SharedCounter,
)
from repro.workloads.mp3d import Mp3d
from repro.workloads.radiosity import Radiosity
from repro.workloads.raytrace import Raytrace

#: The Table 2 benchmark suite, in the paper's order.
PAPER_SUITE = [BerkeleyDB, Cholesky, Radiosity, Raytrace, Mp3d]

__all__ = [
    "BankTransfer",
    "BerkeleyDB",
    "BigFootprint",
    "Cholesky",
    "FalseSharing",
    "HashTable",
    "LinkedListSet",
    "Mp3d",
    "NestedUpdate",
    "Op",
    "OpKind",
    "PAPER_SUITE",
    "Radiosity",
    "Raytrace",
    "RepeatStores",
    "Section",
    "SharedCounter",
    "VirtualAllocator",
    "Workload",
    "validate_sections",
]
