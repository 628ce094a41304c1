"""Coherence fabrics: MESI directory with sticky states, and snooping."""

from repro.coherence.directory import DirectoryEntry, DirectoryFabric
from repro.coherence.fabric import CoherenceFabric
from repro.coherence.msgs import Blocker, CoherenceResult, ConflictPort
from repro.coherence.invariants import check_all
from repro.coherence.multichip import MultiChipFabric
from repro.coherence.snooping import SnoopingFabric

__all__ = ["Blocker", "CoherenceFabric", "CoherenceResult", "ConflictPort",
           "DirectoryEntry", "DirectoryFabric", "MultiChipFabric",
           "check_all",
           "SnoopingFabric"]
