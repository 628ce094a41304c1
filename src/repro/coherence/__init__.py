"""Coherence fabrics: MESI directory with sticky states, and snooping."""

from repro.coherence.directory import DirectoryEntry, DirectoryFabric
from repro.coherence.fabric import CoherenceFabric
from repro.coherence.msgs import Blocker, CoherenceResult, ConflictPort
from repro.coherence.invariants import check_all
from repro.coherence.multichip import MultiChipFabric
from repro.coherence.snooping import SnoopingFabric
from repro.common.config import CoherenceStyle, SystemConfig
from repro.common.stats import StatsRegistry
from repro.interconnect.network import Network
from repro.interconnect.topology import GridTopology


def make_fabric(cfg: SystemConfig, stats: StatsRegistry) -> CoherenceFabric:
    """The fabric ``cfg`` describes, wired to its on-chip network(s).

    More than one chip is Section 7's multiple-CMP system: one intra-chip
    network per chip plus the full-map memory directory fabric.
    """
    topology = GridTopology(*cfg.mesh_dims, cfg.num_cores, cfg.l2_banks)
    if cfg.num_chips > 1:
        return MultiChipFabric(
            cfg, [Network(topology, cfg.link_latency, stats)
                  for _ in range(cfg.num_chips)], stats)
    network = Network(topology, cfg.link_latency, stats)
    if cfg.coherence is CoherenceStyle.SNOOPING:
        return SnoopingFabric(cfg, network, stats)
    return DirectoryFabric(cfg, network, stats)


__all__ = ["Blocker", "CoherenceFabric", "CoherenceResult", "ConflictPort",
           "DirectoryEntry", "DirectoryFabric", "MultiChipFabric",
           "check_all", "make_fabric",
           "SnoopingFabric"]
