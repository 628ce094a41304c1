"""Message latency model over the grid.

A :class:`Network` converts (source, destination) pairs into cycle costs and
counts traffic by message class, which the harness can report. There is no
queueing model — see DESIGN.md ("blocking directory" keeps at most one
transaction per directory entry in flight, which bounds contention; the
paper's numbers are dominated by protocol hops and memory latency).
"""

from __future__ import annotations

from repro.common.stats import StatsRegistry
from repro.interconnect.topology import GridTopology


class Network:
    """Charges per-hop link latency for coherence traffic.

    The route methods run once per message, several times per coherence
    request, so each indexes the topology's hop table directly.
    """

    def __init__(self, topology: GridTopology, link_latency: int,
                 stats: StatsRegistry) -> None:
        self.topology = topology
        self.link_latency = link_latency
        self._stats = stats
        self._messages = stats.counter("network.messages")
        self._hops = stats.counter("network.hops")
        #: ``network.msg.<class>``: a run's counters name only the
        #: classes it sent.
        self._class_counters = stats.lazy_counters("network.msg.")
        self._cb_hops = topology.core_bank_hops
        self._cc_hops = topology.core_core_hops

    def _charge(self, hops: int, msg_class: str) -> int:
        self._messages.value += 1
        self._hops.value += hops
        self._class_counters[msg_class].value += 1
        # Minimum one link traversal even for same-tile transfers (the
        # message still crosses the router/bank interface).
        return (hops if hops > 1 else 1) * self.link_latency

    def core_to_bank(self, core_id: int, bank_id: int,
                     msg_class: str = "request") -> int:
        hops = self._cb_hops[core_id][bank_id]
        # net.msg events are guarded: this is the hottest emission site in
        # the machine, and building the kwargs dict must cost nothing when
        # no bus/recorder is attached.
        if self._stats.recorder is not None:
            self._stats.emit("net.msg", route="core_to_bank", src=core_id,
                             dst=bank_id, cls=msg_class, hops=hops)
        return self._charge(hops, msg_class)

    def bank_to_core(self, bank_id: int, core_id: int,
                     msg_class: str = "response") -> int:
        hops = self._cb_hops[core_id][bank_id]
        if self._stats.recorder is not None:
            self._stats.emit("net.msg", route="bank_to_core", src=bank_id,
                             dst=core_id, cls=msg_class, hops=hops)
        return self._charge(hops, msg_class)

    def core_to_core(self, src: int, dst: int,
                     msg_class: str = "forward") -> int:
        hops = self._cc_hops[src][dst]
        if self._stats.recorder is not None:
            self._stats.emit("net.msg", route="core_to_core", src=src,
                             dst=dst, cls=msg_class, hops=hops)
        return self._charge(hops, msg_class)

    def broadcast_from_bank(self, bank_id: int,
                            msg_class: str = "broadcast") -> int:
        """Cost of reaching every core from a bank (sequential worst hop).

        Used when the L2 lost directory info (Section 5) or under the
        snooping protocol (Section 7): the latency is bounded by the farthest
        destination; per-message counters record the fan-out.
        """
        worst = 0
        for core_row in self._cb_hops:
            hops = core_row[bank_id]
            self._messages.add()
            self._hops.add(hops)
            worst = max(worst, hops)
        self._class_counters[msg_class].value += 1
        if self._stats.recorder is not None:
            self._stats.emit("net.msg", route="broadcast", src=bank_id,
                             dst=-1, cls=msg_class, hops=worst)
        return max(worst, 1) * self.link_latency
