"""Cross-layer observability: events, bus, analyzers, exporters.

The subsystem in one paragraph: model components emit typed, namespaced
:class:`Event` records through the :class:`EventBus` (attached via
``System.attach_bus()``; emission is one attribute check when nothing is
attached). Sinks subscribe to the bus — a :class:`RingBufferLog` buffers
and counts them, a :class:`~repro.obs.export.JsonlWriter` streams them
to disk; any callable taking an :class:`Event` is a sink. After a run,
the analyzers in :mod:`repro.obs.analysis` reconstruct transaction
lifecycles, build conflict graphs, and attribute aborts to their mechanism
(true conflict / signature false positive / sticky / capacity / summary),
and the exporters in :mod:`repro.obs.export` produce JSONL and Chrome
Trace Event JSON (opens in Perfetto). See ``docs/observability.md``.
"""

from repro.obs.analysis import (CATEGORIES, AbortAttribution, ConflictEdge,
                                ConflictGraph, TxAttempt, attribute_aborts,
                                attribute_stalls, classify_abort,
                                dominant_via, reconstruct,
                                render_attribution)
from repro.obs.bus import EventBus, RingBufferLog
from repro.obs.events import (NAMESPACES, TAXONOMY, Event, event_from_dict,
                              namespace_of, validate_kind)
from repro.obs.export import (JsonlWriter, chrome_trace, export_chrome_trace,
                              export_jsonl, load_jsonl,
                              validate_chrome_trace)

__all__ = [
    "AbortAttribution",
    "CATEGORIES",
    "ConflictEdge",
    "ConflictGraph",
    "Event",
    "EventBus",
    "JsonlWriter",
    "NAMESPACES",
    "RingBufferLog",
    "TAXONOMY",
    "TxAttempt",
    "attribute_aborts",
    "attribute_stalls",
    "chrome_trace",
    "classify_abort",
    "dominant_via",
    "event_from_dict",
    "export_chrome_trace",
    "export_jsonl",
    "load_jsonl",
    "namespace_of",
    "reconstruct",
    "render_attribution",
    "validate_chrome_trace",
]
