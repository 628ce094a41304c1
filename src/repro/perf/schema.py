"""On-disk schema of the tracked benchmark trajectory (``BENCH_*.json``).

Each benchmark case in the pinned suite (:mod:`repro.perf.suite`) owns one
``BENCH_<name>.json`` file at the repository root. The file is a
:class:`BenchRecord`: the case's identity plus a *trajectory* — an ordered
list of :class:`BenchMeasurement` entries, one per recorded measurement,
oldest first. The first two entries of each trajectory are the
pre-/post-optimization pair of the PR that introduced the harness; later
PRs append their own entries, so the repository carries its own performance
history.

Wall-clock numbers are machine-dependent; every measurement therefore
embeds an environment fingerprint so a regression can be told apart from a
machine change (see ``docs/performance.md``).
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1

#: File-name pattern for tracked records.
BENCH_FILE_PATTERN = "BENCH_{name}.json"


def environment_fingerprint() -> Dict[str, Any]:
    """Where a measurement was taken: enough to explain absolute numbers."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "executable": os.path.basename(sys.executable or "python"),
    }


def utc_now_iso() -> str:
    """Current UTC time as an ISO-8601 string (second resolution)."""
    return datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")


@dataclass
class BenchMeasurement:
    """One point on a benchmark's trajectory."""

    label: str
    recorded_utc: str
    wall_seconds: float
    #: Raw totals over the whole case (0 where not applicable).
    cycles: int = 0
    aborts: int = 0
    cells: int = 0
    events: int = 0
    #: Headline rates derived from the totals above.
    cycles_per_second: float = 0.0
    aborts_per_second: float = 0.0
    cells_per_minute: float = 0.0
    events_per_second: float = 0.0
    environment: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)

    @staticmethod
    def from_totals(label: str, wall_seconds: float, cycles: int = 0,
                    aborts: int = 0, cells: int = 0, events: int = 0,
                    extra: Optional[Dict[str, Any]] = None,
                    recorded_utc: Optional[str] = None) -> "BenchMeasurement":
        """Build a measurement, deriving every rate from the totals."""
        wall = max(wall_seconds, 1e-9)
        return BenchMeasurement(
            label=label,
            recorded_utc=recorded_utc or utc_now_iso(),
            wall_seconds=wall_seconds,
            cycles=cycles, aborts=aborts, cells=cells, events=events,
            cycles_per_second=cycles / wall,
            aborts_per_second=aborts / wall,
            cells_per_minute=cells * 60.0 / wall,
            events_per_second=events / wall,
            environment=environment_fingerprint(),
            extra=dict(extra or {}))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "recorded_utc": self.recorded_utc,
            "wall_seconds": self.wall_seconds,
            "cycles": self.cycles,
            "aborts": self.aborts,
            "cells": self.cells,
            "events": self.events,
            "cycles_per_second": self.cycles_per_second,
            "aborts_per_second": self.aborts_per_second,
            "cells_per_minute": self.cells_per_minute,
            "events_per_second": self.events_per_second,
            "environment": dict(self.environment),
            "extra": dict(self.extra),
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "BenchMeasurement":
        return BenchMeasurement(
            label=str(data["label"]),
            recorded_utc=str(data["recorded_utc"]),
            wall_seconds=float(data["wall_seconds"]),
            cycles=int(data.get("cycles", 0)),
            aborts=int(data.get("aborts", 0)),
            cells=int(data.get("cells", 0)),
            events=int(data.get("events", 0)),
            cycles_per_second=float(data.get("cycles_per_second", 0.0)),
            aborts_per_second=float(data.get("aborts_per_second", 0.0)),
            cells_per_minute=float(data.get("cells_per_minute", 0.0)),
            events_per_second=float(data.get("events_per_second", 0.0)),
            environment=dict(data.get("environment", {})),
            extra=dict(data.get("extra", {})))


@dataclass
class BenchRecord:
    """One tracked benchmark: identity + measurement trajectory."""

    name: str
    description: str = ""
    config: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION
    trajectory: List[BenchMeasurement] = field(default_factory=list)

    def record(self, measurement: BenchMeasurement) -> None:
        """Append a measurement; re-measuring under the same label at the
        tail replaces it (so iterating on one label is idempotent)."""
        if self.trajectory and self.trajectory[-1].label == measurement.label:
            self.trajectory[-1] = measurement
        else:
            self.trajectory.append(measurement)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "config": dict(self.config),
            "schema_version": self.schema_version,
            "trajectory": [m.to_dict() for m in self.trajectory],
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "BenchRecord":
        return BenchRecord(
            name=str(data["name"]),
            description=str(data.get("description", "")),
            config=dict(data.get("config", {})),
            schema_version=int(data.get("schema_version", SCHEMA_VERSION)),
            trajectory=[BenchMeasurement.from_dict(m)
                        for m in data.get("trajectory", [])])

    # -- file I/O ------------------------------------------------------------

    @staticmethod
    def path_for(name: str, out_dir: str = ".") -> str:
        return os.path.join(out_dir, BENCH_FILE_PATTERN.format(name=name))

    def save(self, out_dir: str = ".") -> str:
        path = self.path_for(self.name, out_dir)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=False)
            fh.write("\n")
        return path

    @staticmethod
    def load(path: str) -> "BenchRecord":
        with open(path, "r", encoding="utf-8") as fh:
            return BenchRecord.from_dict(json.load(fh))

    @staticmethod
    def load_if_exists(name: str, out_dir: str = ".") -> Optional["BenchRecord"]:
        path = BenchRecord.path_for(name, out_dir)
        if os.path.exists(path):
            return BenchRecord.load(path)
        return None
