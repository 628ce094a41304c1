"""Statistics collection.

Components register named counters and histograms on a shared
:class:`StatsRegistry`; the harness reads them to build the paper's tables.
Keeping statistics out of the functional classes (vs. ad-hoc attributes)
gives a single place to reset between measurement phases — the paper warms
up workloads before measuring "units of work".
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple


class Counter:
    """A monotonically increasing event count (resettable)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class LazyCounters(dict):
    """Counters named ``prefix + key``, each registered on its first use.

    Registering a counter is an output: it is an entry, zero or not, in
    the run's counters and so in its digest. A component whose counter
    may never fire indexes one of these on each use instead of
    registering the counter up front; after the first use the index is a
    plain dict hit. Built by :meth:`StatsRegistry.lazy_counters`.
    """

    def __init__(self, stats: "StatsRegistry", prefix: str) -> None:
        super().__init__()
        self._stats = stats
        self._prefix = prefix

    def __missing__(self, key: str) -> Counter:
        counter = self[key] = self._stats.counter(self._prefix + key)
        return counter


class Histogram:
    """Tracks a distribution of integer samples (read-set sizes, latencies)."""

    __slots__ = ("name", "_counts", "_total", "_sum", "_max")

    def __init__(self, name: str) -> None:
        self.name = name
        self._counts: Dict[int, int] = defaultdict(int)
        self._total = 0
        self._sum = 0
        self._max = 0

    def record(self, sample: int) -> None:
        self._counts[sample] += 1
        self._total += 1
        self._sum += sample
        if sample > self._max:
            self._max = sample

    @property
    def count(self) -> int:
        return self._total

    @property
    def total(self) -> int:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._total if self._total else 0.0

    @property
    def maximum(self) -> int:
        return self._max

    def percentile(self, p: float) -> int:
        """The p-th percentile (0..100) of recorded samples."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._total:
            return 0
        target = math.ceil(self._total * p / 100.0)
        seen = 0
        for sample in sorted(self._counts):
            seen += self._counts[sample]
            if seen >= target:
                return sample
        return self._max

    def items(self) -> Iterable[Tuple[int, int]]:
        return sorted(self._counts.items())

    def reset(self) -> None:
        self._counts.clear()
        self._total = self._sum = self._max = 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation: name plus sorted (sample, count) pairs."""
        return {"name": self.name,
                "counts": [[sample, count] for sample, count in self.items()]}

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "Histogram":
        """Inverse of :meth:`to_dict` (used by the sweep result cache/JSON)."""
        hist = Histogram(str(data["name"]))
        for sample, count in data["counts"]:
            hist._counts[int(sample)] = int(count)
            hist._total += int(count)
            hist._sum += int(sample) * int(count)
            if sample > hist._max:
                hist._max = int(sample)
        return hist

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (self.name == other.name
                and dict(self._counts) == dict(other._counts))

    def __repr__(self) -> str:
        return (f"Histogram({self.name}: n={self._total}, mean={self.mean:.2f},"
                f" max={self._max})")


class StatsRegistry:
    """Namespace of counters and histograms for one simulated system.

    An event bus (see :meth:`repro.harness.system.System.attach_bus`)
    may be attached; components then emit timestamped lifecycle events
    through :meth:`emit`. With no recorder attached, ``emit`` is one attribute
    check — effectively free.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self.recorder = None

    def emit(self, kind: str, **fields) -> None:
        if self.recorder is not None:
            self.recorder.record(kind, **fields)

    def counter(self, name: str) -> Counter:
        """Get (creating if needed) the counter with this name."""
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def lazy_counters(self, prefix: str) -> LazyCounters:
        """Counters under ``prefix``, each registered on its first use."""
        return LazyCounters(self, prefix)

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def value(self, name: str) -> int:
        """Current value of a counter (0 if it was never touched)."""
        c = self._counters.get(name)
        return c.value if c else 0

    def reset(self) -> None:
        """Zero everything (used at the warmup/measurement boundary)."""
        for c in self._counters.values():
            c.reset()
        for h in self._histograms.values():
            h.reset()

    def snapshot(self) -> Dict[str, int]:
        """Flat dict of all counter values (for reports and tests)."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)


@dataclass
class ConfidenceInterval:
    """Mean and symmetric 95% confidence half-width over perturbed runs."""

    mean: float
    half_width: float
    samples: List[float] = field(default_factory=list)

    @staticmethod
    def from_samples(samples: List[float]) -> "ConfidenceInterval":
        n = len(samples)
        if n == 0:
            raise ValueError("need at least one sample")
        mean = sum(samples) / n
        if n == 1:
            return ConfidenceInterval(mean, 0.0, list(samples))
        var = sum((x - mean) ** 2 for x in samples) / (n - 1)
        # Two-sided 95% t critical values for small n (df = n - 1).
        t_table = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
                   6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228}
        t = t_table.get(n - 1, 1.96)
        half = t * math.sqrt(var / n)
        return ConfidenceInterval(mean, half, list(samples))

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.half_width:.3f}"
