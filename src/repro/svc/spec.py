"""Sweep specifications: the JSON-safe unit of submission.

A :class:`SweepSpec` names a variant grid the same way the ``repro
sweep`` CLI does — a workload, a variant family (``designs`` /
``sizes`` / ``figure4``), and the knobs that family takes — but as a
value object that round-trips through JSON. It is the contract shared
by every layer of the service: the HTTP API validates one per ``POST
/sweeps``, the repository persists it with the job, and fleet workers
rebuild the exact cell to run from ``(spec, label)`` alone, so a cell
travels between processes as two small strings rather than a pickled
closure.

The variant grid a spec expands to is *identical* to what ``repro
sweep`` builds for the same arguments, and the content-address of each
cell (:meth:`SweepSpec.cache_keys`) is the very same
:func:`~repro.harness.sweep.cell_key` the CLI path uses — that
shared key is what makes service results byte-identical to, and dedupe
against, direct ``run_sweep`` invocations.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.config import (SignatureKind, SystemConfig,
                                 figure4_variants)
from repro.common.errors import ConfigError, ReproError
from repro.common.rng import DEFAULT_SEED
from repro.harness.runner import DEFAULT_CYCLE_LIMIT
from repro.harness.sweep import (RunTask, Variant, cell_key, run_cell,
                                 signature_design_variants,
                                 signature_size_variants,
                                 workload_fingerprint)
from repro.workloads.base import Workload

#: Variant families a spec can request (mirrors ``repro sweep --mode``).
SWEEP_MODES: Tuple[str, ...] = ("designs", "sizes", "figure4")

#: Baseline label per mode (``None`` — sizes — means no speedup column).
MODE_BASELINES: Dict[str, Optional[str]] = {
    "designs": "Perfect", "sizes": None, "figure4": "Lock"}


class SpecError(ReproError):
    """A submitted sweep specification is invalid (HTTP 400)."""


def _workload_classes() -> Dict[str, type]:
    from repro.harness import experiments as E
    return E.WORKLOAD_CLASSES


@dataclass(frozen=True)
class SweepSpec:
    """One sweep submission: workload + variant family + execution knobs.

    Frozen and fully JSON-safe; two specs with equal fields expand to
    identical cells with identical cache keys.
    """

    workload: str
    mode: str = "designs"
    threads: int = 8
    units: int = 2
    seed: int = DEFAULT_SEED
    bits: int = 2048                      # designs mode
    kind: str = "bs"                      # sizes mode: signature design
    sizes: Tuple[int, ...] = (64, 256, 2048)
    granularity: int = 1024               # sizes mode: CBS macroblock bytes
    cycle_limit: int = DEFAULT_CYCLE_LIMIT
    verify: bool = False
    #: Per-cell wall-clock timeout in seconds (None: no deadline).
    timeout: Optional[float] = None
    #: Worker relaunches after a crash or timeout.
    retries: int = 1

    def __post_init__(self) -> None:
        if self.workload not in _workload_classes():
            raise SpecError(
                f"unknown workload {self.workload!r}; choose from "
                f"{sorted(_workload_classes())}")
        if self.mode not in SWEEP_MODES:
            raise SpecError(f"unknown mode {self.mode!r}; choose from "
                            f"{list(SWEEP_MODES)}")
        if self.threads < 1 or self.units < 1:
            raise SpecError("threads and units must be >= 1")
        if self.mode == "sizes":
            try:
                kind = SignatureKind(self.kind)
            except ValueError:
                raise SpecError(f"unknown signature kind {self.kind!r}")
            if kind is SignatureKind.PERFECT:
                raise SpecError("sizes mode needs an inexact signature")
            if not self.sizes:
                raise SpecError("sizes mode needs at least one size")
        if self.retries < 0:
            raise SpecError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and not (math.isfinite(self.timeout)
                                             and self.timeout > 0):
            raise SpecError(
                f"timeout must be finite and > 0, got {self.timeout}")
        try:
            labels = self.labels()
        except ConfigError as exc:
            raise SpecError(f"invalid {self.mode} grid: {exc}") from None
        duplicates = sorted(x for x, n in Counter(labels).items() if n > 1)
        if duplicates:
            raise SpecError(f"duplicate variant label(s): {duplicates}")

    # -- expansion ---------------------------------------------------------

    def variants(self) -> List[Variant]:
        """The ``(label, config)`` grid this spec names."""
        base = SystemConfig.default()
        if self.mode == "designs":
            return signature_design_variants(self.bits, base=base)
        if self.mode == "sizes":
            return signature_size_variants(
                SignatureKind(self.kind), sizes=list(self.sizes),
                base=base, granularity=self.granularity)
        return list(figure4_variants(base))

    @property
    def baseline_label(self) -> Optional[str]:
        return MODE_BASELINES[self.mode]

    def labels(self) -> List[str]:
        return [label for label, _cfg in self.variants()]

    def make_workload(self) -> Workload:
        cls = _workload_classes()[self.workload]
        return cls(num_threads=self.threads, units_per_thread=self.units,
                   seed=self.seed)

    def workload_factory(self) -> Callable[[], Workload]:
        return self.make_workload

    def cache_keys(self) -> Dict[str, str]:
        """label -> content-address, exactly as the CLI sweep computes it.

        The key binds the code version, config, workload fingerprint,
        seed, label, cycle limit and verify mode — so a stored run
        written by either path satisfies the other.
        """
        fingerprint = workload_fingerprint(self.make_workload())
        return {label: cell_key(cfg, fingerprint, self.seed, label,
                                self.cycle_limit, verify=self.verify)
                for label, cfg in self.variants()}

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload, "mode": self.mode,
            "threads": self.threads, "units": self.units,
            "seed": self.seed, "bits": self.bits, "kind": self.kind,
            "sizes": list(self.sizes), "granularity": self.granularity,
            "cycle_limit": self.cycle_limit, "verify": self.verify,
            "timeout": self.timeout, "retries": self.retries,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "SweepSpec":
        """Build and validate a spec from an untrusted JSON payload."""
        if not isinstance(data, dict):
            raise SpecError("sweep spec must be a JSON object")
        if "workload" not in data:
            raise SpecError("sweep spec needs a 'workload' field")
        known = {"workload", "mode", "threads", "units", "seed", "bits",
                 "kind", "sizes", "granularity", "cycle_limit", "verify",
                 "timeout", "retries"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(f"unknown spec field(s): {unknown}")
        kwargs = dict(data)
        if "sizes" in kwargs:
            sizes = kwargs["sizes"]
            if not (isinstance(sizes, (list, tuple))
                    and all(type(size) is int for size in sizes)):
                raise SpecError(
                    f"'sizes' must be an array of integers, got {sizes!r}")
            kwargs["sizes"] = tuple(sizes)
        if not isinstance(kwargs.get("verify", False), bool):
            raise SpecError(
                f"'verify' must be a boolean, got {kwargs['verify']!r}")
        try:
            for key in ("threads", "units", "seed", "bits", "granularity",
                        "cycle_limit", "retries"):
                if key in kwargs:
                    kwargs[key] = int(kwargs[key])
            if kwargs.get("timeout") is not None:
                kwargs["timeout"] = float(kwargs["timeout"])
            return SweepSpec(**kwargs)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"malformed sweep spec: {exc}")


@dataclass(frozen=True)
class CellTask:
    """One cell of one job, as dispatched to a fleet worker.

    Everything a worker needs travels in the task: the spec (to rebuild
    config + workload deterministically) and the label selecting the
    cell. ``cache_key`` rides along so the worker's *parent* can store
    the result without recomputing it.
    """

    job_id: str
    label: str
    spec: SweepSpec
    cache_key: str

    def run(self):
        """Execute this cell in a fleet worker; returns the :class:`RunResult`.

        Builds the :class:`~repro.harness.sweep.RunTask` for its label
        and runs it with :func:`~repro.harness.sweep.run_cell`, exactly
        as ``run_sweep`` runs the same cell.
        """
        for label, cfg in self.spec.variants():
            if label == self.label:
                break
        else:
            raise SpecError(f"label {self.label!r} not in spec grid")
        spec = self.spec
        return run_cell(RunTask(key=label, label=label, cfg=cfg,
                                make_workload=spec.make_workload,
                                seed=spec.seed,
                                cycle_limit=spec.cycle_limit,
                                verify=spec.verify))
