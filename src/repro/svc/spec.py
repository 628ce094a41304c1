"""Sweep specifications: the JSON-safe unit of submission.

A :class:`SweepSpec` names a variant grid the same way the ``repro
sweep`` CLI does — a workload, a variant family (``designs`` /
``sizes`` / ``figure4``), and the knobs that family takes — but as a
value object that round-trips through JSON. It is the contract shared
by every layer of the service: the HTTP API validates one per ``POST
/sweeps``, the repository persists it with the job, and the scheduler
expands it into :class:`~repro.harness.sweep.Cell` values
(:meth:`SweepSpec.cells`) that fleet workers run as they are sent.

The cells a spec expands to are *identical* to what ``repro sweep``
builds for the same arguments, and the content-address of each cell
(:meth:`SweepSpec.cache_keys`) is its
:attr:`~repro.harness.sweep.Cell.key`, as on the CLI path — that shared
key is what makes service results byte-identical to, and dedupe
against, direct ``run_sweep`` invocations.

Importing this module loads no simulator (``repro sweep --help`` reads
:data:`SWEEP_MODES`); the methods that build variants or cells import
:mod:`repro.harness.sweep` when first called.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Tuple)

from repro.common.config import (DEFAULT_CYCLE_LIMIT, SignatureKind,
                                 SystemConfig, figure4_variants)
from repro.common.errors import ConfigError, ReproError
from repro.common.rng import DEFAULT_SEED
from repro.workloads import PAPER_SUITE
from repro.workloads.base import Workload

if TYPE_CHECKING:
    from repro.harness.sweep import Cell, Variant

#: Variant families a spec can request (mirrors ``repro sweep --mode``).
SWEEP_MODES: Tuple[str, ...] = ("designs", "sizes", "figure4")

#: Baseline label per mode (``None`` — sizes — means no speedup column).
MODE_BASELINES: Dict[str, Optional[str]] = {
    "designs": "Perfect", "sizes": None, "figure4": "Lock"}


class SpecError(ReproError):
    """A submitted sweep specification is invalid (HTTP 400)."""


#: Workloads a spec can name: the paper suite, by name.
_SUITE: Dict[str, type] = {cls.name: cls for cls in PAPER_SUITE}

#: Fields a spec takes only as integers (a JSON ``true`` is not one).
_INT_FIELDS = ("threads", "units", "seed", "bits", "granularity",
               "cycle_limit", "retries")


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
        if self.workload not in _SUITE:
            raise SpecError(f"unknown workload {self.workload!r}; choose "
                            f"from {sorted(_SUITE)}")
        if self.mode not in SWEEP_MODES:
            raise SpecError(f"unknown mode {self.mode!r}; choose from "
                            f"{list(SWEEP_MODES)}")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if type(value) is not int:
                raise SpecError(f"{name!r} must be an integer, got "
                                f"{value!r}")
        if type(self.verify) is not bool:
            raise SpecError(
                f"'verify' must be a boolean, got {self.verify!r}")
        if self.threads < 1 or self.units < 1:
            raise SpecError("threads and units must be >= 1")
        contexts = SystemConfig.default().total_threads
        if self.threads > contexts:
            raise SpecError(f"{self.threads} threads exceed the default "
                            f"machine's {contexts} contexts")
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
        if self.timeout is not None and not (
                type(self.timeout) in (int, float)
                and math.isfinite(self.timeout) and self.timeout > 0):
            raise SpecError(f"timeout must be a finite number > 0, got "
                            f"{self.timeout!r}")
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
        from repro.harness.sweep import (signature_design_variants,
                                         signature_size_variants)

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
        cls = _SUITE[self.workload]
        return cls(num_threads=self.threads, units_per_thread=self.units,
                   seed=self.seed)

    def workload_factory(self) -> Callable[[], Workload]:
        return self.make_workload

    def cells(self) -> List[Cell]:
        """The grid as cells, in variant order: what the service runs.

        One workload instance backs every cell; running never changes it.
        """
        from repro.harness.sweep import Cell

        workload = self.make_workload()
        return [Cell(label, cfg, workload, seed=self.seed,
                     cycle_limit=self.cycle_limit, verify=self.verify)
                for label, cfg in self.variants()]

    def cache_keys(self, cells: Optional[List[Cell]] = None
                   ) -> Dict[str, str]:
        """label -> :attr:`Cell.key` of each of :meth:`cells`.

        It is the key the CLI sweep stores the same cell under, so a
        stored run written by either path satisfies the other. ``cells``
        is this spec's expansion when the caller already built it. One
        workload instance backs every cell, so it is fingerprinted once.
        """
        from repro.harness.sweep import workload_fingerprint

        cells = self.cells() if cells is None else cells
        fingerprint = workload_fingerprint(cells[0].workload)
        return {cell.label: cell.key_with(fingerprint) for cell in cells}

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
        try:
            return SweepSpec(**kwargs)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"malformed sweep spec: {exc}")
