"""Sweep service: a persistent job server over the sweep engine.

This package turns the one-shot sweep harness
(:func:`repro.harness.sweep.run_sweep`) into a long-running service:

* :mod:`repro.svc.spec` — :class:`SweepSpec`, the JSON-serializable
  description of a variant grid, and :class:`CellTask`, one executable
  (spec, label) cell;
* :mod:`repro.svc.scheduler` — the durable priority+FIFO
  :class:`JobQueue` and the job state machine;
* :mod:`repro.svc.repository` — :class:`RunRepository`, the SQLite run
  store keyed by :func:`~repro.harness.sweep.cell_key` (shared with
  ``repro sweep``), so identical cells dedupe to one execution across
  submissions;
* :mod:`repro.svc.service` — :class:`SweepService`, the orchestrator
  tying the above to the :class:`~repro.harness.fleet.WorkerFleet` and
  publishing ``svc.*`` events/metrics through :mod:`repro.obs`;
* :mod:`repro.svc.api` — the stdlib HTTP layer (``repro serve``);
* :mod:`repro.svc.client` — :class:`ServiceClient` for ``repro
  submit`` / ``repro jobs`` and tests.

Importing the package is side-effect free: no sockets, threads, or
processes are created until :meth:`SweepService.start` /
:func:`repro.svc.api.serve` are called explicitly.
"""

from repro.svc.repository import RunRepository, result_digest
from repro.svc.scheduler import JobQueue, StateError, check_transition
from repro.svc.service import ServiceError, SweepService
from repro.svc.spec import CellTask, SpecError, SweepSpec

__all__ = [
    "CellTask",
    "JobQueue",
    "RunRepository",
    "ServiceError",
    "SpecError",
    "StateError",
    "SweepService",
    "SweepSpec",
    "check_transition",
    "result_digest",
]
