"""Sweep service: a persistent job server over the sweep engine.

This package turns the one-shot sweep harness
(:func:`repro.harness.sweep.run_sweep`) into a long-running service:

* :mod:`repro.svc.spec` — :class:`SweepSpec`, the JSON-serializable
  description of a variant grid, which expands to the
  :class:`~repro.harness.sweep.Cell` values the fleet runs
  (:meth:`SweepSpec.cells`);
* :mod:`repro.svc.repository` — :class:`RunRepository`, the SQLite run
  store keyed by :attr:`~repro.harness.sweep.Cell.key` (shared with
  ``repro sweep``), so identical cells dedupe to one execution across
  submissions; its ``jobs`` table is the durable priority+FIFO queue,
  and its ``transition`` is the job state machine (:data:`TRANSITIONS`,
  :class:`StateError`);
* :mod:`repro.svc.service` — :class:`SweepService`, the orchestrator
  tying the above to the :class:`~repro.harness.fleet.WorkerFleet` (it
  dispatches the spec's cells and maps each result back through its own
  in-flight table) and publishing ``svc.*`` events through
  :mod:`repro.obs`, whose counts are its ``/metrics``;
* :mod:`repro.svc.api` — the stdlib HTTP layer (``repro serve``);
* :mod:`repro.svc.client` — :class:`ServiceClient` for ``repro
  submit`` / ``repro jobs`` and tests.

Importing the package is side-effect free: no sockets, threads, or
processes are created until :meth:`SweepService.start` /
:func:`repro.svc.api.serve` are called explicitly. The package imports
none of its modules, so ``import repro.svc.client`` loads no simulator.
"""
