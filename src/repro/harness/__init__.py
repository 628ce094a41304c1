"""Experiment harness: system builder, runner, experiments, reports,
and the sweep engine that runs every grid of cells."""

from repro.harness.runner import RunResult, run_workload
from repro.harness.sweep import (Cell, SweepExecutionError, SweepResult,
                                 TaskOutcome, execute_tasks, run_sweep,
                                 signature_design_variants,
                                 signature_size_variants)
from repro.harness.system import System

__all__ = ["Cell", "RunResult", "SweepExecutionError", "SweepResult",
           "System", "TaskOutcome", "execute_tasks", "run_sweep",
           "run_workload", "signature_design_variants",
           "signature_size_variants"]
