"""Experiment harness: system builder, runner, experiments, reports,
and parallel sweep execution over the worker fleet."""

from repro.harness.parallel import (RunTask, SweepExecutionError,
                                    TaskOutcome, execute_tasks,
                                    run_parallel_sweep)
from repro.harness.runner import RunResult, run_perturbed, run_workload
from repro.harness.sweep import (SweepResult, run_sweep,
                                 signature_design_variants,
                                 signature_size_variants)
from repro.harness.system import System

__all__ = ["RunResult", "RunTask", "SweepExecutionError", "SweepResult",
           "System", "TaskOutcome", "execute_tasks", "run_parallel_sweep",
           "run_perturbed", "run_sweep", "run_workload",
           "signature_design_variants", "signature_size_variants"]
