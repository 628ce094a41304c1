"""Bounded exhaustive protocol model checking (``repro mc``).

The paper's safety argument — signatures never yield false negatives,
and sticky/check-all obligations preserve conflict-detection coverage
across every victimization and paging event — is a claim about *all*
reachable protocol states, not the ones a workload happens to visit.
This package checks it in the Murphi/TLA tradition: enumerate every
reachable state of a small configuration of the real fabric code, audit
invariants at each one, and report the shortest violating path as a
replayable event trace.

Layout:

* :mod:`repro.mc.model` — the finite transition system: the
  simulator's fabric, cores and TM manager, driven one atomic action at
  a time, with ``encode`` / ``decode`` state round-tripping;
* :mod:`repro.mc.state` — symmetry reduction over core (and chip)
  permutations and the block permutations the signature cannot tell
  apart, each an index permutation of an encoded state;
* :mod:`repro.mc.invariants` — TM-level invariants layered on the
  coherence audits;
* :mod:`repro.mc.checker` — BFS frontier, state cap, counterexample
  extraction and replay;
* :mod:`repro.mc.tables` — records what each explored fabric
  transition did, keyed by ``(stimulus, variant, outcome)``: the
  observed protocol tables under ``docs/protocol_tables/`` and the
  paper's contract they must satisfy;
* :mod:`repro.mc.matrix` — every pinned exploration and its exact
  outcome, declared once: tier-1 and CI run its rows, and the docs
  publish the table it renders.

Validation: the mutation harness in :mod:`repro.verify.faults`
resurrects the three protocol bugs fixed by the dynamic-analysis PR
(sticky over-discharge, eager E grants, missing frame scrub); a
conviction row of the matrix per (mutation, fabric) pair proves the
checker convicts each with a counterexample.
"""

from repro.mc.checker import (DEFAULT_STATE_CAP, Counterexample,
                              ModelCheckResult, check, replay)
from repro.mc.model import (ModelConfig, ProtocolModel, action_from_dict,
                            action_to_dict)
from repro.mc.tables import TransitionRecorder

__all__ = [
    "DEFAULT_STATE_CAP", "Counterexample", "ModelCheckResult",
    "ModelConfig", "ProtocolModel", "TransitionRecorder",
    "action_from_dict", "action_to_dict", "check", "replay",
]
