"""Bounded exhaustive state-space exploration (the ``repro mc`` engine).

A Murphi-style explicit-state checker: breadth-first search over the
protocol model's reachable states, with

* **canonical hashing** — the visited set stores symmetry-reduced
  canonical forms (:func:`repro.mc.state.canonical_key`), so states
  differing only by core/block relabeling are explored once;
* **a state cap** — exploration is bounded; hitting the cap is reported
  as an incomplete (but still useful) search rather than an error;
* **on-the-fly invariants** — every *newly discovered* state is audited
  by :func:`repro.mc.invariants.violated_invariant` the moment it is
  generated, and abort transitions self-check log restorability while
  they execute. Because invariants are symmetric under the same
  relabelings as the state encoding, checking one representative per
  canonical class is sound;
* **shortest counterexamples** — BFS order makes the first violating
  path minimal in transition count. The parent chain stores the action
  that first reached each canonical state from its parent's exact
  state, so the extracted path is concretely executable; the
  counterexample re-runs it on a fresh model with an
  :class:`~repro.obs.bus.EventBus` attached, turning the abstract action
  list into the PR-2 event taxonomy (``coh.*``, ``tm.*``, ``log.*``,
  ``os.*``) with the step index as the clock.

Single live model, no deep copies: BFS re-installs states via
``decode(raw)`` before expanding each transition.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.mc.invariants import violated_invariant
from repro.mc.model import (Action, ModelConfig, ProtocolModel,
                            TransitionViolation, action_from_dict,
                            action_to_dict, format_action)
from repro.mc.state import canonical_key, state_remaps, symmetry_maps
from repro.obs.bus import EventBus, RingBufferLog

#: Default bound on distinct canonical states explored. The clean
#: 2-core/2-block/1-context directory space closes above it — pass
#: ``--state-cap 150000`` to verify it exhaustively (several minutes).
#: The default trades completeness for runtime; every known mutation
#: convicts far under it. Every pinned exploration, with its cap and
#: counts, is a row of :mod:`repro.mc.matrix`.
DEFAULT_STATE_CAP = 50_000


@dataclass
class CounterexampleStep:
    """One transition of a violating path, with its replayed events."""

    index: int                      # 1-based step number
    action: Dict[str, object]       # action_to_dict form
    label: str                      # format_action form
    events: List[Dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {"index": self.index, "action": self.action,
                "label": self.label, "events": self.events}


@dataclass
class Counterexample:
    """Shortest path from the initial state to an invariant violation."""

    invariant: str
    message: str
    steps: List[CounterexampleStep]

    def to_dict(self) -> Dict[str, object]:
        return {"invariant": self.invariant, "message": self.message,
                "length": len(self.steps),
                "steps": [s.to_dict() for s in self.steps]}

    def path(self) -> List[Action]:
        """The action sequence, ready for :func:`replay`."""
        return [action_from_dict(s.action) for s in self.steps]

    def render(self) -> str:
        """Human-readable trace: one line per step, events indented."""
        lines = [f"counterexample ({len(self.steps)} steps) -> "
                 f"{self.invariant}:",
                 f"  {self.message}"]
        for step in self.steps:
            lines.append(f"  {step.index}. {step.label}")
            for ev in step.events:
                fields = ", ".join(
                    f"{k}={v}" for k, v in ev.items()
                    if k not in ("time", "kind"))
                lines.append(f"       {ev['kind']}({fields})")
        return "\n".join(lines)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


@dataclass
class ModelCheckResult:
    """Outcome of one bounded exploration."""

    config: ModelConfig
    states: int                 # distinct canonical states discovered
    transitions: int            # state-changing transitions examined
    depth: int                  # deepest BFS level reached
    fixed_point: bool           # True: frontier exhausted under the cap
    state_cap: int
    violation: Optional[Tuple[str, str]] = None   # (invariant, message)
    counterexample: Optional[Counterexample] = None

    @property
    def clean(self) -> bool:
        return self.violation is None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "config": self.config.to_dict(),
            "states": self.states,
            "transitions": self.transitions,
            "depth": self.depth,
            "fixed_point": self.fixed_point,
            "state_cap": self.state_cap,
            "clean": self.clean,
        }
        if self.violation is not None:
            out["violation"] = {"invariant": self.violation[0],
                                "message": self.violation[1]}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.to_dict()
        return out

    def summary(self) -> str:
        if not self.clean:
            status = "stopped at violation"
        elif self.fixed_point:
            status = "fixed point"
        else:
            status = f"state cap {self.state_cap} reached"
        verdict = ("clean" if self.clean
                   else f"VIOLATION: {self.violation[0]}")
        return (f"{self.config.describe()}: {self.states} states, "
                f"{self.transitions} transitions, depth {self.depth} "
                f"({status}) — {verdict}")


class _EventSink:
    """Minimal recorder (duck-typing ``EventBus.record``) that
    collects one transition's emitted events for the observer."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Tuple[str, Dict[str, object]]] = []

    def record(self, kind: str, **fields) -> None:
        self.events.append((kind, fields))


def check(mcfg: ModelConfig,
          state_cap: int = DEFAULT_STATE_CAP,
          observer=None) -> ModelCheckResult:
    """Explore the reachable state space; stop at the first violation.

    ``observer``, when given, is called as ``observer(model, action,
    events, before, after)`` after every successfully applied
    transition — *including* self-loops the BFS discards (a NACK that
    moved nothing is still an exercised protocol transition, which the
    observed tables of :mod:`repro.mc.tables` record). ``events`` is the
    list of ``(kind, fields)`` the transition emitted; a sink recorder
    is installed for the duration of the exploration. ``before`` and
    ``after`` are the encoded states the action left and reached.
    """
    model = ProtocolModel(mcfg)
    sink: Optional[_EventSink] = None
    if observer is not None:
        sink = _EventSink()
        model.stats.recorder = sink
    remaps = state_remaps(model.layout, symmetry_maps(mcfg))
    init_raw = model.encode()
    init_key = canonical_key(init_raw, remaps)

    # parent chain: canonical key -> (parent key, action).
    parents: Dict[Tuple, Optional[Tuple[Tuple, Action]]] = {init_key: None}
    frontier: Deque[Tuple[Tuple, Tuple, int]] = deque(
        [(init_raw, init_key, 0)])
    states = 1
    transitions = 0
    max_depth = 0

    bad = violated_invariant(model)
    if bad is not None:
        return ModelCheckResult(
            config=mcfg, states=states, transitions=transitions, depth=0,
            fixed_point=False, state_cap=state_cap, violation=bad,
            counterexample=_replayed(mcfg, [], *bad))

    while frontier and states < state_cap:
        raw, key, depth = frontier.popleft()
        model.decode(raw)
        for i, action in enumerate(model.actions()):
            if states >= state_cap:
                break
            if i:
                model.decode(raw)
            if sink is not None:
                sink.events = []
            try:
                model.apply(action)
            except TransitionViolation as tv:
                transitions += 1
                path = _path_to(parents, key) + [action]
                return ModelCheckResult(
                    config=mcfg, states=states, transitions=transitions,
                    depth=max(max_depth, depth + 1),
                    fixed_point=False, state_cap=state_cap,
                    violation=(tv.invariant, str(tv)),
                    counterexample=_replayed(mcfg, path, tv.invariant,
                                             str(tv)))
            child_raw = model.encode()
            if observer is not None:
                observer(model, action, sink.events, raw, child_raw)
            if child_raw == raw:
                continue        # self-loop (e.g. a NACK that moved nothing)
            transitions += 1
            child_key = canonical_key(child_raw, remaps)
            if child_key in parents:
                continue
            parents[child_key] = (key, action)
            states += 1
            max_depth = max(max_depth, depth + 1)
            bad = violated_invariant(model)
            if bad is not None:
                return ModelCheckResult(
                    config=mcfg, states=states, transitions=transitions,
                    depth=max_depth, fixed_point=False,
                    state_cap=state_cap, violation=bad,
                    counterexample=_replayed(
                        mcfg, _path_to(parents, child_key), *bad))
            frontier.append((child_raw, child_key, depth + 1))
    return ModelCheckResult(
        config=mcfg, states=states, transitions=transitions,
        depth=max_depth, fixed_point=not frontier,
        state_cap=state_cap)


def _path_to(parents: Dict, key: Tuple) -> List[Action]:
    """Walk the parent chain back to the initial state."""
    path: List[Action] = []
    while parents[key] is not None:
        key, action = parents[key]
        path.append(action)
    return path[::-1]


def _replayed(mcfg: ModelConfig, path: List[Action], invariant: str,
              message: str) -> Counterexample:
    """Re-run a violating path on a fresh model, capturing events.

    The bus's clock is the (0-based) step index, so each event lands in
    the step that caused it. The final step is allowed to raise (a
    transition-scoped violation *is* the finding).
    """
    model = ProtocolModel(mcfg)
    clock = [0]
    bus = EventBus(clock=lambda: clock[0])
    log = RingBufferLog()
    bus.subscribe(log)
    model.stats.recorder = bus
    for i, action in enumerate(path):
        clock[0] = i
        try:
            model.apply(action)
        except TransitionViolation:
            if i != len(path) - 1:
                raise   # mid-path violations mean a nondeterministic model
    by_step: Dict[int, List[Dict[str, object]]] = {}
    for event in log.events():
        by_step.setdefault(event.time, []).append(event.to_dict())
    steps = [CounterexampleStep(index=i + 1, action=action_to_dict(a),
                                label=format_action(a),
                                events=by_step.get(i, []))
             for i, a in enumerate(path)]
    return Counterexample(invariant=invariant, message=message,
                          steps=steps)


def replay(mcfg: ModelConfig, path: List[Action]) -> ProtocolModel:
    """Apply a recorded action sequence to a fresh model and return it.

    Test hook: lets assertions inspect the final concrete state a
    counterexample claims to reach (determinism of the replay is itself
    part of the checker's contract).
    """
    model = ProtocolModel(mcfg)
    for action in path:
        try:
            model.apply(action)
        except TransitionViolation:
            pass
    return model


__all__ = [
    "DEFAULT_STATE_CAP", "Counterexample", "CounterexampleStep",
    "ModelCheckResult", "check", "replay",
]
