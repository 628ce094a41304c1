"""The model-checking matrix: every pinned ``repro mc`` run, declared once.

Each :class:`Row` is one exploration, a :class:`ModelConfig` (a
conviction row sets ``mutation``) under a state cap, with the exact
outcome it must reach: states, transitions, depth, whether the frontier
emptied, and the violated invariant with its counterexample length. A
fixed point's counts do not depend on breadth-first order; a cap's
counts are a prefix of it and move with the order actions are
generated in.

Each row names where it runs. Tier-1 runs the rows that finish in a few
seconds (``tests/test_mc_matrix.py``); CI's ``modelcheck`` job runs the
others through this module's :func:`main`::

    python -m repro.mc.matrix --dump-dir mc-artifacts \
        --tables docs/protocol_tables

With ``--tables DIR`` it also runs the tier-1 rows without a mutation
and records every row without a mutation: ``DIR/<fabric>.json`` is the
union of what those rows observed each fabric transition do
(:mod:`repro.mc.tables`).

The same rows render the table in ``docs/modelcheck.md`` and the
``repro mc`` column of ``docs/verification.md``, and tier-1 checks that
both docs publish what this module renders. A row's name is its fabric
and what sets the shape apart, except that the directory, the default
fabric, names only its own default shape.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.common.config import SignatureKind
from repro.mc.checker import DEFAULT_STATE_CAP, ModelCheckResult, check
from repro.mc.model import ModelConfig
from repro.mc.tables import TransitionRecorder, write_table

TIER1 = "tier-1"
CI = "CI"

BS = SignatureKind.BIT_SELECT


class Outcome(NamedTuple):
    """What one exploration reached, in the terms a row pins."""

    states: int
    transitions: int
    depth: int
    fixed_point: bool
    violation: Optional[str]
    steps: Optional[int]

    @classmethod
    def of(cls, result: ModelCheckResult) -> "Outcome":
        cx = result.counterexample
        return cls(result.states, result.transitions, result.depth,
                   result.fixed_point,
                   result.violation[0] if result.violation else None,
                   len(cx.steps) if cx is not None else None)


@dataclass(frozen=True)
class Row:
    """One pinned exploration and the outcome it must reproduce."""

    name: str
    where: str
    config: ModelConfig
    states: int
    transitions: int
    depth: int
    fixed_point: bool = False
    violation: Optional[str] = None
    steps: Optional[int] = None
    state_cap: int = DEFAULT_STATE_CAP

    @property
    def expected(self) -> Outcome:
        return Outcome(self.states, self.transitions, self.depth,
                       self.fixed_point, self.violation, self.steps)

    def arguments(self) -> str:
        """The ``repro mc`` arguments that run this row."""
        cfg, default = self.config, ModelConfig()
        args = [f"--fabric {cfg.fabric}"]
        for flag, name in (("--chips", "chips"), ("--cores", "cores"),
                           ("--contexts", "contexts_per_core"),
                           ("--blocks", "blocks")):
            if getattr(cfg, name) != getattr(default, name):
                args.append(f"{flag} {getattr(cfg, name)}")
        if cfg.signature is not default.signature:
            args.append(f"--signature {cfg.signature.value}")
        if cfg.signature_bits != default.signature_bits:
            args.append(f"--bits {cfg.signature_bits}")
        if cfg.mutation is not None:
            args.append(f"--mutate {cfg.mutation}")
        if self.state_cap != DEFAULT_STATE_CAP:
            args.append(f"--state-cap {self.state_cap}")
        return " ".join(args)


ROWS: Tuple[Row, ...] = (
    # -- directory ---------------------------------------------------------
    Row("directory", CI, ModelConfig(), state_cap=150_000,
        states=124_229, transitions=1_625_646, depth=24, fixed_point=True),
    Row("3-cores", TIER1, ModelConfig(cores=3, blocks=1),
        states=2_372, transitions=27_674, depth=17, fixed_point=True),
    Row("smt-1-core", TIER1,
        ModelConfig(cores=1, contexts_per_core=2, blocks=1),
        states=436, transitions=3_160, depth=8, fixed_point=True),
    Row("smt-1-core-2-blocks", CI,
        ModelConfig(cores=1, contexts_per_core=2), state_cap=20_000,
        states=20_000, transitions=139_722, depth=9),
    Row("smt-2-core", CI, ModelConfig(contexts_per_core=2, blocks=1),
        states=4_772, transitions=62_252, depth=16, fixed_point=True),
    # A 1-bit register aliases both blocks, so a sibling NACKs accesses
    # it never touched.
    Row("smt-1-core-bs-1-bit", TIER1,
        ModelConfig(cores=1, contexts_per_core=2, signature=BS,
                    signature_bits=1), state_cap=2_000,
        states=2_000, transitions=7_194, depth=6),
    # Open: a broadcast rebuild records a write-set holder as a plain
    # sharer (ROADMAP item 17). The mend flips this row.
    Row("bs-1-bit", CI, ModelConfig(signature=BS, signature_bits=1),
        state_cap=20_000, states=14_178, transitions=77_849, depth=8,
        violation="tm-isolation", steps=8),
    # Blocks 0 and 2 share a register bit and block 1 has its own, so
    # only the (0 2) block swap is a symmetry.
    Row("bs-2-bit-3-blocks", CI,
        ModelConfig(blocks=3, signature=BS, signature_bits=2),
        state_cap=20_000, states=20_000, transitions=77_806, depth=6),
    # -- snooping ----------------------------------------------------------
    Row("snooping", CI, ModelConfig(fabric="snooping"),
        states=14_400, transitions=152_364, depth=14, fixed_point=True),
    Row("snooping-3-cores", TIER1,
        ModelConfig(fabric="snooping", cores=3, blocks=1),
        states=656, transitions=6_936, depth=12, fixed_point=True),
    Row("snooping-smt-2-core", TIER1,
        ModelConfig(fabric="snooping", contexts_per_core=2, blocks=1),
        states=1_612, transitions=17_960, depth=12, fixed_point=True),
    Row("snooping-bs-1-bit", CI,
        ModelConfig(fabric="snooping", signature=BS, signature_bits=1),
        states=16_284, transitions=158_012, depth=17, fixed_point=True),
    # -- multichip ---------------------------------------------------------
    Row("multichip", CI, ModelConfig(fabric="multichip"),
        states=50_000, transitions=321_717, depth=7),
    Row("multichip-3-chips", CI,
        ModelConfig(fabric="multichip", chips=3, cores=1, blocks=1),
        states=5_972, transitions=72_840, depth=19, fixed_point=True),
    Row("multichip-smt-1-core", CI,
        ModelConfig(fabric="multichip", cores=1, contexts_per_core=2,
                    blocks=1),
        states=6_820, transitions=89_788, depth=15, fixed_point=True),
    Row("multichip-smt-1-core-2-blocks", CI,
        ModelConfig(fabric="multichip", cores=1, contexts_per_core=2),
        state_cap=20_000, states=20_000, transitions=112_702, depth=7),
    Row("multichip-bs-1-bit", CI,
        ModelConfig(fabric="multichip", signature=BS, signature_bits=1),
        state_cap=20_000, states=20_000, transitions=109_359, depth=6),
    # -- convictions: one row per (mutation, fabric) pair of
    # repro.verify.faults.MUTATIONS ---------------------------------------
    Row("sticky-discharge", TIER1,
        ModelConfig(mutation="sticky-discharge"), state_cap=1_000,
        states=188, transitions=522, depth=4,
        violation="read-coverage", steps=4),
    Row("multichip-sticky-discharge", TIER1,
        ModelConfig(fabric="multichip", mutation="sticky-discharge"),
        state_cap=1_000, states=323, transitions=1_144, depth=4,
        violation="read-coverage", steps=4),
    Row("eager-e-grant", TIER1,
        ModelConfig(mutation="eager-e-grant"), state_cap=6_000,
        states=5_466, transitions=26_479, depth=7,
        violation="tm-isolation", steps=7),
    Row("snooping-eager-e-grant", TIER1,
        ModelConfig(fabric="snooping", mutation="eager-e-grant"),
        state_cap=5_000, states=3_117, transitions=15_478, depth=7,
        violation="tm-isolation", steps=7),
    Row("multichip-eager-e-grant", CI,
        ModelConfig(fabric="multichip", mutation="eager-e-grant"),
        state_cap=25_000, states=20_815, transitions=123_662, depth=7,
        violation="tm-isolation", steps=7),
    Row("no-scrub", TIER1, ModelConfig(mutation="no-scrub"),
        state_cap=500, states=20, transitions=37, depth=2,
        violation="frame-tenancy", steps=2),
    Row("snooping-no-scrub", TIER1,
        ModelConfig(fabric="snooping", mutation="no-scrub"),
        state_cap=500, states=18, transitions=36, depth=2,
        violation="frame-tenancy", steps=2),
    Row("multichip-no-scrub", TIER1,
        ModelConfig(fabric="multichip", mutation="no-scrub"),
        state_cap=500, states=25, transitions=67, depth=2,
        violation="frame-tenancy", steps=2),
)


def rows(where: str) -> List[Row]:
    """The rows that run in ``where``, :data:`TIER1` or :data:`CI`."""
    return [row for row in ROWS if row.where == where]


def convictions() -> Dict[Tuple[str, str], Row]:
    """The conviction rows, keyed by (mutation, fabric)."""
    return {(row.config.mutation, row.config.fabric): row
            for row in ROWS if row.config.mutation is not None}


# -- the published tables -----------------------------------------------------

def verdict(row: Row) -> str:
    if row.violation is None:
        return "clean"
    return f"`{row.violation}`, {row.steps} steps"


def render() -> str:
    """The table ``docs/modelcheck.md`` publishes: every row."""
    lines = ["| row | `repro mc` arguments | runs in | states | "
             "transitions | depth | stops at | verdict |",
             "| --- | --- | --- | --- | --- | --- | --- | --- |"]
    for row in ROWS:
        stop = ("fixed point" if row.fixed_point
                else "cap" if row.violation is None else "violation")
        lines.append(
            f"| `{row.name}` | `{row.arguments()}` | {row.where} | "
            f"{row.states:,} | {row.transitions:,} | {row.depth} | "
            f"{stop} | {verdict(row)} |")
    return "\n".join(lines) + "\n"


def conviction_cell(row: Row) -> str:
    """A conviction's cell in ``docs/verification.md``'s ``repro mc``
    column."""
    return f"{verdict(row)}, cap {row.state_cap:,} ({row.where})"


# -- running the CI rows ---------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.mc.matrix",
        description="Run the CI rows; exit 1 unless each reproduces.")
    parser.add_argument("--dump-dir", default=None, metavar="DIR",
                        help="write each counterexample to DIR/NAME.cx.json")
    parser.add_argument("--tables", default=None, metavar="DIR",
                        help="also run the tier-1 rows without a mutation, "
                             "and write the protocol tables every row "
                             "without a mutation observed to "
                             "DIR/FABRIC.json")
    args = parser.parse_args(argv)
    selected = [row for row in ROWS if row.where == CI
                or (args.tables and row.config.mutation is None)]
    if args.dump_dir:
        os.makedirs(args.dump_dir, exist_ok=True)
    #: fabric -> its recorder and the rows it recorded.
    observed: Dict[str, Tuple[TransitionRecorder, List[str]]] = {}
    failed = 0
    for row in selected:
        recorder = None
        if args.tables and row.config.mutation is None:
            recorder, names = observed.setdefault(
                row.config.fabric, (TransitionRecorder(), []))
            names.append(row.name)
        start = time.perf_counter()
        result = check(row.config, state_cap=row.state_cap,
                       observer=recorder)
        seconds = time.perf_counter() - start
        got = Outcome.of(result)
        if args.dump_dir and result.counterexample is not None:
            result.counterexample.dump(
                os.path.join(args.dump_dir, f"{row.name}.cx.json"))
        status = "ok" if got == row.expected else "MISMATCH"
        print(f"{status} {row.name} ({seconds:.1f} s): {result.summary()}",
              flush=True)
        if got != row.expected:
            failed += 1
            print(f"  expected {row.expected}\n  got      {got}", flush=True)
    for fabric, (recorder, names) in sorted(observed.items()):
        path = write_table(args.tables, fabric, recorder.table, names)
        print(f"wrote {path}: {len(recorder.table)} transition(s)")
    print(f"{len(selected) - failed} of {len(selected)} row(s) reproduced")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
