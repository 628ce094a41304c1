"""One mutation table, one conviction row per pair.

Each (mutation, fabric) pair of :data:`repro.verify.faults.MUTATIONS`
is a conviction row of :mod:`repro.mc.matrix`: the violated invariant,
the counterexample length, the state cap and where it runs. The pairs
must be exactly the table's, so a new mutation without a row fails.
``docs/verification.md`` renders the matrix; a drift check keeps it
equal to the rows.
"""

from __future__ import annotations

import os
from typing import List

import pytest

from repro.coherence.directory import DirectoryFabric
from repro.coherence.multichip import MultiChipFabric
from repro.coherence.snooping import SnoopingFabric
from repro.common.config import ConfigError
from repro.mc import ModelConfig, ProtocolModel
from repro.mc.matrix import conviction_cell, convictions
from repro.verify.faults import MUTATIONS

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FABRICS = {"directory": DirectoryFabric, "snooping": SnoopingFabric,
           "multichip": MultiChipFabric}


def test_expectations_cover_exactly_the_table():
    table_pairs = {(name, fabric)
                   for name, mutation in MUTATIONS.items()
                   for fabric, cls in FABRICS.items()
                   if cls in mutation.mutants}
    assert set(convictions()) == table_pairs


def test_a_pair_outside_the_table_is_rejected():
    with pytest.raises(ConfigError):
        ProtocolModel(ModelConfig(fabric="snooping",
                                  mutation="sticky-discharge"))
    with pytest.raises(ConfigError):
        ProtocolModel(ModelConfig(mutation="bogus"))


# -- the matrix, as published ------------------------------------------------

def render_matrix() -> str:
    """The mutation rows of docs/verification.md's conviction matrix."""
    lines: List[str] = [
        "| mutation | fabric | mechanism | `repro mc` | runtime oracles |",
        "| --- | --- | --- | --- | --- |"]
    rows = convictions()
    for name in MUTATIONS:
        for fabric in FABRICS:
            row = rows.get((name, fabric))
            if row is None:
                continue
            lines.append(
                f"| `{name}` | {fabric} | {MUTATIONS[name].mechanism} | "
                f"{conviction_cell(row)} | none yet |")
    return "\n".join(lines) + "\n"


def test_docs_publish_the_matrix():
    path = os.path.join(REPO, "docs", "verification.md")
    with open(path, encoding="utf-8") as handle:
        doc = handle.read()
    rendered = render_matrix()
    assert rendered in doc, \
        f"docs/verification.md's matrix is stale; it should read:\n" \
        f"{rendered}"

