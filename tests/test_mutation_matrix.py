"""One mutation table, every protocol checker.

Each (mutation, fabric) pair of :data:`repro.verify.faults.MUTATIONS`
has one expectation per checker:

* the bounded model checker's conviction (``repro mc --mutate``) is a
  row of :mod:`repro.mc.matrix`: the violated invariant, the
  counterexample length, the state cap and where it runs;
* the static protocol analyzer's conviction (``repro analyze
  --protocol``) of the real fabric source with the pre-fix function
  spliced in is here: the PC rule of each finding, and the profile
  marker or transition every finding names.

The pairs of both must be exactly the table's, so a new mutation
without expectations fails. ``docs/verification.md`` renders the
matrix; a drift check keeps it equal to both.
"""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

import pytest

import repro.coherence
from repro.analysis.callgraph import Project, parse_module
from repro.analysis.engine import build_project
from repro.analysis.protocol import check_extraction, extract_tables
from repro.coherence.directory import DirectoryFabric
from repro.coherence.multichip import MultiChipFabric
from repro.coherence.snooping import SnoopingFabric
from repro.common.errors import ConfigError
from repro.mc.matrix import conviction_cell, convictions
from repro.verify.faults import MUTATIONS, mutated_class, spliced_source

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FABRICS = {"directory": DirectoryFabric, "snooping": SnoopingFabric,
           "multichip": MultiChipFabric}


@dataclass(frozen=True)
class Expected:
    #: One PC rule per static finding, sorted.
    rules: Tuple[str, ...]
    #: Text every static finding's message contains.
    names: str


EXPECTED: Dict[Tuple[str, str], Expected] = {
    ("sticky-discharge", "directory"): Expected(
        ("PC003", "PC003"), "unexpected STICKY_DISCHARGE_UNGUARDED"),
    ("sticky-discharge", "multichip"): Expected(
        ("PC003", "PC003"), "unexpected STICKY_DISCHARGE_UNGUARDED"),
    ("eager-e-grant", "directory"): Expected(
        ("PC003",), "missing E_STICKY_GUARDED"),
    ("eager-e-grant", "snooping"): Expected(
        ("PC003",), "missing E_SIG_GUARDED"),
    ("eager-e-grant", "multichip"): Expected(
        ("PC003", "PC003"), "missing E_STICKY_GUARDED"),
    ("no-scrub", "directory"): Expected(
        ("PC001", "PC003"), "(SCRUB/-/done)"),
    ("no-scrub", "snooping"): Expected(("PC001",), "(SCRUB/-/done)"),
    ("no-scrub", "multichip"): Expected(
        ("PC001", "PC003"), "(SCRUB/-/done)"),
}

PAIRS = sorted(EXPECTED)


def _pair_id(pair: Tuple[str, str]) -> str:
    return f"{pair[1]}-{pair[0]}"


def test_expectations_cover_exactly_the_table():
    table_pairs = {(name, fabric)
                   for name, mutation in MUTATIONS.items()
                   for fabric, cls in FABRICS.items()
                   if cls in mutation.mutants}
    assert set(EXPECTED) == table_pairs
    assert set(convictions()) == table_pairs


def test_a_pair_outside_the_table_is_rejected():
    with pytest.raises(ConfigError):
        spliced_source("sticky-discharge", SnoopingFabric)
    with pytest.raises(ConfigError):
        spliced_source("bogus", DirectoryFabric)


# -- repro analyze --protocol ----------------------------------------------

@pytest.fixture(scope="module")
def coherence_project() -> Project:
    return build_project([os.path.dirname(repro.coherence.__file__)])


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_static_analyzer_convicts(pair, coherence_project):
    """The analyzer reads the coherence package with the module that
    defines the replaced method spliced, and only the mutant fabric's
    findings count: a method of a shared base class changes every
    fabric that inherits it."""
    mutation, fabric = pair
    expected = EXPECTED[pair]
    cls = FABRICS[fabric]
    owner = mutated_class(mutation, cls)
    spliced = parse_module(inspect.getsourcefile(owner),
                           spliced_source(mutation, cls),
                           name=owner.__module__)
    project = Project([m for m in coherence_project.modules
                       if m.name != owner.__module__] + [spliced])
    findings = [finding for extraction in extract_tables(project)
                if extraction.cls.name == cls.__name__
                for finding in check_extraction(extraction)]
    assert tuple(sorted(f.rule for f in findings)) == expected.rules
    assert all(expected.names in f.message for f in findings), \
        [f.message for f in findings]


# -- the matrix, as published ------------------------------------------------

def _rules_cell(rules: Tuple[str, ...]) -> str:
    return " + ".join(rule if rules.count(rule) == 1
                      else f"{rule} ×{rules.count(rule)}"
                      for rule in sorted(set(rules)))


def render_matrix() -> str:
    """The mutation rows of docs/verification.md's conviction matrix."""
    lines: List[str] = [
        "| mutation | fabric | mechanism | `repro mc` | "
        "`repro analyze --protocol` | runtime oracles |",
        "| --- | --- | --- | --- | --- | --- |"]
    rows = convictions()
    for name in MUTATIONS:
        for fabric in FABRICS:
            expected = EXPECTED.get((name, fabric))
            if expected is None:
                continue
            lines.append(
                f"| `{name}` | {fabric} | {MUTATIONS[name].mechanism} | "
                f"{conviction_cell(rows[name, fabric])} | "
                f"{_rules_cell(expected.rules)} | none yet |")
    return "\n".join(lines) + "\n"


def test_docs_publish_the_matrix():
    path = os.path.join(REPO, "docs", "verification.md")
    with open(path, encoding="utf-8") as handle:
        doc = handle.read()
    rendered = render_matrix()
    assert rendered in doc, \
        f"docs/verification.md's matrix is stale; it should read:\n" \
        f"{rendered}"

