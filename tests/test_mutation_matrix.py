"""One mutation table, every protocol checker.

Each (mutation, fabric) pair of :data:`repro.verify.faults.MUTATIONS`
has one expectation here:

* the bounded model checker's conviction (``repro mc --mutate``): the
  violated invariant, the counterexample length, the state cap, and
  whether tier-1 or only CI's ``modelcheck`` job runs it;
* the static protocol analyzer's conviction (``repro analyze
  --protocol``) of the real fabric source with the pre-fix function
  spliced in: the PC rule of each finding, and the profile marker or
  transition every finding names.

The pairs must be exactly the table's, so a new mutation without
expectations fails. ``docs/verification.md`` renders the matrix, and
the CI conviction loop lists every pair; drift checks keep both equal
to the expectations below.
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
from repro.mc import ModelConfig, check
from repro.verify.faults import MUTATIONS, mutated_class, spliced_source

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FABRICS = {"directory": DirectoryFabric, "snooping": SnoopingFabric,
           "multichip": MultiChipFabric}


@dataclass(frozen=True)
class Expected:
    invariant: str
    steps: int
    state_cap: int
    #: False: too slow for tier-1; CI's modelcheck job convicts it.
    tier1: bool
    #: One PC rule per static finding, sorted.
    rules: Tuple[str, ...]
    #: Text every static finding's message contains.
    names: str


EXPECTED: Dict[Tuple[str, str], Expected] = {
    ("sticky-discharge", "directory"): Expected(
        "read-coverage", 4, 1_000, True, ("PC003", "PC003"),
        "unexpected STICKY_DISCHARGE_UNGUARDED"),
    ("sticky-discharge", "multichip"): Expected(
        "read-coverage", 4, 1_000, True, ("PC003", "PC003"),
        "unexpected STICKY_DISCHARGE_UNGUARDED"),
    ("eager-e-grant", "directory"): Expected(
        "tm-isolation", 7, 6_000, True, ("PC003",),
        "missing E_STICKY_GUARDED"),
    ("eager-e-grant", "snooping"): Expected(
        "tm-isolation", 7, 5_000, True, ("PC003",),
        "missing E_SIG_GUARDED"),
    ("eager-e-grant", "multichip"): Expected(
        "tm-isolation", 7, 25_000, False, ("PC003", "PC003"),
        "missing E_STICKY_GUARDED"),
    ("no-scrub", "directory"): Expected(
        "frame-tenancy", 2, 500, True, ("PC001", "PC003"),
        "(SCRUB/-/done)"),
    ("no-scrub", "snooping"): Expected(
        "frame-tenancy", 2, 500, True, ("PC001",), "(SCRUB/-/done)"),
    ("no-scrub", "multichip"): Expected(
        "frame-tenancy", 2, 500, True, ("PC001", "PC003"),
        "(SCRUB/-/done)"),
}

PAIRS = sorted(EXPECTED)
TIER1_PAIRS = [pair for pair in PAIRS if EXPECTED[pair].tier1]


def _pair_id(pair: Tuple[str, str]) -> str:
    return f"{pair[1]}-{pair[0]}"


def test_expectations_cover_exactly_the_table():
    table_pairs = {(name, fabric)
                   for name, mutation in MUTATIONS.items()
                   for fabric, cls in FABRICS.items()
                   if cls in mutation.mutants}
    assert set(EXPECTED) == table_pairs


def test_a_pair_outside_the_table_is_rejected():
    with pytest.raises(ConfigError):
        spliced_source("sticky-discharge", SnoopingFabric)
    with pytest.raises(ConfigError):
        spliced_source("bogus", DirectoryFabric)


# -- repro mc ------------------------------------------------------------

@pytest.mark.parametrize("pair", TIER1_PAIRS, ids=_pair_id)
def test_model_checker_convicts(pair):
    mutation, fabric = pair
    expected = EXPECTED[pair]
    result = check(ModelConfig(fabric=fabric, mutation=mutation),
                   state_cap=expected.state_cap)
    assert not result.clean, \
        f"{fabric}/{mutation} escaped conviction: {result.summary()}"
    assert result.violation[0] == expected.invariant
    assert len(result.counterexample.steps) == expected.steps


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

def _mc_cell(expected: Expected) -> str:
    where = "tier-1" if expected.tier1 else "CI"
    return (f"`{expected.invariant}`, {expected.steps} steps, "
            f"cap {expected.state_cap:,} ({where})")


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
    for name in MUTATIONS:
        for fabric in FABRICS:
            expected = EXPECTED.get((name, fabric))
            if expected is None:
                continue
            lines.append(
                f"| `{name}` | {fabric} | {MUTATIONS[name].mechanism} | "
                f"{_mc_cell(expected)} | {_rules_cell(expected.rules)} | "
                "none yet |")
    return "\n".join(lines) + "\n"


def test_docs_publish_the_matrix():
    path = os.path.join(REPO, "docs", "verification.md")
    with open(path, encoding="utf-8") as handle:
        doc = handle.read()
    rendered = render_matrix()
    assert rendered in doc, \
        f"docs/verification.md's matrix is stale; it should read:\n" \
        f"{rendered}"


def test_ci_convicts_every_pair():
    """CI's conviction loop runs every pair at its cap and checks the
    invariant and length; for a non-tier-1 pair it is the only run."""
    path = os.path.join(REPO, ".github", "workflows", "ci.yml")
    with open(path, encoding="utf-8") as handle:
        ci = handle.read()
    for (mutation, fabric), expected in EXPECTED.items():
        spec = (f'"{fabric} {mutation} {expected.state_cap} '
                f'{expected.invariant} {expected.steps}"')
        assert spec in ci, f"CI's conviction loop lacks {spec}"

