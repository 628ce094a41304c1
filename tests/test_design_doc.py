"""DESIGN.md §3 (the module map) names the simulator's modules as they are.

Every ``repro/...`` path the section names must exist, and every module
of each package the section covers must be named, so the map cannot
drift from the tree in either direction.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def module_map_paths():
    """Every ``repro/...`` path DESIGN.md §3 names, braces expanded."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## 3.", 1)[1].split("\n## ", 1)[0]
    paths = set()
    for ref in re.findall(r"`(repro/[^`]*)`", section):
        braced = re.fullmatch(r"(.*)\{([^}]*)\}(.*)", ref)
        if braced:
            head, names, tail = braced.groups()
            paths.update(head + name + tail for name in names.split(","))
        else:
            paths.add(ref)
    return paths


def test_every_named_module_exists():
    paths = module_map_paths()
    assert paths
    assert sorted(p for p in paths if not (SRC / p).is_file()) == []


def test_every_module_of_a_covered_package_is_named():
    paths = module_map_paths()
    packages = {Path(p).parent for p in paths} - {Path("repro")}
    assert len(packages) >= 12
    unnamed = sorted(
        str(module.relative_to(SRC))
        for package in packages
        for module in (SRC / package).glob("*.py")
        if module.name != "__init__.py"
        and str(module.relative_to(SRC)) not in paths)
    assert unnamed == []
