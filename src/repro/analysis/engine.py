"""The static-analysis engine behind ``repro analyze`` and ``repro lint``.

One loader walks the given paths, reads every ``.py`` file and parses
it once; a missing or unreadable path raises :class:`OSError`. Two
entry points share it:

* :func:`lint_paths` runs one lint scope
  (:data:`repro.analysis.lint.SCOPES`) over every file and no project
  pass: ``repro lint`` runs the ``workload`` scope, ``repro lint
  --self`` the ``self`` scope.
* :func:`analyze_paths` runs, per file, the scopes that apply —
  ``workload`` for modules that call ``Section(...)``, ``self`` for
  modules inside the installed ``repro`` package — and then the
  :data:`PROJECT_PASSES` once over every parsed module. An unparsable
  file is one ``VR000`` finding.

Lint findings follow the ``# lint: disable`` suppression comments;
project-pass findings are governed by the committed baseline instead
(:mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import ast
import os
from dataclasses import replace
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.analysis.callgraph import ModuleInfo, Project, parse_module
from repro.analysis.findings import ANALYSIS_RULES, Finding
from repro.analysis.lint import RULES, SELF_RULES, lint_tree, parse_error
from repro.analysis.locksets import analyze_workload_module
from repro.analysis.threads import analyze_threads


def _repro_package_dir() -> str:
    import repro
    return os.path.dirname(os.path.abspath(repro.__file__))


def _module_name(path: str, package_dir: str) -> str:
    absolute = os.path.abspath(path)
    if absolute.startswith(package_dir + os.sep):
        relative = absolute[len(package_dir) + 1:]
        dotted = relative[:-3].replace(os.sep, ".")
        return f"repro.{dotted}"
    base = os.path.basename(path)
    return base[:-3] if base.endswith(".py") else base


def _load(paths: Optional[Sequence[str]]
          ) -> List[Tuple[str, Union[ModuleInfo, SyntaxError]]]:
    """``(path, module or its SyntaxError)`` per ``.py`` file, in walk order.

    Directories are walked recursively; a file named explicitly is read
    whatever its suffix. Default target is the installed ``repro``
    package. Each file is read and parsed exactly once; a missing or
    unreadable path raises :class:`OSError`.
    """
    package_dir = _repro_package_dir()
    files: List[str] = []
    for path in paths or [package_dir]:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                files.extend(os.path.join(root, name)
                             for name in sorted(names)
                             if name.endswith(".py"))
        else:
            files.append(path)
    loaded: List[Tuple[str, Union[ModuleInfo, SyntaxError]]] = []
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        parsed: Union[ModuleInfo, SyntaxError]
        try:
            parsed = parse_module(path, source,
                                  name=_module_name(path, package_dir))
        except SyntaxError as exc:
            parsed = exc
        loaded.append((path, parsed))
    return loaded


def _symbol_index(tree: ast.Module) -> List[Tuple[int, int, str]]:
    """(start line, end line, qualname) spans for enclosing symbols."""
    spans: List[Tuple[int, int, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qualname = (f"{prefix}.{child.name}" if prefix
                            else child.name)
                end = getattr(child, "end_lineno", child.lineno)
                spans.append((child.lineno, end or child.lineno,
                              qualname))
                visit(child, qualname)
            else:
                visit(child, prefix)

    visit(tree, "")
    return spans


def _context_for(spans: List[Tuple[int, int, str]], line: int) -> str:
    best = ""
    best_size = None
    for start, end, qualname in spans:
        if start <= line <= end:
            size = end - start
            if best_size is None or size < best_size:
                best, best_size = qualname, size
    return best


def _with_context(findings: List[Finding],
                  modules: List[ModuleInfo]) -> List[Finding]:
    """Give every finding without a ``context`` its enclosing symbol."""
    spans = {module.path: _symbol_index(module.tree) for module in modules}
    return [replace(f, context=_context_for(spans[f.path], f.line))
            if not f.context and f.path in spans else f
            for f in findings]


def _is_workload(tree: ast.Module) -> bool:
    """Whether a module builds ``Section(...)``s (a workload)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id == "Section":
            return True
    return False


def _workload_pass(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for module in project.modules:
        if _is_workload(module.tree):
            findings.extend(analyze_workload_module(module.tree,
                                                    module.path))
    return findings


#: The whole-project passes, in report order: workload locksets
#: (RC001, RC002) and thread safety (RC003, RC004).
PROJECT_PASSES: Tuple[Callable[[Project], List[Finding]], ...] = (
    _workload_pass, analyze_threads)


def lint_paths(paths: Optional[Sequence[str]],
               scope: str = "workload") -> List[Finding]:
    """Run one lint scope over ``paths``; findings file by file.

    Each file's findings are sorted by line, then rule; files keep
    walk order. An unparsable file is one finding under the scope's
    parse-error rule (``VR000``/``SR000``).
    """
    findings: List[Finding] = []
    modules: List[ModuleInfo] = []
    for path, parsed in _load(paths):
        if isinstance(parsed, SyntaxError):
            findings.append(parse_error(path, parsed, scope))
            continue
        modules.append(parsed)
        findings.extend(lint_tree(parsed.tree, parsed.source, path,
                                  scope))
    return _with_context(findings, modules)


def analyze_paths(paths: Optional[Sequence[str]] = None
                  ) -> List[Finding]:
    """Run every applicable pass over ``paths``; sorted findings.

    Default target is the installed ``repro`` package.
    """
    package_prefix = _repro_package_dir() + os.sep
    findings: List[Finding] = []
    modules: List[ModuleInfo] = []
    for path, parsed in _load(paths):
        if isinstance(parsed, SyntaxError):
            findings.append(parse_error(path, parsed, "workload"))
            continue
        modules.append(parsed)
        scopes: List[str] = []
        if _is_workload(parsed.tree):
            scopes.append("workload")
        if os.path.abspath(path).startswith(package_prefix):
            scopes.append("self")
        for scope in scopes:
            findings.extend(lint_tree(parsed.tree, parsed.source, path,
                                      scope))

    project = Project(modules)
    for project_pass in PROJECT_PASSES:
        findings.extend(project_pass(project))
    findings = _with_context(findings, modules)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def render_text(findings: Sequence[Finding]) -> str:
    """Human-readable report with the baselined/new split."""
    lines: List[str] = []
    for finding in findings:
        suffix = "  (baselined)" if finding.baselined else ""
        lines.append(f"{finding}{suffix}")
    baselined = sum(1 for f in findings if f.baselined)
    new = len(findings) - baselined
    if not findings:
        lines.append("analyze: no findings")
    else:
        lines.append(f"analyze: {len(findings)} finding(s), "
                     f"{baselined} baselined, {new} new")
    return "\n".join(lines)


def rules_catalog() -> Dict[str, str]:
    """Complete rule id -> description catalog: both lint scopes and
    every project pass."""
    return {**RULES, **SELF_RULES, **ANALYSIS_RULES}


__all__ = ["PROJECT_PASSES", "analyze_paths", "lint_paths",
           "render_text", "rules_catalog"]
