"""Eraser-style lockset + section-consistency analysis for workloads.

Workload programs (:meth:`repro.workloads.base.Workload.program`) are
generators yielding :class:`Section` objects whose ``ops`` touch
symbolic shared addresses. Two whole-program properties are invisible
to the per-section VR001 check and are what this pass convicts:

``RC001`` **inconsistent guard sets.** The same shared location is
    accessed under different locks in different sections (or under a
    lock in one and bare in another — including bare *reads*, which
    VR001 never flags). Under the paper's critical-section-to-
    transaction conversion both modes race.

``RC002`` **stale read across a section boundary.** A location is
    read in one atomic section and (plain-)stored in a *later* one:
    the write may be based on a value that other threads changed
    between the sections. ``Op.incr``/``Op.swap`` are exempt — they
    are self-contained read-modify-writes.

Locations are resolved through intraprocedural reaching definitions
(``panel = self.panels[thread_index]`` resolves through ``panel``) and
through helper calls (``ops=self._mk_tx(thread_index, rng)`` follows
into the helper with the thread-index binding propagated). Locations
indexed by the program's thread index are thread-private and dropped;
locations the resolver cannot symbolize are skipped — conservative in
the no-false-positive direction.

``Op.call`` closures are *not* analyzed (their function bodies execute
against the raw core API, not the ``Op`` vocabulary); workloads built
entirely from ``Op.call`` get no RC001/RC002 coverage. Documented in
``docs/analysis.md``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.cfg import CFG, Param, ReachingDefs, element_value
from repro.analysis.findings import Finding
from repro.analysis.lint import _WRITE_OPS, _Scope

#: Op constructor names that read memory (writes: ``lint._WRITE_OPS``).
_READ_OPS = frozenset({"load"})
#: Atomic read-modify-writes: exempt from the RC002 stale-read rule.
_RMW_OPS = frozenset({"incr", "swap"})

#: Parameter names always treated as the thread index.
_THREAD_PARAM_NAMES = frozenset({"thread_index", "thread_id", "tid"})

_MAX_HELPER_DEPTH = 3


class _FnCtx:
    """One analyzed function: CFG, reaching defs, thread-name set."""

    def __init__(self, node: ast.FunctionDef,
                 thread_names: Set[str]) -> None:
        self.node = node
        self.cfg = CFG(node)
        self.rdefs = ReachingDefs(self.cfg)
        self.thread_names = set(thread_names)
        self._elem_of: Dict[int, ast.AST] = {}
        for elem in self.cfg.elements():
            if isinstance(elem, (ast.With, ast.AsyncWith)):
                heads: List[ast.AST] = [
                    item.context_expr for item in elem.items]
            elif isinstance(elem, (ast.For, ast.AsyncFor)):
                heads = [elem.target, elem.iter]
            elif isinstance(elem, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef, ast.ExceptHandler)):
                heads = []
            else:
                heads = [elem]
            for head in heads:
                for sub in ast.walk(head):
                    self._elem_of.setdefault(id(sub), elem)

    def elem_of(self, node: ast.AST) -> Optional[ast.AST]:
        return self._elem_of.get(id(node))

    def mentions_thread(self, expr: ast.AST, depth: int = 0) -> bool:
        """Whether an expression derives from the thread index."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Name):
                if node.id in self.thread_names:
                    return True
                if depth < 2:
                    at = self.elem_of(expr)
                    if at is not None:
                        for definition in self.rdefs.resolve(node.id, at):
                            if isinstance(definition, Param):
                                continue
                            value = element_value(definition, node.id)
                            if value is not None and \
                                    self.mentions_thread(value, depth + 1):
                                return True
        return False


class _Access:
    __slots__ = ("kind", "line", "section", "guard")

    def __init__(self, kind: str, line: int, section: ast.Call,
                 guard: Optional[str]) -> None:
        self.kind = kind
        self.line = line
        self.section = section
        self.guard = guard


def _thread_names_for(node: ast.FunctionDef, is_method: bool) -> Set[str]:
    names = [a.arg for a in node.args.args]
    if is_method and names and names[0] == "self":
        names = names[1:]
    out = {n for n in names if n in _THREAD_PARAM_NAMES}
    # ``program(self, thread_index, rng)``: positional convention.
    if node.name == "program" and names:
        out.add(names[0])
    return out


def _self_attr(expr: ast.AST) -> Optional[str]:
    if isinstance(expr, ast.Attribute) and \
            isinstance(expr.value, ast.Name) and expr.value.id == "self":
        return expr.attr
    return None


class WorkloadAnalyzer:
    """RC001/RC002 over one workload module."""

    def __init__(self, tree: ast.Module, path: str) -> None:
        self.tree = tree
        self.path = path
        self.scope = _Scope(tree)
        self.findings: List[Finding] = []

    def run(self) -> List[Finding]:
        for cls_name, program in self._programs():
            self._analyze_program(cls_name, program)
        self.findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return self.findings

    # -- program discovery -------------------------------------------------

    def _programs(self) -> List[Tuple[Optional[str], ast.FunctionDef]]:
        out: List[Tuple[Optional[str], ast.FunctionDef]] = []

        def is_program(fn: ast.FunctionDef) -> bool:
            has_yield = False
            has_section = False
            for node in ast.walk(fn):
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    has_yield = True
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Name) and \
                        node.func.id == "Section":
                    has_section = True
            return has_yield and has_section

        for node in self.tree.body:
            if isinstance(node, ast.FunctionDef) and is_program(node):
                out.append((None, node))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and \
                            is_program(item):
                        out.append((node.name, item))
        return out

    # -- per-program analysis ---------------------------------------------

    def _analyze_program(self, cls: Optional[str],
                         program: ast.FunctionDef) -> None:
        ctx = _FnCtx(program, _thread_names_for(program, cls is not None))
        context = f"{cls}.{program.name}" if cls else program.name
        sections = [node for node in ast.walk(program)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "Section"]

        accesses: Dict[str, List[_Access]] = {}
        for section in sections:
            guard = self._guard_symbol(section, ctx)
            ops_expr = self._section_ops(section)
            if ops_expr is None:
                continue
            for kind, line, keys in self._collect_ops(
                    ops_expr, ctx, cls, depth=0, seen=set()):
                for key, private in keys:
                    if private:
                        continue
                    accesses.setdefault(key, []).append(
                        _Access(kind, line, section, guard))

        self._check_rc001(accesses, context)
        self._check_rc002(accesses, ctx, context)

    def _section_ops(self, section: ast.Call) -> Optional[ast.AST]:
        for kw in section.keywords:
            if kw.arg == "ops":
                return kw.value
        if section.args:
            return section.args[0]
        return None

    def _guard_symbol(self, section: ast.Call,
                      ctx: _FnCtx) -> Optional[str]:
        lock: Optional[ast.AST] = None
        for kw in section.keywords:
            if kw.arg == "lock":
                lock = kw.value
        if len(section.args) >= 2:
            lock = section.args[1]
        if lock is None or (isinstance(lock, ast.Constant)
                            and lock.value is None):
            return None
        return self._lock_name(lock, ctx, depth=0)

    def _lock_name(self, lock: ast.AST, ctx: _FnCtx,
                   depth: int) -> Optional[str]:
        attr = _self_attr(lock)
        if attr is not None:
            return attr
        if isinstance(lock, ast.Subscript):
            base = self._lock_name(lock.value, ctx, depth)
            if base is None:
                return "<lock>"
            index = lock.slice
            if ctx.mentions_thread(index):
                return f"{base}[thread]"
            return f"{base}[]"
        if isinstance(lock, ast.Name) and depth < 2:
            at = ctx.elem_of(lock)
            if at is not None:
                for definition in ctx.rdefs.resolve(lock.id, at):
                    value = element_value(definition, lock.id)
                    if value is not None:
                        resolved = self._lock_name(value, ctx, depth + 1)
                        if resolved is not None:
                            return resolved
            return lock.id
        return "<lock>"

    # -- op collection ----------------------------------------------------

    def _collect_ops(self, expr: ast.AST, ctx: _FnCtx,
                     cls: Optional[str], depth: int, seen: Set[int]
                     ) -> List[Tuple[str, int, List[Tuple[str, bool]]]]:
        """(op kind, line, [(location key, thread-private)]) tuples."""
        out: List[Tuple[str, int, List[Tuple[str, bool]]]] = []
        if depth > _MAX_HELPER_DEPTH:
            return out
        if isinstance(expr, (ast.List, ast.Tuple)):
            out.extend(self._ops_in(expr, ctx))
            # Helper calls may still hide inside literal elements.
            for node in ast.walk(expr):
                if isinstance(node, ast.Call) and node is not expr:
                    target = self.scope.resolve(node, cls)
                    if target is not None:
                        out.extend(self._enter_helper(
                            node, target, ctx, cls, depth, seen))
            return out
        if isinstance(expr, ast.Call):
            target = self.scope.resolve(expr, cls)
            if target is not None:
                return self._enter_helper(expr, target, ctx, cls,
                                          depth, seen)
            return self._ops_in(expr, ctx)
        if isinstance(expr, ast.Name):
            at = ctx.elem_of(expr)
            if at is not None:
                for definition in ctx.rdefs.resolve(expr.id, at):
                    value = element_value(definition, expr.id)
                    if value is not None and id(value) not in seen:
                        seen.add(id(value))
                        out.extend(self._collect_ops(
                            value, ctx, cls, depth + 1, seen))
            # Flow-insensitive: pick up list builds via .append/.extend.
            for node in ast.walk(ctx.node):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("append", "extend",
                                               "insert")
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == expr.id):
                    out.extend(self._ops_in(node, ctx))
            return out
        return self._ops_in(expr, ctx)

    def _enter_helper(self, call: ast.Call, target: ast.FunctionDef,
                      ctx: _FnCtx, cls: Optional[str], depth: int,
                      seen: Set[int]
                      ) -> List[Tuple[str, int, List[Tuple[str, bool]]]]:
        if id(target) in seen:
            return []
        seen.add(id(target))
        # Propagate the thread-index binding: a formal parameter whose
        # actual argument derives from the thread index is itself a
        # thread name inside the helper.
        params = [a.arg for a in target.args.args]
        if params and params[0] == "self":
            params = params[1:]
        actuals = list(call.args)
        thread_names = _thread_names_for(target, is_method=True)
        for formal, actual in zip(params, actuals):
            if ctx.mentions_thread(actual):
                thread_names.add(formal)
        for kw in call.keywords:
            if kw.arg is not None and ctx.mentions_thread(kw.value):
                thread_names.add(kw.arg)
        helper_ctx = _FnCtx(target, thread_names)
        out: List[Tuple[str, int, List[Tuple[str, bool]]]] = []
        out.extend(self._ops_in(target, helper_ctx))
        for node in ast.walk(target):
            if isinstance(node, ast.Call):
                inner = self.scope.resolve(node, cls)
                if inner is not None and id(inner) not in seen:
                    out.extend(self._enter_helper(
                        node, inner, helper_ctx, cls, depth + 1, seen))
        return out

    def _ops_in(self, root: ast.AST, ctx: _FnCtx
                ) -> List[Tuple[str, int, List[Tuple[str, bool]]]]:
        out: List[Tuple[str, int, List[Tuple[str, bool]]]] = []
        for node in ast.walk(root):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "Op"):
                continue
            kind = node.func.attr
            if kind not in _READ_OPS and kind not in _WRITE_OPS:
                continue
            loc: Optional[ast.AST] = node.args[0] if node.args else None
            if loc is None:
                for kw in node.keywords:
                    if kw.arg in ("vaddr", "addr"):
                        loc = kw.value
            if loc is None:
                continue
            keys = self._symbolize(loc, ctx, depth=0)
            if keys:
                out.append((kind, node.lineno, keys))
        return out

    def _symbolize(self, expr: ast.AST, ctx: _FnCtx,
                   depth: int) -> List[Tuple[str, bool]]:
        """Symbolic (location key, thread-private) pairs for an address
        expression; empty when the resolver cannot decide."""
        if depth > 4:
            return []
        attr = _self_attr(expr)
        if attr is not None:
            return [(attr, False)]
        if isinstance(expr, ast.Subscript):
            bases = self._symbolize(expr.value, ctx, depth + 1)
            private_index = ctx.mentions_thread(expr.slice)
            out = []
            for base, private in bases:
                if private_index or private:
                    out.append((base, True))
                else:
                    out.append((f"{base}[]", False))
            return out
        if isinstance(expr, ast.Name):
            if expr.id in ctx.thread_names:
                return []
            at = ctx.elem_of(expr)
            out = []
            if at is not None:
                for definition in ctx.rdefs.resolve(expr.id, at):
                    if isinstance(definition, Param):
                        continue
                    value = element_value(definition, expr.id)
                    if value is not None:
                        out.extend(self._symbolize(value, ctx, depth + 1))
            return out
        if isinstance(expr, ast.BinOp):
            # Address arithmetic: ``self.base + offset``. One self
            # attribute in the tree names the region; a thread-derived
            # offset makes it private.
            attrs = {a for node in ast.walk(expr)
                     for a in [_self_attr(node)] if a is not None}
            if len(attrs) == 1:
                name = next(iter(attrs))
                return [(name, ctx.mentions_thread(expr))]
            return []
        return []

    # -- rules -------------------------------------------------------------

    def _check_rc001(self, accesses: Dict[str, List[_Access]],
                     context: str) -> None:
        for key in sorted(accesses):
            acc = accesses[key]
            guards = {a.guard for a in acc}
            if len(guards) < 2:
                continue
            if not any(a.kind in _WRITE_OPS for a in acc):
                continue
            if guards == {None}:
                continue  # purely unguarded writes are VR001's domain
            # Sorted first so a tied majority is the same guard under
            # every PYTHONHASHSEED.
            ordered = sorted(guards, key=lambda g: (g is None, str(g)))
            majority = max(ordered,
                           key=lambda g: sum(1 for a in acc
                                             if a.guard == g))
            offender = next((a for a in acc if a.guard is None),
                            next(a for a in acc if a.guard != majority))

            def describe(guard: Optional[str]) -> str:
                lines = sorted({a.line for a in acc if a.guard == guard})
                where = ", ".join(str(ln) for ln in lines)
                label = (f"lock '{guard}'" if guard is not None
                         else "no lock")
                return f"{label} (line {where})"

            detail = "; ".join(describe(g) for g in ordered)
            self.findings.append(Finding(
                path=self.path, line=offender.line, rule="RC001",
                message=(f"shared location '{key}' is guarded "
                         f"inconsistently across sections: {detail}; "
                         "threads holding different locks (or none) do "
                         "not exclude each other, in TM or LOCKS mode"),
                fixit=(f"guard every section that touches '{key}' with "
                       "the same lock"),
                context=context))

    def _check_rc002(self, accesses: Dict[str, List[_Access]],
                     ctx: _FnCtx, context: str) -> None:
        for key in sorted(accesses):
            acc = accesses[key]
            loads = [a for a in acc if a.kind in _READ_OPS]
            stores = [a for a in acc if a.kind == "store"]
            reported = False
            for load in loads:
                if reported:
                    break
                for store in stores:
                    if store.section is load.section:
                        continue
                    src = ctx.elem_of(load.section)
                    dst = ctx.elem_of(store.section)
                    if src is None or dst is None:
                        continue
                    if not ctx.cfg.element_reaches(src, dst):
                        continue
                    self.findings.append(Finding(
                        path=self.path, line=load.line, rule="RC002",
                        message=(f"'{key}' is read in the section at "
                                 f"line {load.section.lineno} and "
                                 f"stored in the later section at line "
                                 f"{store.section.lineno}; other "
                                 "threads can change it between the "
                                 "two, so the write may be based on a "
                                 "stale value"),
                        fixit=("merge the read and the write into one "
                               "atomic section, or re-read inside the "
                               "writing section (Op.incr/Op.swap are "
                               "self-contained and fine)"),
                        context=context))
                    reported = True
                    break


def analyze_workload_module(tree: ast.Module,
                            path: str) -> List[Finding]:
    """RC001/RC002 findings for one workload module."""
    return WorkloadAnalyzer(tree, path).run()


__all__ = ["WorkloadAnalyzer", "analyze_workload_module"]
