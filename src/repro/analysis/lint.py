"""Per-module lint rules: the workload lint and the determinism self-lint.

Every rule here checks one parsed module on its own. The rules come in
two *scopes* (:data:`SCOPES`): ``repro lint`` runs the ``workload``
scope over workload definitions, ``repro lint --self`` runs the
``self`` scope over the simulator's own sources, and ``repro analyze``
runs whichever scopes apply to each file next to its whole-project
passes (:mod:`repro.analysis.engine`). All of them report the
analyzer's :class:`~repro.analysis.findings.Finding`.

Workloads are ordinary Python (:mod:`repro.workloads`), and the three
recurring ways to write a *wrong* one are all statically visible:

``VR001`` **shared write outside an atomic section.** A
    :class:`~repro.workloads.base.Section` without a ``lock`` runs
    unprotected in both TM and LOCKS modes; ``Op.store``/``Op.incr`` in
    such a section races unless the data is thread-private. The paper's
    conversion rule (Section 6.2) is "critical sections become
    transactions" — a bare write means a section the conversion missed.

``VR002`` **unseeded randomness.** Calling the ``random`` module's
    global functions (or ``random.Random()`` with no seed) makes runs
    irreproducible and sweep results uncacheable. Workloads receive a
    seeded ``rng`` and a ``seed`` attribute; derive from those.

``VR003`` **non-yielding infinite loop in a generator.** Workload
    programs are generators driven by the cooperative simulator; a
    ``while True:`` without a ``yield`` (or ``break``/``return``/
    ``raise``) inside never returns control and hangs the run.

``VR004`` **wall-clock read inside a thread program.** The simulator
    has its own clock; ``time.time()`` / ``datetime.now()`` inside a
    generator couples behaviour to host speed, so two runs of the same
    seed diverge and cached sweep results stop being comparable.

``VR005`` **iteration over an unordered set.** ``for x in some_set:``
    visits elements in hash order, which varies with ``PYTHONHASHSEED``
    and insertion history; if anything downstream depends on visit
    order the run is irreproducible. Also covers ``dict`` iteration
    when the dict's keys were inserted while looping over a set (the
    insertion order — hence ``.keys()`` order — is already unordered).

The self scope holds ``src/repro`` itself to the same bar. The
simulator's claim — same seed, same config, same result, byte for byte
— is what makes the sweep cache sound, golden traces diffable, and the
model checker's replays meaningful. Three source patterns silently
break it:

``SR001`` **unseeded randomness.** Any call into the ``random``
    module's global functions, or a bare ``random.Random()``, anywhere
    in simulator source. Everything stochastic must derive from an
    explicit seed.

``SR002`` **wall-clock read inside a simulation process.** Generator
    functions are (potentially) scheduler-driven processes; reading
    ``time.time()`` / ``datetime.now()`` inside one couples simulated
    behaviour to host speed. Timing *around* a simulation — e.g. the
    sweep harness measuring wall time in plain functions — is fine and
    not flagged.

``SR003`` **unordered-collection iteration inside a simulation
    process.** A ``for`` statement over a ``set`` (or a dict keyed
    while looping a set) inside a generator visits elements in hash
    order; if the loop body has side effects (messages, NACK order,
    stat increments), runs diverge across hash seeds. Comprehensions
    are exempt — they overwhelmingly feed order-insensitive reductions.

The two scopes share their detectors: VR002/SR001 one unseeded-random
detector, VR004/SR002 one wall-clock detector, VR005/SR003 one
set-iteration detector, so the two lints cannot drift apart.

Suppression: append ``# lint: disable=VR001`` (comma-separate several
ids, or omit the ``=`` part to disable all rules) to the offending line
or the line directly above it. The self scope uses the same syntax
(``# lint: disable=SR003``).

The rules are pure stdlib (:mod:`ast` + :mod:`tokenize`): they run in
CI and pre-commit without importing the module under analysis.
"""

from __future__ import annotations

import ast
import tokenize
from io import StringIO
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Set, Tuple)

from repro.analysis.findings import Finding

#: rule id -> one-line description for the ``workload`` scope.
RULES: Dict[str, str] = {
    "VR000": "file does not parse",
    "VR001": "shared-memory write outside an atomic (locked) section",
    "VR002": "unseeded randomness (module-level random.* or bare Random())",
    "VR003": "generator contains an infinite loop that never yields",
    "VR004": "wall-clock read (time.time()/datetime.now()) in a "
             "thread program",
    "VR005": "iteration over an unordered set (or a dict keyed from one)",
}

#: rule id -> one-line description for the ``self`` scope.
SELF_RULES: Dict[str, str] = {
    "SR000": "file does not parse",
    "SR001": "unseeded randomness in simulator source",
    "SR002": "wall-clock read inside a simulation process (generator)",
    "SR003": "unordered-set iteration inside a simulation process",
}

#: Op constructors that produce memory writes.
_WRITE_OPS = frozenset({"store", "incr", "swap"})


# ---------------------------------------------------------------------------
# Suppression comments
# ---------------------------------------------------------------------------

def _suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """line number -> suppressed rule ids (None = all rules)."""
    out: Dict[int, Optional[Set[str]]] = {}
    try:
        tokens = tokenize.generate_tokens(StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            text = tok.string.lstrip("#").strip()
            if not text.startswith("lint:"):
                continue
            directive = text[len("lint:"):].strip()
            if not directive.startswith("disable"):
                continue
            rest = directive[len("disable"):].strip()
            rules: Optional[Set[str]]
            if rest.startswith("="):
                rules = {r.strip().upper() for r in rest[1:].split(",")
                         if r.strip()}
            else:
                rules = None  # bare "disable": everything
            line = tok.start[0]
            for target in (line, line + 1):
                existing = out.get(target, set())
                if rules is None or existing is None:
                    out[target] = None
                else:
                    out[target] = existing | rules
    except tokenize.TokenError:
        pass
    return out


def _is_suppressed(finding: Finding,
                   supp: Dict[int, Optional[Set[str]]]) -> bool:
    rules = supp.get(finding.line, set())
    return rules is None or finding.rule in rules


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------

def _is_op_write_call(node: ast.AST) -> bool:
    """``Op.store(...)`` / ``Op.incr(...)`` / ``Op.swap(...)``."""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _WRITE_OPS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "Op")


def _subtree_has_write(node: ast.AST) -> bool:
    return any(_is_op_write_call(n) for n in ast.walk(node))


class _Scope:
    """Name resolution for one module: classes, functions, methods."""

    def __init__(self, tree: ast.Module) -> None:
        self.functions: Dict[str, ast.FunctionDef] = {}
        self.methods: Dict[str, Dict[str, ast.FunctionDef]] = {}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                table: Dict[str, ast.FunctionDef] = {}
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        table[item.name] = item
                self.methods[node.name] = table

    def resolve(self, call: ast.Call,
                enclosing_class: Optional[str]) -> Optional[ast.FunctionDef]:
        func = call.func
        if isinstance(func, ast.Name):
            return self.functions.get(func.id)
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self" and enclosing_class):
            return self.methods.get(enclosing_class, {}).get(func.attr)
        return None


def _ops_expr_has_write(expr: ast.AST, func: Optional[ast.FunctionDef],
                        enclosing_class: Optional[str], scope: _Scope,
                        seen: Optional[Set[str]] = None) -> bool:
    """Conservatively decide whether an ``ops=`` expression writes memory.

    Handles: literal lists/tuples, local names built up in the enclosing
    function (flow-insensitive: any assignment or ``.append`` to the name
    counts), and helper calls (``self._helper(...)`` or module-level
    functions), followed transitively.
    """
    if seen is None:
        seen = set()
    if isinstance(expr, (ast.List, ast.Tuple)):
        return _subtree_has_write(expr)
    if isinstance(expr, ast.Call):
        target = scope.resolve(expr, enclosing_class)
        if target is not None:
            key = f"{enclosing_class}.{target.name}"
            if key in seen:
                return False
            seen.add(key)
            if _subtree_has_write(target):
                return True
            # One level of indirection: the helper may itself delegate.
            for inner in ast.walk(target):
                if isinstance(inner, ast.Call) and inner is not expr:
                    resolved = scope.resolve(inner, enclosing_class)
                    if resolved is not None and \
                            f"{enclosing_class}.{resolved.name}" not in seen:
                        if _ops_expr_has_write(inner, target,
                                               enclosing_class, scope,
                                               seen):
                            return True
            return False
        return _subtree_has_write(expr)
    if isinstance(expr, ast.Name) and func is not None:
        name = expr.id
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                if any(isinstance(t, ast.Name) and t.id == name
                       for t in node.targets):
                    if _ops_expr_has_write(node.value, func,
                                           enclosing_class, scope, seen):
                        return True
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Name) and \
                        node.target.id == name:
                    if _subtree_has_write(node.value):
                        return True
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("append", "extend", "insert")
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == name):
                if _subtree_has_write(node):
                    return True
        return False
    return _subtree_has_write(expr)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def _check_vr001(tree: ast.Module, path: str) -> List[Finding]:
    findings: List[Finding] = []
    scope = _Scope(tree)

    def visit(node: ast.AST, func: Optional[ast.FunctionDef],
              cls: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            new_func, new_cls = func, cls
            if isinstance(child, ast.ClassDef):
                new_cls = child.name
            elif isinstance(child, ast.FunctionDef):
                new_func = child
            if isinstance(child, ast.Call) and \
                    isinstance(child.func, ast.Name) and \
                    child.func.id == "Section":
                _check_section(child, func, cls)
            visit(child, new_func, new_cls)

    def _check_section(call: ast.Call, func: Optional[ast.FunctionDef],
                       cls: Optional[str]) -> None:
        lock = None
        for kw in call.keywords:
            if kw.arg == "lock":
                lock = kw.value
        if len(call.args) >= 2:
            lock = call.args[1]
        if lock is not None and not (
                isinstance(lock, ast.Constant) and lock.value is None):
            return  # atomic section: writes are protected
        ops = None
        for kw in call.keywords:
            if kw.arg == "ops":
                ops = kw.value
        if ops is None and call.args:
            ops = call.args[0]
        if ops is None:
            return
        if _ops_expr_has_write(ops, func, cls, scope):
            findings.append(Finding(
                path=path, line=call.lineno, rule="VR001",
                message=("Section without a lock contains memory writes "
                         "(Op.store/Op.incr); it races in both TM and "
                         "LOCKS modes unless the data is thread-private"),
                fixit=("pass lock=<lock address> to make the section "
                       "atomic, or suppress with '# lint: disable=VR001' "
                       "if every written address is thread-private")))

    visit(tree, None, None)
    return findings


def _unseeded_random_calls(tree: ast.Module
                           ) -> Iterator[Tuple[ast.Call, str]]:
    """``(call, attr)`` for module-level ``random.*`` calls and bare
    ``random.Random()``. Shared by VR002 and the self-lint's SR001."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "random"):
            continue
        attr = node.func.attr
        if attr == "Random" and (node.args or node.keywords):
            continue  # seeded constructor: fine
        yield node, attr


def _check_vr002(tree: ast.Module, path: str) -> List[Finding]:
    findings: List[Finding] = []
    for node, attr in _unseeded_random_calls(tree):
        if attr == "Random":
            message = ("random.Random() without a seed is "
                       "irreproducible")
            fixit = ("seed it from the workload: "
                     "random.Random(self.seed ^ <salt>)")
        else:
            message = (f"random.{attr}() uses the shared module-level "
                       "RNG, making runs irreproducible and "
                       "sweep caches unsound")
            fixit = ("use the seeded rng passed to program(), or a "
                     "random.Random(self.seed ^ <salt>) instance")
        findings.append(Finding(path=path, line=node.lineno,
                                rule="VR002", message=message,
                                fixit=fixit))
    return findings


def _loop_escapes(loop: ast.While) -> bool:
    """Whether the loop body can yield or leave the loop."""
    for node in ast.walk(loop):
        if node is loop:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            # Nested definitions don't execute in the loop body.
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Return,
                             ast.Raise, ast.Break)):
            return True
    return False


def _is_generator(func: ast.AST) -> bool:
    """Whether a function definition is a generator (has a yield)."""
    return any(
        isinstance(n, (ast.Yield, ast.YieldFrom))
        for n in _walk_scope(func))


def _walk_scope(func: ast.AST) -> Iterable[ast.AST]:
    """Walk a function body without descending into nested defs."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _check_vr003(tree: ast.Module, path: str) -> List[Finding]:
    findings: List[Finding] = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _is_generator(func):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.While):
                continue
            test = node.test
            truthy = (isinstance(test, ast.Constant) and bool(test.value))
            if not truthy:
                continue
            if _loop_escapes(node):
                continue
            findings.append(Finding(
                path=path, line=node.lineno, rule="VR003",
                message=("'while True:' inside a generator never yields, "
                         "breaks, returns, or raises — the cooperative "
                         "simulator would hang here"),
                fixit=("yield inside the loop, add a break/return, or "
                       "bound the loop")))
    return findings


#: ``time`` module attributes that read the host clock.
_TIME_ATTRS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "localtime",
    "gmtime",
})

#: ``datetime``/``date`` class methods that read the host clock.
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})


def _wallclock_call(node: ast.AST) -> Optional[str]:
    """Label of a host-clock read (``time.time()``-style), or None."""
    if not (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)):
        return None
    func = node.func
    base = func.value
    if isinstance(base, ast.Name):
        if base.id == "time" and func.attr in _TIME_ATTRS:
            return f"time.{func.attr}()"
        if base.id in ("datetime", "date") and \
                func.attr in _DATETIME_ATTRS:
            return f"{base.id}.{func.attr}()"
    if (isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "datetime"
            and base.attr in ("datetime", "date")
            and func.attr in _DATETIME_ATTRS):
        return f"datetime.{base.attr}.{func.attr}()"
    return None


def _check_wallclock(tree: ast.Module, path: str,
                     rule: str) -> List[Finding]:
    """Wall-clock reads inside generator functions (thread programs /
    simulation processes). Shared by VR004 and the self-lint's SR002."""
    findings: List[Finding] = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _is_generator(func):
            continue
        for node in _walk_scope(func):
            label = _wallclock_call(node)
            if label is None:
                continue
            findings.append(Finding(
                path=path, line=node.lineno, rule=rule,
                message=(f"{label} reads the host clock inside a "
                         "simulated process; behaviour then depends on "
                         "host speed and two runs of the same seed "
                         "diverge"),
                fixit=("use simulated time (the scheduler's now / the "
                       "stats clock), or hoist the measurement out of "
                       "the generator")))
    return findings


def _check_vr004(tree: ast.Module, path: str) -> List[Finding]:
    return _check_wallclock(tree, path, "VR004")


def _order_normalizing(expr: ast.AST,
                       wrappers: Optional[Dict[str, ast.FunctionDef]],
                       depth: int = 0) -> bool:
    """Whether an expression's value has a deterministic order.

    ``sorted(...)``, ``list(sorted(...))``/``tuple(sorted(...))``, and
    calls to in-module wrapper functions whose every return value is
    itself order-normalizing. Used to *skip* set-iteration findings:
    once a value has passed through ``sorted``, iterating it is
    reproducible no matter what collection it started as.
    """
    if depth > 3 or not isinstance(expr, ast.Call):
        return False
    call_func = expr.func
    if not isinstance(call_func, ast.Name):
        return False
    if call_func.id == "sorted":
        return True
    if call_func.id in ("list", "tuple") and len(expr.args) == 1:
        return _order_normalizing(expr.args[0], wrappers, depth + 1)
    target = (wrappers or {}).get(call_func.id)
    if target is not None:
        returns = [node for node in _walk_scope(target)
                   if isinstance(node, ast.Return)
                   and node.value is not None]
        return bool(returns) and all(
            _order_normalizing(node.value, wrappers, depth + 1)
            for node in returns)
    return False


def _set_like(expr: ast.AST, func: Optional[ast.AST], depth: int = 0,
              wrappers: Optional[Dict[str, ast.FunctionDef]] = None
              ) -> bool:
    """Conservatively decide whether an expression evaluates to a set.

    Handles literals (``{a, b}``), constructors (``set(...)`` /
    ``frozenset(...)``), set comprehensions, binary set algebra on
    set-like operands, and local names assigned one of the above in the
    enclosing function (flow-insensitive). A name any of whose
    assignments is order-normalizing (``sorted(...)`` or a wrapper over
    it) is *not* set-like: the normalized value shadows the set.
    """
    if depth > 4:
        return False
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        call_func = expr.func
        if isinstance(call_func, ast.Name) and \
                call_func.id in ("set", "frozenset"):
            return True
        if isinstance(call_func, ast.Attribute) and call_func.attr in (
                "union", "intersection", "difference",
                "symmetric_difference"):
            return _set_like(call_func.value, func, depth + 1, wrappers)
        return False
    if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (_set_like(expr.left, func, depth + 1, wrappers)
                or _set_like(expr.right, func, depth + 1, wrappers))
    if isinstance(expr, ast.Name) and func is not None:
        values: List[ast.AST] = []
        for node in _walk_scope(func):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == expr.id
                    for t in node.targets):
                values.append(node.value)
            elif (isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)
                    and node.target.id == expr.id
                    and node.value is not None):
                values.append(node.value)
        if any(_order_normalizing(value, wrappers) for value in values):
            return False
        return any(_set_like(value, func, depth + 1, wrappers)
                   for value in values)
    return False


def _set_tainted_dicts(
        func: ast.AST,
        wrappers: Optional[Dict[str, ast.FunctionDef]] = None
        ) -> Set[str]:
    """Local dict names whose keys were inserted while looping a set.

    ``for k in some_set: d[k] = ...`` makes ``d``'s insertion order —
    and therefore ``d``/``d.keys()`` iteration order — hash-dependent.
    """
    tainted: Set[str] = set()
    for node in _walk_scope(func):
        if not isinstance(node, ast.For) or \
                not _set_like(node.iter, func, wrappers=wrappers):
            continue
        for inner in ast.walk(node):
            target: Optional[ast.AST] = None
            if isinstance(inner, ast.Assign) and inner.targets:
                target = inner.targets[0]
            elif isinstance(inner, ast.AugAssign):
                target = inner.target
            if isinstance(target, ast.Subscript) and \
                    isinstance(target.value, ast.Name):
                tainted.add(target.value.id)
            elif (isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr == "setdefault"
                    and isinstance(inner.func.value, ast.Name)):
                tainted.add(inner.func.value.id)
    return tainted


def _check_set_iteration(tree: ast.Module, path: str, rule: str,
                         generators_only: bool) -> List[Finding]:
    """``for`` statements iterating a set (or a set-keyed dict).

    Shared by VR005 (any function in a workload module) and the
    self-lint's SR003 (generator functions — simulation processes —
    only). Comprehensions are deliberately exempt: they almost always
    feed order-insensitive reductions (``max``, ``sum``, ``any``).
    """
    findings: List[Finding] = []
    wrappers = {node.name: node for node in tree.body
                if isinstance(node, ast.FunctionDef)}
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if generators_only and not _is_generator(func):
            continue
        tainted = _set_tainted_dicts(func, wrappers)
        for node in _walk_scope(func):
            if not isinstance(node, ast.For):
                continue
            it = node.iter
            bad: Optional[str] = None
            if _set_like(it, func, wrappers=wrappers):
                bad = "a set"
            elif (isinstance(it, ast.Call)
                    and isinstance(it.func, ast.Attribute)
                    and it.func.attr in ("keys", "values", "items")
                    and isinstance(it.func.value, ast.Name)
                    and it.func.value.id in tainted):
                bad = (f"dict '{it.func.value.id}' keyed from a set "
                       f"(via .{it.func.attr}())")
            elif isinstance(it, ast.Name) and it.id in tainted:
                bad = f"dict '{it.id}' keyed from a set"
            if bad is None:
                continue
            findings.append(Finding(
                path=path, line=node.lineno, rule=rule,
                message=(f"iterating {bad}: visit order is hash- and "
                         "insertion-dependent, so anything downstream "
                         "that depends on it varies across runs"),
                fixit="iterate sorted(...) instead"))
    return findings


def _check_vr005(tree: ast.Module, path: str) -> List[Finding]:
    return _check_set_iteration(tree, path, "VR005",
                                generators_only=False)


def _check_sr001(tree: ast.Module, path: str) -> List[Finding]:
    """Module-level ``random.*`` calls and bare ``random.Random()``.

    Same surface as the workload lint's VR002, but phrased for
    simulator code (derive from the run seed, not a workload rng).
    """
    findings: List[Finding] = []
    for node, attr in _unseeded_random_calls(tree):
        if attr == "Random":
            message = "random.Random() without a seed is irreproducible"
        else:
            message = (f"random.{attr}() uses the shared module-level "
                       "RNG; simulator behaviour must derive from the "
                       "run seed")
        findings.append(Finding(
            path=path, line=node.lineno, rule="SR001", message=message,
            fixit="construct random.Random(<run seed> ^ <salt>) and "
                  "thread it through"))
    return findings


def _check_sr002(tree: ast.Module, path: str) -> List[Finding]:
    return _check_wallclock(tree, path, "SR002")


def _check_sr003(tree: ast.Module, path: str) -> List[Finding]:
    return _check_set_iteration(tree, path, "SR003",
                                generators_only=True)


# ---------------------------------------------------------------------------
# Scopes
# ---------------------------------------------------------------------------

Check = Callable[[ast.Module, str], List[Finding]]

#: scope -> (rule id for an unparsable file, checks in report order).
SCOPES: Dict[str, Tuple[str, Tuple[Check, ...]]] = {
    "workload": ("VR000", (_check_vr001, _check_vr002, _check_vr003,
                           _check_vr004, _check_vr005)),
    "self": ("SR000", (_check_sr001, _check_sr002, _check_sr003)),
}


def parse_error(path: str, exc: SyntaxError, scope: str) -> Finding:
    """The scope's parse-error finding (``VR000``/``SR000``)."""
    return Finding(path=path, line=exc.lineno or 1,
                   rule=SCOPES[scope][0],
                   message=f"syntax error: {exc.msg}",
                   fixit="fix the syntax error")


def lint_tree(tree: ast.Module, source: str, path: str,
              scope: str) -> List[Finding]:
    """Run one scope's rules over a parsed module; returns its
    unsuppressed findings sorted by line, then rule."""
    findings: List[Finding] = []
    for check in SCOPES[scope][1]:
        findings.extend(check(tree, path))
    supp = _suppressions(source)
    kept = [f for f in findings if not _is_suppressed(f, supp)]
    kept.sort(key=lambda f: (f.line, f.rule))
    return kept


def lint_source(source: str, path: str = "<string>",
                scope: str = "workload") -> List[Finding]:
    """Parse and lint one module's source in ``scope``."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [parse_error(path, exc, scope)]
    return lint_tree(tree, source, path, scope)


__all__ = ["RULES", "SCOPES", "SELF_RULES", "lint_source", "lint_tree",
           "parse_error"]
