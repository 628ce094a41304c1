"""Project model and call graph for the static analyses.

A :class:`Project` is a set of parsed modules plus the relations the
concurrency passes need:

* classes, methods, and module-level functions (by name);
* **typed attributes**: ``self.attr = ClassName(...)`` inside a class
  body binds ``attr`` to ``ClassName`` when that class is part of the
  project, so ``self.attr.method()`` resolves across class boundaries
  (``SweepService.fleet -> WorkerFleet`` and friends);
* **thread targets**: ``threading.Thread(target=self._method)`` marks
  ``_method`` as the entry point of a second thread;
* **callback registrations**: ``self.bus.subscribe(self.sink)`` (any
  single-argument registration call named ``subscribe``/``register``)
  records that the receiving class may later invoke ``sink`` — the
  dispatch through the subscriber list is dynamic, so the call graph
  adds an edge from every method of the receiving class that calls its
  registered callables.

Resolution is deliberately partial: a call that cannot be resolved to
a project function is simply dropped, which keeps every analysis built
on top conservative in the no-false-positive direction.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Registration method names treated as callback subscriptions.
_REGISTRATION_NAMES = frozenset({"subscribe", "register", "add_listener"})

#: Constructor calls that mark an attribute as a synchronization
#: primitive (internally thread-safe; exempt from lockset conviction).
SYNC_CONSTRUCTORS = frozenset({
    "Lock", "RLock", "Condition", "Event", "Semaphore",
    "BoundedSemaphore", "Barrier", "Queue", "SimpleQueue", "LifoQueue",
    "PriorityQueue",
})

#: Constructors whose single-element mutating methods are atomic under
#: the GIL (conviction-exempt for those methods only).
ATOMIC_CONTAINER_CONSTRUCTORS = frozenset({"deque"})


class FunctionInfo:
    """One function or method definition."""

    __slots__ = ("name", "qualname", "node", "cls", "module")

    def __init__(self, name: str, qualname: str, node: ast.AST,
                 cls: Optional["ClassInfo"], module: "ModuleInfo") -> None:
        self.name = name
        self.qualname = qualname
        self.node = node
        self.cls = cls
        self.module = module

    def __repr__(self) -> str:
        return f"FunctionInfo({self.qualname})"


class ClassInfo:
    """One class: methods, attribute bindings, thread entry points."""

    def __init__(self, name: str, node: ast.ClassDef,
                 module: "ModuleInfo") -> None:
        self.name = name
        self.node = node
        self.module = module
        self.qualname = f"{module.name}.{name}"
        self.methods: Dict[str, FunctionInfo] = {}
        self.bases: List[str] = [
            b.id for b in node.bases if isinstance(b, ast.Name)]
        #: attr -> class name it is constructed from (``self.x = C(...)``)
        self.attr_types: Dict[str, str] = {}
        #: attr -> the first ``__init__``-assigned value expression
        self.attr_init_values: Dict[str, ast.AST] = {}
        #: methods used as ``threading.Thread(target=...)``
        self.thread_targets: List[FunctionInfo] = []
        #: callables this class's instances registered on *other*
        #: objects: (receiver attr name, callable FunctionInfo)
        self.registered_callbacks: List[FunctionInfo] = []

    def __repr__(self) -> str:
        return f"ClassInfo({self.qualname})"


class ModuleInfo:
    """One parsed module."""

    def __init__(self, path: str, name: str, source: str,
                 tree: ast.Module) -> None:
        self.path = path
        self.name = name
        self.source = source
        self.tree = tree
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.imports_threading = False
        for node in tree.body:
            if isinstance(node, ast.Import):
                if any(alias.name == "threading" for alias in node.names):
                    self.imports_threading = True
            elif isinstance(node, ast.ImportFrom):
                if node.module == "threading":
                    self.imports_threading = True
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = FunctionInfo(
                    node.name, f"{name}.{node.name}", node, None, self)
            elif isinstance(node, ast.ClassDef):
                cls = ClassInfo(node.name, node, self)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        cls.methods[item.name] = FunctionInfo(
                            item.name, f"{name}.{node.name}.{item.name}",
                            item, cls, self)
                self.classes[node.name] = cls

    def __repr__(self) -> str:
        return f"ModuleInfo({self.name})"


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``"X"``."""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


class Project:
    """A set of modules plus cross-module resolution."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules = list(modules)
        self.classes: Dict[str, List[ClassInfo]] = {}
        for module in self.modules:
            for cls in module.classes.values():
                self.classes.setdefault(cls.name, []).append(cls)
        for module in self.modules:
            for cls in module.classes.values():
                self._scan_class(cls)

    # -- model construction ------------------------------------------------

    def _scan_class(self, cls: ClassInfo) -> None:
        init = cls.methods.get("__init__")
        if init is not None:
            for node in ast.walk(init.node):
                target: Optional[ast.AST] = None
                value: Optional[ast.AST] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign) and \
                        node.value is not None:
                    target, value = node.target, node.value
                if target is None or value is None:
                    continue
                attr = _self_attr(target)
                if attr is None:
                    continue
                cls.attr_init_values.setdefault(attr, value)
                ctor = self._constructor_class(value, cls.module)
                if ctor is not None:
                    cls.attr_types.setdefault(attr, ctor.name)
        for method in cls.methods.values():
            for node in ast.walk(method.node):
                if not isinstance(node, ast.Call):
                    continue
                target = self._thread_target(node, cls)
                if target is not None:
                    cls.thread_targets.append(target)
                registered = self._registration(node, cls)
                if registered is not None:
                    cls.registered_callbacks.append(registered)

    def _constructor_class(self, value: ast.AST,
                           module: ModuleInfo) -> Optional[ClassInfo]:
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            return self.resolve_class(value.func.id, module)
        return None

    def _thread_target(self, call: ast.Call,
                       cls: ClassInfo) -> Optional[FunctionInfo]:
        func = call.func
        is_thread = (
            (isinstance(func, ast.Attribute) and func.attr == "Thread"
             and isinstance(func.value, ast.Name)
             and func.value.id == "threading")
            or (isinstance(func, ast.Name) and func.id == "Thread"))
        if not is_thread:
            return None
        for kw in call.keywords:
            if kw.arg == "target":
                attr = _self_attr(kw.value)
                if attr is not None:
                    return cls.methods.get(attr)
        return None

    def _registration(self, call: ast.Call,
                      cls: ClassInfo) -> Optional[FunctionInfo]:
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _REGISTRATION_NAMES
                and len(call.args) >= 1):
            return None
        arg = call.args[0]
        attr = _self_attr(arg)
        if attr is None:
            return None
        if attr in cls.methods:
            return cls.methods[attr]
        # ``self.bus.subscribe(self.log)``: the registered object is
        # invoked through ``__call__``.
        type_name = cls.attr_types.get(attr)
        if type_name is not None:
            target_cls = self.resolve_class(type_name, cls.module)
            if target_cls is not None:
                return target_cls.methods.get("__call__")
        return None

    # -- resolution --------------------------------------------------------

    def resolve_class(self, name: str,
                      module: Optional[ModuleInfo] = None
                      ) -> Optional[ClassInfo]:
        candidates = self.classes.get(name, [])
        if not candidates:
            return None
        if module is not None:
            for cls in candidates:
                if cls.module is module:
                    return cls
        return candidates[0]

    def method_of(self, cls: ClassInfo,
                  name: str) -> Optional[FunctionInfo]:
        """Method lookup honouring (single, in-project) inheritance."""
        if name in cls.methods:
            return cls.methods[name]
        for base in cls.bases:
            base_cls = self.resolve_class(base, cls.module)
            if base_cls is not None and base_cls is not cls:
                found = self.method_of(base_cls, name)
                if found is not None:
                    return found
        return None

    def resolve_call(self, call: ast.Call,
                     fn: FunctionInfo) -> List[FunctionInfo]:
        """Project functions a call site may invoke (possibly empty)."""
        func = call.func
        out: List[FunctionInfo] = []
        if isinstance(func, ast.Name):
            if func.id in fn.module.functions:
                out.append(fn.module.functions[func.id])
            else:
                cls = self.resolve_class(func.id, fn.module)
                if cls is not None:
                    init = self.method_of(cls, "__init__")
                    if init is not None:
                        out.append(init)
        elif isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id == "self" \
                    and fn.cls is not None:
                method = self.method_of(fn.cls, func.attr)
                if method is not None:
                    out.append(method)
            elif isinstance(base, ast.Call) and \
                    isinstance(base.func, ast.Name) and \
                    base.func.id == "super" and fn.cls is not None:
                for base_name in fn.cls.bases:
                    base_cls = self.resolve_class(base_name, fn.module)
                    if base_cls is not None:
                        method = self.method_of(base_cls, func.attr)
                        if method is not None:
                            out.append(method)
                            break
            else:
                attr = _self_attr(base)
                if attr is not None and fn.cls is not None:
                    type_name = fn.cls.attr_types.get(attr)
                    if type_name is not None:
                        target_cls = self.resolve_class(
                            type_name, fn.module)
                        if target_cls is not None:
                            method = self.method_of(target_cls, func.attr)
                            if method is not None:
                                out.append(method)
        return out

    def calls_from(self, fn: FunctionInfo) -> List[FunctionInfo]:
        """All project callees of ``fn``, callback dispatch included."""
        out: List[FunctionInfo] = []
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                out.extend(self.resolve_call(node, fn))
        # Dynamic dispatch over registered callbacks: a method of class
        # K that calls through K's subscriber container may invoke any
        # callable registered on a K-typed attribute anywhere in the
        # project. Approximated as: methods that contain an opaque
        # ``name(...)`` call on a loop variable drawn from a self
        # attribute invoke every callback registered on this class.
        if fn.cls is not None and self._dispatches_callbacks(fn):
            for module in self.modules:
                for cls in module.classes.values():
                    for attr, type_name in cls.attr_types.items():
                        if type_name == fn.cls.name:
                            out.extend(cls.registered_callbacks)
        return out

    def _dispatches_callbacks(self, fn: FunctionInfo) -> bool:
        loop_vars: Set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.For):
                for name in ast.walk(node.target):
                    if isinstance(name, ast.Name):
                        loop_vars.add(name.id)
            elif isinstance(node, (ast.Tuple, ast.List)) and \
                    isinstance(getattr(node, "ctx", None), ast.Store):
                for name in node.elts:
                    if isinstance(name, ast.Name):
                        loop_vars.add(name.id)
        if not loop_vars:
            return False
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id in loop_vars:
                return True
        return False

    # -- reachability ------------------------------------------------------

    def reachable(self, entries: Iterable[FunctionInfo]
                  ) -> Set[Tuple[str, str]]:
        """Qualnames (as (module, qualname)) reachable from ``entries``."""
        seen: Set[Tuple[str, str]] = set()
        frontier = list(entries)
        while frontier:
            fn = frontier.pop()
            key = (fn.module.name, fn.qualname)
            if key in seen:
                continue
            seen.add(key)
            frontier.extend(self.calls_from(fn))
        return seen


def parse_module(path: str, source: str,
                 name: Optional[str] = None) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (raises SyntaxError)."""
    tree = ast.parse(source, filename=path)
    if name is None:
        base = path.replace("\\", "/").rsplit("/", 1)[-1]
        name = base[:-3] if base.endswith(".py") else base
    return ModuleInfo(path, name, source, tree)


__all__ = ["ATOMIC_CONTAINER_CONSTRUCTORS", "ClassInfo", "FunctionInfo",
           "ModuleInfo", "Project", "SYNC_CONSTRUCTORS", "parse_module"]
