"""Protocol-conformance static analyzer (PC001–PC004).

This pass *extracts* each coherence fabric's transition relation from
its source — no execution — and checks it against the declarative spec
in :mod:`repro.analysis.protospec`. The extraction is a path-sensitive
abstract interpretation of the handler methods:

* each handler is enumerated once per **stimulus binding** (``request``
  under ``is_write=False`` is the GETS table row, under ``True`` the
  GETM row; ``l1_evicted`` under ``transactional=True/False`` the
  tx/plain rows);
* conditionals are **partially evaluated** under the binding plus a
  per-path environment of simple local assignments — concretizable
  tests prune, everything else forks the path with a
  :class:`~repro.analysis.protomodel.GuardAtom`;
* helper calls are resolved through
  :meth:`~repro.analysis.callgraph.Project.resolve_method_call`
  and either **spliced** (path-sensitively inlined; the protocol
  skeleton helpers in :data:`~repro.analysis.protospec.SPLICE_HELPERS`)
  or **summarized** (flattened to their effect set, which keeps the
  path count polynomial); a call to another *handler* becomes a
  ``cascade:<STIMULUS>`` effect — its own table row covers it;
* loops fork skip-or-once (set-membership loops carry no
  protocol-relevant iteration structure beyond "the body can run").

The result per fabric class is a
:class:`~repro.analysis.protomodel.TransitionTable` keyed by
``(stimulus, variant, outcome)`` — the identical key space the
model-checker coverage pass (:mod:`repro.mc.coverage`) observes
dynamically, which is what the ``--coverage`` fusion compares.

Soundness posture: the extractor over-approximates paths (forked guards
it cannot decide) and under-approximates nothing it can see textually;
the MC coverage fusion is the soundness self-test — any transition the
bounded model exercises that the extractor missed fails CI.
"""

from __future__ import annotations

import ast
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import (ClassInfo, FunctionInfo, ModuleInfo,
                                      Project)
from repro.analysis.findings import Finding, canonical_path
from repro.analysis.protomodel import (DESTRUCTIVE_EFFECTS, GuardAtom,
                                       NETWORK_METHODS, PORT_METHODS,
                                       STATE_ATTRS,
                                       STICKY_OBLIGATION_EFFECTS,
                                       TransitionPath, TransitionTable)
from repro.analysis.protospec import (HandlerSpec, NONFORKING_TESTS,
                                      PC004_EXEMPT, SPLICE_HELPERS,
                                      StimulusBinding, fabric_kind_of,
                                      handlers_for, profiles_for,
                                      required_for, variant_of)

#: Per-handler-binding enumeration cap: beyond it the table is marked
#: truncated and PC001 (missing keys) is suppressed for the class.
PATH_CAP = 3000
_MAX_SPLICE_DEPTH = 6
_MAX_SUMMARY_DEPTH = 3
_MAX_ENV_DEPTH = 3

#: Set/dict mutators: receiving a mutation drops the receiver's
#: environment binding (its literal value is stale afterwards).
_MUTATING_METHODS = frozenset({
    "add", "update", "clear", "discard", "remove", "pop", "extend",
    "append", "insert", "setdefault", "difference_update",
})

#: method name -> state-effect verb (``setdefault`` mutates the env but
#: is not a protocol-visible state change: it installs the empty value).
_SET_METHOD_OPS = {
    "add": "add", "update": "add",
    "clear": "clear", "pop": "clear",
    "discard": "sub", "remove": "sub", "difference_update": "sub",
}

#: env values simple enough to substitute into guard-atom text.
_SUBST_NODES = (ast.Constant, ast.Name, ast.Attribute, ast.Compare,
                ast.BoolOp, ast.UnaryOp)


def _text(node: ast.AST) -> str:
    return " ".join(ast.unparse(node).split())


def _tokens(node: ast.AST) -> Set[str]:
    out: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _target_names(target: ast.AST) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: List[str] = []
        for elt in target.elts:
            if isinstance(elt, ast.Starred):
                elt = elt.value
            out.extend(_target_names(elt))
        return out
    return []


def _recv_state_attr(node: ast.AST) -> Optional[str]:
    """State attribute a receiver expression denotes, if any.

    Covers ``entry.sticky``, bare local aliases (``sharers.add(...)``
    in the snooping grant applier), the snooping residency dicts
    (``self._owner``/``self._sharers``), and ``.get()/.setdefault()``
    chains over them.
    """
    if isinstance(node, ast.Attribute):
        if node.attr in STATE_ATTRS:
            return node.attr
        if node.attr == "_owner":
            return "owner"
        if node.attr == "_sharers":
            return "sharers"
        return None
    if isinstance(node, ast.Name):
        return node.id if node.id in STATE_ATTRS else None
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in ("get", "setdefault"):
        return _recv_state_attr(node.func.value)
    if isinstance(node, ast.Subscript):
        return _recv_state_attr(node.value)
    return None


def _bound_attr(node: ast.AST,
                env: Dict[str, ast.AST]) -> Optional[ast.Attribute]:
    """Attribute an expression denotes: itself, or the attribute a local
    is bound to (``c_fwd = self._c_fwd``, ``to_core =
    self.network.bank_to_core``)."""
    if isinstance(node, ast.Name):
        node = env.get(node.id)
    return node if isinstance(node, ast.Attribute) else None


def _counter_attr(node: ast.AST,
                  env: Dict[str, ast.AST]) -> Optional[str]:
    """Counter a receiver denotes: ``self._c_x``, or a local bound to it
    (``c_fwd = self._c_fwd``), named by its attribute ``_c_x``."""
    attr = _bound_attr(node, env)
    if attr is not None and attr.attr.startswith("_c_"):
        return attr.attr
    return None


def _counter_bump(stmt: ast.AugAssign,
                  env: Dict[str, ast.AST]) -> Optional[str]:
    """Counter bumped by ``X.value += n``, X as in :func:`_counter_attr`."""
    target = stmt.target
    if isinstance(stmt.op, ast.Add) and isinstance(target, ast.Attribute) \
            and target.attr == "value":
        return _counter_attr(target.value, env)
    return None


def _const_strings(node: ast.AST) -> List[str]:
    """String constants a call argument may be: a literal, or either arm
    of a conditional expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.IfExp):
        return _const_strings(node.body) + _const_strings(node.orelse)
    return []


def _is_falsy_const(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and not node.value


def _mesi_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "MESI":
        return node.attr
    return None


def _body_of(fn: FunctionInfo) -> List[ast.stmt]:
    node = fn.node
    return list(getattr(node, "body", []) or [])


class _PathState:
    """One abstract path through a handler."""

    __slots__ = ("guards", "effects", "effect_set", "env", "trail",
                 "outcome", "done", "dropped", "loop_stop")

    def __init__(self, trail: Tuple[str, ...]) -> None:
        self.guards: List[GuardAtom] = []
        self.effects: List[str] = []
        self.effect_set: Set[str] = set()
        self.env: Dict[str, ast.AST] = {}
        self.trail = trail
        self.outcome: Optional[str] = None
        self.done = False
        self.dropped = False
        self.loop_stop = False

    def clone(self) -> "_PathState":
        other = _PathState(self.trail)
        other.guards = list(self.guards)
        other.effects = list(self.effects)
        other.effect_set = set(self.effect_set)
        other.env = dict(self.env)
        other.outcome = self.outcome
        other.done = self.done
        other.dropped = self.dropped
        other.loop_stop = self.loop_stop
        return other


class FabricExtraction:
    """One fabric class's extracted table plus PC002 branch evidence."""

    def __init__(self, module: ModuleInfo, cls: ClassInfo, kind: str,
                 table: TransitionTable) -> None:
        self.module = module
        self.cls = cls
        self.kind = kind
        self.table = table
        #: (handler, guard text, line) for branch arms dead on *every*
        #: enumerated path (the PC002 convictions).
        self.dead_arms: List[Tuple[str, str, int]] = []


class _Extractor:
    """Walks one fabric class's handlers into a transition table."""

    def __init__(self, project: Project, module: ModuleInfo,
                 cls: ClassInfo, kind: str) -> None:
        self.project = project
        self.module = module
        self.cls = cls
        self.kind = kind
        self.table = TransitionTable(kind, cls.name, module.path,
                                     cls.node.lineno)
        self.bindings: Dict[str, bool] = {}
        self._truncated = False
        #: handler names of this fabric kind -> their stimulus (calls
        #: between handlers become ``cascade:`` effects, not inlined).
        self._handler_stimulus = {
            spec.name: spec.stimuli[0].stimulus
            for spec in handlers_for(kind)}
        self._summary_cache: Dict[str, Set[str]] = {}
        #: branch-site (line, polarity) -> times entered / times the
        #: entry contradicted a stable earlier guard. A site that only
        #: ever contradicts is a dead arm (PC002).
        self._site_alive: Dict[Tuple[int, bool], int] = {}
        self._site_dead: Dict[Tuple[int, bool], Tuple[str, str, int]] = {}

    # -- driver ------------------------------------------------------------

    def extract(self) -> FabricExtraction:
        for spec in handlers_for(self.kind):
            self._extract_handler(spec)
        result = FabricExtraction(self.module, self.cls, self.kind,
                                  self.table)
        for site in sorted(self._site_dead):
            if self._site_alive.get(site, 0) == 0:
                text, handler, line = self._site_dead[site]
                result.dead_arms.append((handler, text, line))
        return result

    def _extract_handler(self, spec: HandlerSpec) -> None:
        fn = self.project.method_of(self.cls, spec.name)
        if fn is None:
            return
        for binding in spec.stimuli:
            self.bindings = dict(binding.bindings)
            self._truncated = False
            start = _PathState(trail=(spec.name,))
            states = self._walk_body(_body_of(fn), [start], 0)
            for st in states:
                if st.dropped:
                    continue
                outcome = st.outcome
                if outcome is None:
                    if spec.kind != "notify":
                        continue
                    outcome = "done"
                variant = binding.variant if binding.variant is not None \
                    else variant_of(self.kind, st.trail)
                self.table.add_path(TransitionPath(
                    stimulus=binding.stimulus, variant=variant,
                    outcome=outcome, guards=tuple(st.guards),
                    effects=tuple(st.effects), handlers=st.trail,
                    line=fn.node.lineno))
            if self._truncated and \
                    spec.name not in self.table.truncated_handlers:
                self.table.truncated_handlers.append(spec.name)

    # -- statement walking -------------------------------------------------

    def _walk_body(self, stmts: Sequence[ast.stmt],
                   states: List[_PathState],
                   depth: int) -> List[_PathState]:
        for stmt in stmts:
            advanced: List[_PathState] = []
            for st in states:
                if st.done or st.dropped or st.loop_stop:
                    advanced.append(st)
                else:
                    advanced.extend(self._walk_stmt(stmt, st, depth))
            states = advanced
            if len(states) > PATH_CAP:
                states = states[:PATH_CAP]
                self._truncated = True
        return states

    def _walk_stmt(self, stmt: ast.stmt, st: _PathState,
                   depth: int) -> List[_PathState]:
        if isinstance(stmt, ast.If):
            return self._walk_if(stmt, st, depth)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._walk_for(stmt, st, depth)
        if isinstance(stmt, ast.While):
            return self._walk_while(stmt, st, depth)
        if isinstance(stmt, ast.Try):
            return self._walk_try(stmt, st, depth)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._expr_effects(item.context_expr, st)
            return self._walk_body(stmt.body, [st], depth)
        if isinstance(stmt, (ast.Break, ast.Continue)):
            st.loop_stop = True
            return [st]
        if isinstance(stmt, ast.Raise):
            st.done = True
            st.dropped = True
            return [st]
        call = self._delegation_call(stmt)
        if call is not None:
            target = self.project.resolve_method_call(call, self.cls)
            if target is not None and _body_of(target):
                return self._walk_delegation(stmt, target, st, depth)
        if isinstance(stmt, ast.Return):
            return self._walk_return(stmt, st)
        self._generic_stmt(stmt, st)
        return [st]

    @staticmethod
    def _delegation_call(stmt: ast.stmt) -> Optional[ast.Call]:
        value: Optional[ast.AST] = None
        if isinstance(stmt, ast.Expr):
            value = stmt.value
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            value = stmt.value
        elif isinstance(stmt, ast.Return):
            value = stmt.value
        if isinstance(value, ast.Await):
            value = value.value
        if isinstance(value, (ast.YieldFrom, ast.Yield)):
            value = value.value
        if isinstance(value, ast.Call):
            return value
        return None

    def _walk_delegation(self, stmt: ast.stmt, target: FunctionInfo,
                         st: _PathState, depth: int) -> List[_PathState]:
        stimulus = self._handler_stimulus.get(target.name)
        if stimulus is not None and target.name != st.trail[0]:
            # A handler invoking another handler: its effects belong to
            # that handler's own table row.
            self._add_effect(st, f"cascade:{stimulus}")
            out: List[_PathState] = [st]
        elif target.name in SPLICE_HELPERS and depth < _MAX_SPLICE_DEPTH:
            if target.name not in st.trail:
                st.trail = st.trail + (target.name,)
            out = self._walk_body(_body_of(target), [st], depth + 1)
            for sub in out:
                if not sub.dropped:
                    sub.done = False
        else:
            self._apply_summary(target, st)
            out = [st]
        if isinstance(stmt, ast.Assign):
            names = set()
            for tgt in stmt.targets:
                names.update(_target_names(tgt))
            for sub in out:
                for name in names:
                    sub.env.pop(name, None)
                self._invalidate(sub, names)
        elif isinstance(stmt, ast.Return):
            for sub in out:
                sub.done = True
        return out

    def _walk_if(self, stmt: ast.If, st: _PathState,
                 depth: int) -> List[_PathState]:
        self._expr_effects(stmt.test, st)
        if _text(stmt.test) in NONFORKING_TESTS:
            return self._walk_body(stmt.body, [st], depth)
        value, reduced = self._eval(stmt.test, st)
        if value is True:
            return self._walk_body(stmt.body, [st], depth)
        if value is False:
            return self._walk_body(stmt.orelse, [st], depth)
        text = _text(reduced)
        tokens = frozenset(_tokens(reduced))
        line = stmt.test.lineno
        other = st.clone()
        out = self._branch(stmt.body, st, text, True, tokens, line, depth)
        out += self._branch(stmt.orelse, other, text, False, tokens,
                            line, depth)
        return out

    def _branch(self, body: Sequence[ast.stmt], st: _PathState, text: str,
                polarity: bool, tokens: "frozenset",
                line: int, depth: int) -> List[_PathState]:
        site = (line, polarity)
        for guard in st.guards:
            if guard.text == text and guard.stable and \
                    guard.polarity != polarity:
                # Contradicts a still-valid earlier test on this path:
                # the combination is infeasible. Prune; PC002 convicts
                # the site only if *no* path ever enters it.
                if site not in self._site_dead:
                    self._site_dead[site] = (text, st.trail[-1], line)
                st.done = True
                st.dropped = True
                return [st]
        self._site_alive[site] = self._site_alive.get(site, 0) + 1
        if not any(g.text == text and g.polarity == polarity and g.stable
                   for g in st.guards):
            st.guards.append(GuardAtom(text, polarity, line, True, tokens))
        return self._walk_body(body, [st], depth)

    def _walk_for(self, stmt: ast.stmt, st: _PathState,
                  depth: int) -> List[_PathState]:
        self._expr_effects(stmt.iter, st)
        skip = st.clone()
        names = set(_target_names(stmt.target))
        for name in names:
            st.env.pop(name, None)
        self._invalidate(st, names)
        once = self._walk_body(stmt.body, [st], depth)
        for sub in once:
            sub.loop_stop = False
        if stmt.orelse:
            return once + self._walk_body(stmt.orelse, [skip], depth)
        return once + [skip]

    def _walk_while(self, stmt: ast.While, st: _PathState,
                    depth: int) -> List[_PathState]:
        self._expr_effects(stmt.test, st)
        value, _reduced = self._eval(stmt.test, st)
        if value is False:
            return self._walk_body(stmt.orelse, [st], depth)
        skip = None if value is True else st.clone()
        once = self._walk_body(stmt.body, [st], depth)
        for sub in once:
            sub.loop_stop = False
        out = once
        if skip is not None:
            out = out + (self._walk_body(stmt.orelse, [skip], depth)
                         if stmt.orelse else [skip])
        return out

    def _walk_try(self, stmt: ast.Try, st: _PathState,
                  depth: int) -> List[_PathState]:
        pre = st.clone()
        states = self._walk_body(stmt.body, [st], depth)
        for handler in stmt.handlers:
            states += self._walk_body(handler.body, [pre.clone()], depth)
        if stmt.orelse:
            states = self._walk_body(stmt.orelse, states, depth)
        if stmt.finalbody:
            states = self._walk_body(stmt.finalbody, states, depth)
        return states

    def _walk_return(self, stmt: ast.Return,
                     st: _PathState) -> List[_PathState]:
        if stmt.value is not None:
            self._expr_effects(stmt.value, st)
            self._note_return_value(stmt.value, st)
        st.done = True
        return [st]

    def _note_return_value(self, value: ast.AST, st: _PathState) -> None:
        if isinstance(value, ast.IfExp):
            decided, _ = self._eval(value.test, st)
            if decided is not False:
                self._note_return_value(value.body, st)
            if decided is not True:
                self._note_return_value(value.orelse, st)
            return
        if isinstance(value, ast.Call) and \
                isinstance(value.func, ast.Name) and \
                value.func.id == "CoherenceResult":
            granted: Optional[bool] = None
            if value.args and isinstance(value.args[0], ast.Constant):
                granted = bool(value.args[0].value)
            for kw in value.keywords:
                if kw.arg == "granted" and \
                        isinstance(kw.value, ast.Constant):
                    granted = bool(kw.value.value)
            if granted is not None and st.outcome is None:
                st.outcome = "grant" if granted else "nack"
            return
        mesi = _mesi_name(value)
        if mesi is not None:
            self._add_effect(st, f"grant:{mesi}")

    # -- simple statements and effects -------------------------------------

    def _generic_stmt(self, stmt: ast.stmt, st: _PathState) -> None:
        if isinstance(stmt, ast.Assign):
            self._expr_effects(stmt.value, st)
            for target in stmt.targets:
                self._assign_target(target, stmt.value, st)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._expr_effects(stmt.value, st)
                self._assign_target(stmt.target, stmt.value, st)
        elif isinstance(stmt, ast.AugAssign):
            self._expr_effects(stmt.value, st)
            self._augassign(stmt, st)
        elif isinstance(stmt, ast.Expr):
            self._expr_effects(stmt.value, st)
        elif isinstance(stmt, ast.Assert):
            self._expr_effects(stmt.test, st)

    def _assign_target(self, target: ast.AST, value: ast.AST,
                       st: _PathState) -> None:
        attr: Optional[str] = None
        if isinstance(target, ast.Attribute) and \
                target.attr in STATE_ATTRS:
            attr = target.attr
        elif isinstance(target, ast.Subscript):
            attr = _recv_state_attr(target.value)
        if attr is not None:
            verb = "clear" if _is_falsy_const(value) else "set"
            self._state_effect(st, verb, attr)
            return
        names = _target_names(target)
        if names:
            if len(names) == 1 and isinstance(target, ast.Name):
                st.env[names[0]] = self._resolved_value(value, st)
            else:
                for name in names:
                    st.env.pop(name, None)
            self._invalidate(st, set(names))

    def _resolved_value(self, value: ast.AST, st: _PathState) -> ast.AST:
        if isinstance(value, ast.IfExp):
            decided, _ = self._eval(value.test, st)
            if decided is True:
                return self._resolved_value(value.body, st)
            if decided is False:
                return self._resolved_value(value.orelse, st)
        return value

    def _augassign(self, stmt: ast.AugAssign, st: _PathState) -> None:
        target = stmt.target
        if isinstance(target, ast.Attribute) and \
                target.attr in STATE_ATTRS:
            verb = "sub" if isinstance(stmt.op, ast.Sub) else "add"
            self._state_effect(st, verb, target.attr)
        elif isinstance(target, ast.Name):
            st.env.pop(target.id, None)
            self._invalidate(st, {target.id})
        else:
            counter = _counter_bump(stmt, st.env)
            if counter is not None:
                self._add_effect(st, f"ctr:{counter}")

    def _expr_effects(self, node: ast.AST, st: _PathState) -> None:
        """Record effects performed anywhere inside an expression (or
        a simple statement's value), resolving nested ``self`` helper
        calls to their effect summaries."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._call_effects(sub, st)
            elif isinstance(sub, ast.AugAssign):
                self._augassign(sub, st)

    def _call_effects(self, call: ast.Call, st: _PathState) -> None:
        resolved = self.project.resolve_method_call(call, self.cls)
        if resolved is not None:
            stimulus = self._handler_stimulus.get(resolved.name)
            if stimulus is not None and resolved.name != st.trail[0]:
                self._add_effect(st, f"cascade:{stimulus}")
            else:
                self._apply_summary(resolved, st)
            return
        # ``x.route(...)``, or ``route(...)`` through a local bound to it
        func = _bound_attr(call.func, st.env)
        if func is None:
            return
        receiver = func.value
        # Counter bump: self._c_x.add(...), directly or through a local
        counter = _counter_attr(receiver, st.env)
        if func.attr == "add" and counter is not None:
            self._add_effect(st, f"ctr:{counter}")
            return
        if func.attr in PORT_METHODS:
            self._add_effect(st, f"call:{func.attr}")
            return
        if func.attr in NETWORK_METHODS:
            for payload in self._msg_payloads(call, st):
                self._add_effect(st, f"msg:{payload}")
            return
        attr = _recv_state_attr(receiver)
        if attr is not None and func.attr in _SET_METHOD_OPS:
            self._state_effect(st, _SET_METHOD_OPS[func.attr], attr)
        if isinstance(receiver, ast.Name) and \
                func.attr in _MUTATING_METHODS:
            # The local's literal value is stale after a mutation.
            st.env.pop(receiver.id, None)
            self._invalidate(st, {receiver.id})

    def _msg_payloads(self, call: ast.Call,
                      st: _PathState) -> List[str]:
        for arg in reversed(call.args):
            values = self._str_values(arg, st, 0)
            if values:
                return values
        return []

    def _str_values(self, node: ast.AST, st: _PathState,
                    depth: int) -> List[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return [node.value]
        if isinstance(node, ast.Name) and depth < _MAX_ENV_DEPTH:
            bound = st.env.get(node.id)
            if bound is not None:
                return self._str_values(bound, st, depth + 1)
            return []
        if isinstance(node, ast.IfExp):
            decided, _ = self._eval(node.test, st)
            if decided is True:
                return self._str_values(node.body, st, depth)
            if decided is False:
                return self._str_values(node.orelse, st, depth)
            return (self._str_values(node.body, st, depth)
                    + self._str_values(node.orelse, st, depth))
        return []

    def _state_effect(self, st: _PathState, verb: str, attr: str) -> None:
        self._add_effect(st, f"{verb}:{attr}")
        self._invalidate(st, {attr, "_" + attr})

    def _add_effect(self, st: _PathState, effect: str) -> None:
        if effect not in st.effect_set:
            st.effect_set.add(effect)
            st.effects.append(effect)

    def _invalidate(self, st: _PathState, tokens: Set[str]) -> None:
        if not tokens:
            return
        for index, guard in enumerate(st.guards):
            if guard.stable and (guard.tokens & tokens):
                st.guards[index] = replace(guard, stable=False)

    # -- helper summaries --------------------------------------------------

    def _apply_summary(self, target: FunctionInfo,
                       st: _PathState) -> None:
        effects = self._summarize(target, frozenset({st.trail[0]}), 0)
        written: Set[str] = set()
        for effect in sorted(effects):
            self._add_effect(st, effect)
            verb, _, attr = effect.partition(":")
            if verb in ("set", "clear", "add", "sub"):
                written.update({attr, "_" + attr})
        self._invalidate(st, written)

    def _summarize(self, fn: FunctionInfo, visited: "frozenset",
                   depth: int) -> Set[str]:
        cached = self._summary_cache.get(fn.qualname)
        if cached is not None:
            return cached
        effects: Set[str] = set()
        visited = visited | {fn.name}
        # Locals bound to an attribute (``c_fwd = self._c_fwd``,
        # ``to_core = self.network.bank_to_core``), so that bumps and
        # calls through them count as the attribute's.
        aliases: Dict[str, ast.AST] = {
            target.id: node.value for node in ast.walk(fn.node)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Attribute)
            for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                resolved = self.project.resolve_method_call(node, self.cls)
                if resolved is not None:
                    stimulus = self._handler_stimulus.get(resolved.name)
                    if stimulus is not None:
                        effects.add(f"cascade:{stimulus}")
                    elif depth < _MAX_SUMMARY_DEPTH and \
                            resolved.name not in visited:
                        effects |= self._summarize(resolved, visited,
                                                   depth + 1)
                    continue
                effects |= self._flat_call_effects(node, aliases)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    effects |= self._flat_target_effects(target,
                                                         node.value)
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Attribute) and \
                        node.target.attr in STATE_ATTRS:
                    verb = "sub" if isinstance(node.op, ast.Sub) else "add"
                    effects.add(f"{verb}:{node.target.attr}")
                else:
                    counter = _counter_bump(node, aliases)
                    if counter is not None:
                        effects.add(f"ctr:{counter}")
        self._summary_cache[fn.qualname] = effects
        return effects

    def _flat_call_effects(self, call: ast.Call,
                           aliases: Dict[str, ast.AST]) -> Set[str]:
        func = _bound_attr(call.func, aliases)
        if func is None:
            return set()
        receiver = func.value
        counter = _counter_attr(receiver, aliases)
        if func.attr == "add" and counter is not None:
            return {f"ctr:{counter}"}
        if func.attr in PORT_METHODS:
            return {f"call:{func.attr}"}
        if func.attr in NETWORK_METHODS:
            return {f"msg:{value}" for arg in call.args
                    for value in _const_strings(arg)}
        attr = _recv_state_attr(receiver)
        if attr is not None and func.attr in _SET_METHOD_OPS:
            return {f"{_SET_METHOD_OPS[func.attr]}:{attr}"}
        return set()

    @staticmethod
    def _flat_target_effects(target: ast.AST,
                             value: ast.AST) -> Set[str]:
        attr: Optional[str] = None
        if isinstance(target, ast.Attribute) and \
                target.attr in STATE_ATTRS:
            attr = target.attr
        elif isinstance(target, ast.Subscript):
            attr = _recv_state_attr(target.value)
        if attr is None:
            return set()
        verb = "clear" if _is_falsy_const(value) else "set"
        return {f"{verb}:{attr}"}

    # -- partial evaluation ------------------------------------------------

    def _eval(self, node: ast.AST, st: _PathState,
              depth: int = 0) -> Tuple[Optional[bool], ast.AST]:
        if isinstance(node, ast.Constant):
            return bool(node.value), node
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return bool(node.elts), node
        if isinstance(node, ast.Dict):
            return bool(node.keys), node
        if isinstance(node, ast.Name):
            if node.id in self.bindings:
                return self.bindings[node.id], node
            bound = st.env.get(node.id)
            if bound is not None and depth < _MAX_ENV_DEPTH:
                value, reduced = self._eval(bound, st, depth + 1)
                if value is not None:
                    return value, reduced
                if isinstance(bound, _SUBST_NODES):
                    return None, reduced
            return None, node
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            value, reduced = self._eval(node.operand, st, depth)
            if value is not None:
                return (not value), node
            if reduced is not node.operand:
                return None, ast.UnaryOp(op=ast.Not(), operand=reduced)
            return None, node
        if isinstance(node, ast.BoolOp):
            is_and = isinstance(node.op, ast.And)
            unknown: List[ast.AST] = []
            for operand in node.values:
                value, reduced = self._eval(operand, st, depth)
                if value is None:
                    unknown.append(reduced)
                elif is_and and value is False:
                    return False, node
                elif not is_and and value is True:
                    return True, node
            if not unknown:
                return is_and, node
            if len(unknown) == 1:
                return None, unknown[0]
            return None, ast.BoolOp(op=node.op, values=unknown)
        if isinstance(node, ast.IfExp):
            decided, _ = self._eval(node.test, st, depth)
            if decided is True:
                return self._eval(node.body, st, depth)
            if decided is False:
                return self._eval(node.orelse, st, depth)
            return None, node
        return None, node


# ---------------------------------------------------------------------------
# Public extraction + rule API
# ---------------------------------------------------------------------------

def extract_tables(project: Project) -> List[FabricExtraction]:
    """Extract a transition table from every fabric class in the
    project, in (path, definition) order."""
    out: List[FabricExtraction] = []
    for module in sorted(project.modules, key=lambda m: m.path):
        for cls in module.classes.values():
            kind = fabric_kind_of(cls.name, cls.methods)
            if kind is None:
                continue
            out.append(_Extractor(project, module, cls, kind).extract())
    return out


#: marker set computed from a transition's extracted effects; compared
#: against :data:`repro.analysis.protospec.STICKY_PROFILES` (PC003).
def profile_of(transition) -> Set[str]:
    union = transition.effect_union
    markers: Set[str] = set()
    if "add:sticky" in union:
        markers.add("STICKY_SET")
    if "add:sticky_chips" in union:
        markers.add("CHIP_STICKY_SET")
    if {"sub:sticky", "clear:sticky"} & union:
        markers.add("STICKY_DISCHARGE_GUARDED"
                    if "call:holds_transactional" in union
                    else "STICKY_DISCHARGE_UNGUARDED")
    if {"sub:sticky_chips", "clear:sticky_chips"} & union:
        markers.add("CHIP_STICKY_DISCHARGE")
    if "set:lost_info" in union:
        markers.add("LOST_INFO")
    if "set:must_check_all" in union:
        markers.add("CHECK_ALL")
    exclusive = [p for p in transition.paths
                 if "grant:EXCLUSIVE" in p.effects]
    # Only *stable* guards count: a sticky test whose operand was
    # mutated before the grant (the eager-E mutant's discharge block)
    # no longer protects the E decision.
    if exclusive:
        if all(any("sticky" in g.text and g.stable for g in p.guards)
               for p in exclusive):
            markers.add("E_STICKY_GUARDED")
        if all(any("holds_transactional" in g.text and g.stable
                   for g in p.guards)
               for p in exclusive):
            markers.add("E_SIG_GUARDED")
    return markers


def _key_text(key: Tuple[str, str, str]) -> str:
    return "/".join(key)


def check_extraction(extraction: FabricExtraction) -> List[Finding]:
    """PC001–PC004 over one fabric's extracted table."""
    findings: List[Finding] = []
    table = extraction.table
    kind = extraction.kind
    cls_name = extraction.cls.name
    path = extraction.module.path

    def finding(rule: str, line: int, message: str, fixit: str,
                context: str) -> None:
        findings.append(Finding(path=path, line=line, rule=rule,
                                message=message, fixit=fixit,
                                context=context))

    required = required_for(kind)
    missing_keys: Set[Tuple[str, str, str]] = set()
    if not table.truncated:
        for key in sorted(required):
            transition = table.get(key)
            if transition is None:
                missing_keys.add(key)
                finding(
                    "PC001", extraction.cls.node.lineno,
                    f"{kind} fabric '{cls_name}' has no "
                    f"({_key_text(key)}) transition",
                    f"add a handling path for the {_key_text(key)} "
                    "stimulus (see docs/analysis.md, protocol "
                    "conformance)",
                    cls_name)
                continue
            absent = required[key] - transition.effect_union
            if absent:
                finding(
                    "PC001", transition.line,
                    f"({_key_text(key)}) transition of {kind} fabric "
                    f"'{cls_name}' omits required action(s): "
                    f"{', '.join(sorted(absent))}",
                    "perform the required action on at least one "
                    "handling path",
                    cls_name)

    for handler, text, line in sorted(extraction.dead_arms):
        finding(
            "PC002", line,
            f"dead transition arm in {kind} fabric '{cls_name}': "
            f"condition '{text}' contradicts an earlier guard on every "
            "path reaching it",
            "remove the unreachable arm or fix the guard it "
            "contradicts",
            f"{cls_name}.{handler}")

    profiles = profiles_for(kind)
    for key in sorted(table.keys()):
        declared = profiles.get(key)
        if declared is None:
            continue
        transition = table.get(key)
        computed = profile_of(transition)
        if computed != frozenset(declared):
            extra = sorted(computed - declared)
            absent = sorted(declared - computed)
            parts = []
            if extra:
                parts.append(f"unexpected {', '.join(extra)}")
            if absent:
                parts.append(f"missing {', '.join(absent)}")
            finding(
                "PC003", transition.line,
                f"({_key_text(key)}) transition of {kind} fabric "
                f"'{cls_name}' diverges from the declared "
                f"sticky/discharge profile: {'; '.join(parts)}",
                "align the transition's sticky bookkeeping with the "
                "fabric's decoupling profile in protospec.py (or "
                "update the spec if the protocol legitimately changed)",
                cls_name)

    if kind not in PC004_EXEMPT:
        for key in sorted(table.keys()):
            transition = table.get(key)
            union = transition.effect_union
            if "call:holds_transactional" in union and \
                    (union & DESTRUCTIVE_EFFECTS) and \
                    not (union & STICKY_OBLIGATION_EFFECTS):
                finding(
                    "PC004", transition.line,
                    f"({_key_text(key)}) transition of {kind} fabric "
                    f"'{cls_name}' consults signatures and destroys "
                    "line state but neither discharges nor converts "
                    "the sticky obligation",
                    "record a sticky/lost-info/check-all obligation "
                    "for surviving signature coverage before dropping "
                    "the line state",
                    cls_name)

    return findings


def protocol_pass(project: Project) -> List[Finding]:
    """The registry entry point: extract + check every fabric class.

    Registered once under PC001; PC002–PC004 ride on the same pass
    (mirroring how RC002 rides on RC001)."""
    findings: List[Finding] = []
    for extraction in extract_tables(project):
        findings.extend(check_extraction(extraction))
    return findings


def tables_json(extractions: Sequence[FabricExtraction]
                ) -> Dict[str, Dict[str, object]]:
    """``--dump-table`` payload: fabric kind -> stable table dict."""
    out: Dict[str, Dict[str, object]] = {}
    for extraction in extractions:
        out[extraction.kind] = extraction.table.to_json_dict(
            canonical_path(extraction.module.path))
    return out


__all__ = [
    "FabricExtraction", "PATH_CAP", "check_extraction", "extract_tables",
    "profile_of", "protocol_pass", "tables_json",
]
