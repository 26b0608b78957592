"""Concurrency contract analyzer: lock order, guarded state, waits.

The multi-session roadmap (server sessions, exchange parallelism) will
multiply the threads touching the shared classes — the
:class:`~repro.governor.MemoryGovernor` condition, the
:class:`~repro.cache.plan_cache.PlanCache` RLock, the obs
``MetricsRegistry``/``Tracer``, and the ``SpillManager``.  This module
machine-checks the locking discipline those threads rely on, from the
single policy declaration in :mod:`repro.common.locking`:

* **lock-order inversions** (``cc-lock-order``) — along any intra-package
  call path, acquiring a policy lock while holding one of greater or
  equal rank (or re-acquiring a non-reentrant lock);
* **wait-while-holding** (``cc-wait-holding``) — a ``Condition.wait``
  reachable while any *other* policy lock is held (the waiter sleeps
  with a lock the waker may need);
* **guarded state** (``cc-unguarded-state``) — reads/writes of
  attributes annotated ``# guarded-by: <lock>`` outside a ``with`` on
  that lock and outside a ``*_locked`` helper (the documented
  "caller holds the lock" naming convention);
* **locked helpers** (``cc-locked-helper``) — calls to a ``*_locked``
  method without lexically holding one of the owning class's locks;
* **annotations** (``cc-annotation``) — a ``# guarded-by:`` comment
  naming a lock the policy cannot resolve.

The analysis is two-phase.  Phase one indexes classes, their methods,
and their ``# guarded-by:`` annotations.  Phase two builds per-method
event summaries (acquire / wait / call, each with the lexical held-lock
stack) and then propagates entry held-sets over the heuristic call graph
with a worklist, so a wait three calls below a ``with self._cond:`` block
is still caught.  Receivers are resolved by
the ``(class, attribute)`` pairs of the policy locks plus the
``RECEIVER_HINTS`` naming conventions — deliberately heuristic, precise
enough for this codebase, and cross-checked at runtime: the opt-in
lock-order witness (``REPRO_LOCK_WITNESS=1``) records the acquisition
edges that actually happen under the chaos scenarios, and every
scenario's teardown audit asserts each observed edge is present in
:func:`static_lock_graph`, so false negatives surface as failed runs.

A finding can be waived on its line with ``# concurrency-ok: <reason>``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.analysis.contract import SourceTree, parse_sources, read_source_tree
from repro.analysis.findings import Finding
from repro.common.locking import (
    LOCK_ORDER,
    RECEIVER_HINTS,
    WAIVER_TOKEN,
    LockSpec,
)

__all__ = [
    "CONCURRENCY_RULES",
    "ConcurrencyPolicy",
    "default_policy",
    "check_concurrency_module",
    "run_concurrency_checks",
    "static_lock_graph",
]

#: Comment token that attaches a guard annotation to an attribute.
GUARDED_TOKEN = "# guarded-by:"

#: Rule catalog (id -> one-line doc), mirrored by ``--list-rules``.
CONCURRENCY_RULES = {
    "cc-lock-order": (
        "policy locks must be acquired in ascending declared rank; "
        "non-reentrant locks must not be re-acquired"
    ),
    "cc-wait-holding": (
        "Condition.wait must not be reachable while another policy lock "
        "is held"
    ),
    "cc-unguarded-state": (
        "attributes annotated '# guarded-by:' may only be accessed under "
        "the named lock or inside a *_locked helper"
    ),
    "cc-locked-helper": (
        "*_locked methods document 'caller holds the lock'; calling one "
        "without the owning lock lexically held is a contract break"
    ),
    "cc-annotation": (
        "a '# guarded-by:' annotation must name a lock the policy can "
        "resolve (an attr of this class, or '<hint>.<attr>')"
    ),
}

#: Methods exempt from the guarded-state and locked-helper checks: they
#: run before (or without) any concurrent aliasing of ``self``.
_SINGLE_THREADED_METHODS = ("__init__", "__post_init__", "__repr__")


@dataclass
class ConcurrencyPolicy:
    """What the analyzer enforces — defaults from :mod:`repro.common.locking`.

    Tests pass synthetic policies to exercise the checks against fixture
    modules without depending on the production class names.
    """

    locks: tuple[LockSpec, ...] = LOCK_ORDER
    receiver_hints: dict = field(default_factory=lambda: dict(RECEIVER_HINTS))
    waiver_token: str = WAIVER_TOKEN

    def __post_init__(self) -> None:
        self._by_cls_attr = {(s.cls, s.attr): s for s in self.locks}
        self._by_name = {s.name: s for s in self.locks}

    def lock_for(self, cls: Optional[str], attr: str) -> Optional[LockSpec]:
        if cls is None:
            return None
        return self._by_cls_attr.get((cls, attr))

    def rank(self, name: str) -> int:
        return self._by_name[name].rank

    def kind(self, name: str) -> str:
        return self._by_name[name].kind

    def owned_by(self, cls: str) -> tuple[str, ...]:
        return tuple(s.name for s in self.locks if s.cls == cls)


def default_policy() -> ConcurrencyPolicy:
    return ConcurrencyPolicy()


# ----------------------------------------------------------------- indexing


@dataclass
class _ClassInfo:
    name: str
    rel: str
    methods: set = field(default_factory=set)
    #: attr -> policy lock name guarding it.
    guarded: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _Event:
    """One ordered occurrence inside a method body.

    ``held`` is the lexical with-stack at the event; propagation unions
    it with the caller-supplied entry set.
    """

    kind: str  # "acquire" | "wait" | "call"
    name: str  # lock name or callee display name
    line: int
    held: tuple
    target: Optional[tuple] = None  # summary key for "call" events


@dataclass
class _MethodSummary:
    key: tuple  # ("C", cls, method) | ("F", rel, func)
    rel: str
    cls: Optional[str]
    name: str
    events: list = field(default_factory=list)


def _attr_chain(node: ast.AST) -> Optional[list]:
    """``a.b.c`` -> ["a", "b", "c"]; None for anything fancier."""
    parts: list = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


class _TreeAnalyzer:
    """Whole-tree analysis state: class index, summaries, findings, edges."""

    def __init__(self, policy: Optional[ConcurrencyPolicy] = None):
        self.policy = policy if policy is not None else default_policy()
        self.classes: dict = {}  # class name -> _ClassInfo
        self.module_funcs: dict = {}  # rel -> set of top-level func names
        self.waived: dict = {}  # rel -> set of waived line numbers
        self.summaries: dict = {}  # key -> _MethodSummary
        self.findings: list = []
        #: (held, acquired) -> first (rel, line) site; legal edges included —
        #: this is the static lock graph the runtime witness checks against.
        self.edges: dict = {}
        self._emitted: set = set()

    # ---------------------------------------------------------------- run

    def run(self, source_tree: SourceTree) -> list:
        self.findings.extend(source_tree.findings)
        for rel, tree in source_tree.trees.items():
            lines = source_tree.sources[rel].splitlines()
            self.waived[rel] = {
                i + 1
                for i, text in enumerate(lines)
                if self.policy.waiver_token in text
            }
            self._index_module(rel, tree, lines)
        for rel, tree in source_tree.trees.items():
            self._summarize_module(rel, tree)
        self._propagate()
        return self.findings

    # ------------------------------------------------------ pass 1: index

    def _index_module(self, rel: str, tree: ast.Module, lines: list) -> None:
        funcs = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                funcs.add(node.name)
            elif isinstance(node, ast.ClassDef):
                self._index_class(rel, node, lines)
        self.module_funcs[rel] = funcs

    def _index_class(self, rel: str, node: ast.ClassDef, lines: list) -> None:
        info = self.classes.get(node.name)
        if info is None:
            info = _ClassInfo(name=node.name, rel=rel)
            self.classes[node.name] = info
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods.add(stmt.name)
                for sub in ast.walk(stmt):
                    if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                        self._maybe_annotate(rel, node.name, info, sub, lines)

    def _maybe_annotate(self, rel, cls, info, stmt, lines) -> None:
        if stmt.lineno > len(lines):
            return
        text = lines[stmt.lineno - 1]
        idx = text.find(GUARDED_TOKEN)
        if idx < 0:
            return
        value = text[idx + len(GUARDED_TOKEN):].strip()
        value = value.split()[0] if value.split() else ""
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        attrs = [
            t.attr
            for t in targets
            if isinstance(t, ast.Attribute)
            and isinstance(t.value, ast.Name)
            and t.value.id == "self"
        ]
        if not attrs:
            return
        guard = self._resolve_guard(cls, value)
        if guard is None:
            self._emit(
                "cc-annotation",
                rel,
                stmt.lineno,
                f"cannot resolve guard {value!r} for "
                f"{cls}.{'/'.join(attrs)} to a policy lock",
                data={"annotation": value, "class": cls},
            )
            return
        for attr in attrs:
            info.guarded[attr] = guard

    def _resolve_guard(self, cls: str, text: str) -> Optional[str]:
        if not text:
            return None
        if "." in text:
            head, attr = text.split(".", 1)
            owner = self.policy.receiver_hints.get(head)
        else:
            owner, attr = cls, text
        spec = self.policy.lock_for(owner, attr)
        return spec.name if spec is not None else None

    # ------------------------------------------------- pass 2: summaries

    def _summarize_module(self, rel: str, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = ("F", rel, node.name)
                self.summaries[key] = self._summarize(key, rel, None, node)
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        key = ("C", node.name, stmt.name)
                        self.summaries[key] = self._summarize(
                            key, rel, node.name, stmt
                        )

    def _summarize(self, key, rel, cls, func) -> _MethodSummary:
        summary = _MethodSummary(key=key, rel=rel, cls=cls, name=func.name)
        builder = _SummaryBuilder(self, summary)
        for stmt in func.body:
            builder.walk(stmt, ())
        return summary

    def class_lock_assumption(self, cls: Optional[str]) -> frozenset:
        """Locks a ``*_locked`` method of ``cls`` may assume are held:
        the locks the class owns plus every guard its annotations name."""
        if cls is None:
            return frozenset()
        names = set(self.policy.owned_by(cls))
        info = self.classes.get(cls)
        if info is not None:
            names.update(info.guarded.values())
        return frozenset(names)

    # -------------------------------------------------------- propagation

    def _propagate(self) -> None:
        worklist: list = []
        for key, summary in self.summaries.items():
            worklist.append((key, frozenset()))
            if summary.name.endswith("_locked"):
                assumed = self.class_lock_assumption(summary.cls)
                if assumed:
                    worklist.append((key, assumed))
        seen: set = set()
        while worklist:
            state = worklist.pop()
            if state in seen:
                continue
            seen.add(state)
            key, entry = state
            summary = self.summaries[key]
            for event in summary.events:
                effective = entry | set(event.held)
                if event.kind == "acquire":
                    self._check_acquire(summary, event, effective)
                elif event.kind == "wait":
                    others = effective - {event.name}
                    if others:
                        self._emit(
                            "cc-wait-holding",
                            summary.rel,
                            event.line,
                            f"'{event.name}'.wait() reachable while holding "
                            f"{_names(others)} (in {_label(summary)})",
                            data={"waiting_on": event.name,
                                  "held": sorted(others)},
                        )
                elif event.kind == "call" and event.target in self.summaries:
                    next_state = (event.target, frozenset(effective))
                    if next_state not in seen:
                        worklist.append(next_state)

    def _check_acquire(self, summary, event, effective) -> None:
        lock = event.name
        for held in sorted(effective):
            if held == lock:
                if self.policy.kind(lock) != "rlock":
                    self._emit(
                        "cc-lock-order",
                        summary.rel,
                        event.line,
                        f"re-acquiring non-reentrant lock '{lock}' "
                        f"(in {_label(summary)}) — self-deadlock",
                        data={"lock": lock},
                    )
                continue
            self.edges.setdefault((held, lock), (summary.rel, event.line))
            if self.policy.rank(held) >= self.policy.rank(lock):
                self._emit(
                    "cc-lock-order",
                    summary.rel,
                    event.line,
                    f"lock-order inversion: acquiring '{lock}' "
                    f"(rank {self.policy.rank(lock)}) while holding "
                    f"'{held}' (rank {self.policy.rank(held)}) "
                    f"in {_label(summary)}",
                    data={"acquiring": lock, "holding": held},
                )

    # ------------------------------------------------------------ findings

    def _emit(self, rule, rel, line, message, data=None) -> None:
        if line in self.waived.get(rel, ()):
            return
        key = (rule, rel, line, message)
        if key in self._emitted:
            return
        self._emitted.add(key)
        self.findings.append(
            Finding(
                rule=rule,
                message=message,
                file=rel,
                line=line,
                data=dict(data or {}),
            )
        )


def _label(summary: _MethodSummary) -> str:
    if summary.cls:
        return f"{summary.cls}.{summary.name}"
    return summary.name


def _names(locks: Iterable[str]) -> str:
    return ", ".join(f"'{name}'" for name in sorted(locks))


class _SummaryBuilder:
    """Lexical walk of one method: events + immediate guarded-state checks."""

    def __init__(self, analyzer: _TreeAnalyzer, summary: _MethodSummary):
        self.analyzer = analyzer
        self.policy = analyzer.policy
        self.summary = summary
        self.cls_info = analyzer.classes.get(summary.cls)
        self.waived = analyzer.waived.get(summary.rel, set())
        if summary.name.endswith("_locked"):
            self.assumed = set(analyzer.class_lock_assumption(summary.cls))
        else:
            self.assumed = set()
        self.single_threaded = summary.name in _SINGLE_THREADED_METHODS

    # ------------------------------------------------------------- walking

    def walk(self, node: ast.AST, held: tuple) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested def / closure: its body may run wherever the function
            # escapes to; analyzing it under the lexical held stack of the
            # definition site is the conservative choice for `with` blocks.
            for stmt in node.body:
                self.walk(stmt, held)
            return
        if isinstance(node, ast.Lambda):
            self.walk(node.body, held)
            return
        if isinstance(node, ast.ClassDef):
            return
        if isinstance(node, ast.With):
            self._walk_with(node, held)
            return
        if isinstance(node, ast.Call):
            self._classify_call(node, held)
        elif isinstance(node, ast.Attribute):
            self._check_guarded_access(node, held)
        for child in ast.iter_child_nodes(node):
            self.walk(child, held)

    def _walk_with(self, node: ast.With, held: tuple) -> None:
        inner = held
        for item in node.items:
            spec = self._resolve_lock_expr(item.context_expr)
            if spec is not None:
                self._event("acquire", spec.name, item.context_expr.lineno,
                            inner)
                inner = inner + (spec.name,)
            self.walk(item.context_expr, held)
            if item.optional_vars is not None:
                self.walk(item.optional_vars, inner)
        for stmt in node.body:
            self.walk(stmt, inner)

    # ---------------------------------------------------------- resolution

    def _resolve_lock_expr(self, expr: ast.AST) -> Optional[LockSpec]:
        parts = _attr_chain(expr)
        if parts is None or len(parts) < 2:
            return None
        return self._resolve_lock_parts(parts)

    def _resolve_lock_parts(self, parts: list) -> Optional[LockSpec]:
        base, attr = parts[-2], parts[-1]
        if base == "self":
            owner = self.summary.cls
        else:
            owner = self.policy.receiver_hints.get(base)
        return self.policy.lock_for(owner, attr)

    # --------------------------------------------------------------- calls

    def _classify_call(self, node: ast.Call, held: tuple) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self.analyzer.module_funcs.get(self.summary.rel, ()):
                self._event("call", func.id, node.lineno, held,
                            target=("F", self.summary.rel, func.id))
            return
        if not isinstance(func, ast.Attribute):
            return
        parts = _attr_chain(func)
        if parts is None or len(parts) < 2:
            return
        meth = parts[-1]
        if meth in ("wait", "wait_for"):
            spec = (
                self._resolve_lock_parts(parts[:-1])
                if len(parts) >= 3
                else None
            )
            if spec is not None and spec.kind == "condition":
                self._event("wait", spec.name, node.lineno, held)
                return
        receiver = parts[-2]
        if receiver == "self":
            target_cls = self.summary.cls
        else:
            target_cls = self.policy.receiver_hints.get(receiver)
        info = self.analyzer.classes.get(target_cls) if target_cls else None
        if info is not None and meth in info.methods:
            self._event("call", f"{target_cls}.{meth}", node.lineno, held,
                        target=("C", target_cls, meth))
            if meth.endswith("_locked"):
                self._check_locked_helper(target_cls, meth, node.lineno, held)

    def _check_locked_helper(self, target_cls, meth, line, held) -> None:
        if self.single_threaded:
            return
        need = self.analyzer.class_lock_assumption(target_cls)
        effective = set(held) | self.assumed
        if need and need.isdisjoint(effective) and line not in self.waived:
            self.analyzer._emit(
                "cc-locked-helper",
                self.summary.rel,
                line,
                f"{target_cls}.{meth} requires {_names(need)} held by the "
                f"caller, but {_label(self.summary)} holds "
                f"{_names(effective) or 'nothing'} lexically",
                data={"helper": f"{target_cls}.{meth}",
                      "required": sorted(need)},
            )

    # ------------------------------------------------------- guarded state

    def _check_guarded_access(self, node: ast.Attribute, held: tuple) -> None:
        if self.cls_info is None or self.single_threaded:
            return
        if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
            return
        guard = self.cls_info.guarded.get(node.attr)
        if guard is None:
            return
        effective = set(held) | self.assumed
        if guard in effective or node.lineno in self.waived:
            return
        self.analyzer._emit(
            "cc-unguarded-state",
            self.summary.rel,
            node.lineno,
            f"self.{node.attr} is guarded by '{guard}' but "
            f"{_label(self.summary)} accesses it without the lock "
            "(use a `with` block or a *_locked helper)",
            data={"attr": node.attr, "guard": guard},
        )

    # --------------------------------------------------------------- events

    def _event(self, kind, name, line, held, target=None) -> None:
        self.summary.events.append(
            _Event(kind=kind, name=name, line=line, held=tuple(held),
                   target=target)
        )


# ------------------------------------------------------------- public API


def check_concurrency_module(source: str, filename: str = "<snippet>",
                             policy: Optional[ConcurrencyPolicy] = None) -> list:
    """Analyze one source string (test hook for seeded-violation fixtures)."""
    return _TreeAnalyzer(policy).run(parse_sources({filename: source}))


def run_concurrency_checks(root: Optional[str] = None,
                           policy: Optional[ConcurrencyPolicy] = None) -> list:
    """Concurrency findings for ``root`` (default: the live ``repro`` package)."""
    return _TreeAnalyzer(policy).run(read_source_tree(root))


def static_lock_graph(root: Optional[str] = None,
                      policy: Optional[ConcurrencyPolicy] = None) -> set:
    """Every statically-possible ``(held, acquired)`` edge under ``root``.

    Every chaos scenario's teardown audit asserts the runtime witness's
    observed edges are a subset of this graph, so a resolution gap in the
    static analysis shows up as a failing cross-check instead of staying
    invisible.
    """
    analyzer = _TreeAnalyzer(policy)
    analyzer.run(read_source_tree(root))
    return set(analyzer.edges)
