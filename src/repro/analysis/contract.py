"""The engine contract checker: ``ast``-based lint of the repro source.

Ten codebase invariants, chosen because violating any of them silently
breaks the reproduction rather than crashing it:

* **iterator-contract** — every executor operator (subclass of
  :class:`repro.executor.base.Operator`) implements ``next_batch`` and,
  when it overrides ``open``/``close``, delegates to ``super()`` so span
  tracking and operator registration keep working.
* **batch-contract** — every ``next_batch`` returns ``self.emit_batch(...)``
  or the ``None`` EOF sentinel, every ``probe`` (an index-NLJN inner's
  batched lookup) calls ``self.emit_batch(...)`` once per call, and every
  ``next_matches`` (a hash join's groupjoin pull) ``self.emit_count(...)``,
  so rows reach ``rows_out`` accounting and the cancellation poll.
* **float-eq** — no ``==`` / ``!=`` on numbers inside
  ``optimizer/costmodel.py`` or ``repro/cache/``: validity-range analysis
  evaluates the cost functions at perturbed, non-integral cardinalities,
  and the plan cache's admission test compares derived estimates against
  range bounds — exact float equality is a latent discontinuity in both.
  Computed string comparisons (fingerprint digests) are waived with a
  ``# float-eq: str`` annotation.
* **bare-except** — no ``except:``: it would swallow
  :class:`~repro.executor.base.ReoptimizationSignal`, which must always
  propagate to the POP driver.
* **close-guarded** — operator ``close()`` overrides may only read
  attributes assigned in ``__init__`` (of the class or an ancestor): the
  runtime closes every registered operator in a ``finally`` block, so
  ``close`` must be safe on a half-opened operator and when called twice.
  An attribute first assigned in ``open()`` would raise AttributeError on
  exactly the error paths ``close`` exists to clean up.
* **spill-lifecycle** — every spill file is closed and deleted on success
  and abort paths alike: ``run_plan`` must call ``release_spill`` in a
  ``finally`` block — the single cleanup point every exit (completion,
  re-optimization signal, injected fault, timeout) funnels through — and
  :class:`repro.storage.spill.SpillFile` is confined (below).

The other four, and spill-lifecycle's second half, are one shape — a name
used outside its allow-list — and share one table, :data:`CONFINEMENTS`,
and one walker, :func:`check_confinement`:

* **determinism** — ``random.*`` / ``time.*`` calls and from-imports are
  confined to ``repro/common/rng.py`` and ``repro/obs/`` (seeded
  ``random.Random(seed)`` construction is allowed anywhere); anything else
  would make runs non-reproducible, which the experiment harness depends
  on.
* **fault-isolation** — fault injection stays inside ``repro.resilience``:
  no module outside it may import a ``repro.resilience`` submodule or
  reference a ``fault_injector`` attribute, except the two plumbing sites
  (the context in ``executor/base.py``, which declares it and fires it at
  each memory grant, and the driver).  Package-level imports
  (``from repro.resilience import FaultPlan``) stay legal everywhere.
* **profile-exclusive-time** — ``wall_clock()`` may only be called (or
  imported) at the sanctioned timing sites.  An operator or optimizer
  module timing itself would be invisible to the profiler's exclusive-time
  accounting, so its per-operator self-time totals would no longer
  reconcile with the driver's wall measurements.
* **spill-lifecycle** — ``SpillFile(...)`` is constructed only inside
  ``storage/spill.py``: operators go through ``SpillManager.create``, whose
  bookkeeping ``close_all`` relies on.
* **catalog-statistics** — only the catalog and RUNSTATS call
  ``set_statistics``: every statement plans from those statistics, so one
  that needs others (a ``stats`` fault) carries per-statement overrides.

The tree is read and parsed once (:func:`read_source_tree`); the
concurrency analyzer runs over the same :class:`SourceTree`, and the three
executor-protocol rules share one class graph.  Pure stdlib (``ast``); no
third-party linter is needed at runtime.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.analysis.findings import ERROR, Finding


@dataclass(frozen=True)
class Confinement:
    """One row of the confinement table: uses of some names are sanctioned
    only in the modules matching ``allowed`` (posix path prefixes or
    suffixes relative to the package root)."""

    rule: str
    allowed: tuple
    #: Why a use elsewhere is a bug; ends every finding message.
    why: str
    #: Confined calls, ``f(...)`` or ``x.f(...)``.
    calls: tuple = ()
    #: Confined from-imports, ``from m import f``.
    names: tuple = ()
    #: Modules whose calls ``m.f(...)`` and from-imports are confined.
    modules: tuple = ()
    #: Package prefixes whose submodule imports are confined.
    packages: tuple = ()
    #: Confined attribute references, ``x.attr``.
    attributes: tuple = ()
    #: ``m.f`` exempt from ``modules`` when called with a seed argument.
    seeded: tuple = ()


CONFINEMENTS = (
    Confinement(
        "determinism",
        allowed=("common/rng.py", "obs/"),
        why="breaks reproducible runs",
        modules=("random", "time"),
        seeded=("random.Random",),
    ),
    Confinement(
        "fault-isolation",
        # The resilience package plus the two plumbing sites (the
        # context, which fires it at each grant, and the driver).
        allowed=("resilience/", "executor/base.py", "core/driver.py"),
        why="fault injection must not leak into operator logic; use the "
        "package surface (from repro.resilience import ...)",
        packages=("repro.resilience.",),
        attributes=("fault_injector",),
    ),
    Confinement(
        "profile-exclusive-time",
        # The observability package that defines the clock, the POP driver
        # (per-attempt wall time), the memory governor (admission-queue
        # wait), the execution context (deadline probes in
        # ``check_interrupt``), and the server
        # runtime (statement timeouts, idle reaping, drain budgets).
        allowed=(
            "obs/",
            "core/driver.py",
            "governor/__init__.py",
            "executor/base.py",
            "server/",
        ),
        why="time measured here is invisible to the profiler's "
        "exclusive-time accounting",
        calls=("wall_clock",),
        names=("wall_clock",),
    ),
    Confinement(
        "spill-lifecycle",
        allowed=("storage/spill.py",),
        why="go through SpillManager.create so the file is registered for "
        "close_all() cleanup on abort paths",
        calls=("SpillFile",),
    ),
    Confinement(
        "catalog-statistics",
        # The catalog that holds them and RUNSTATS that collects them.
        allowed=("storage/catalog.py", "stats/collect.py"),
        why="every statement plans from the catalog's statistics; plan one "
        "statement with others through the optimizer's stats_overrides",
        calls=("set_statistics",),
    ),
)

#: The executor protocol methods and the delegation each override owes.
_PROTOCOL_SUPER = {"open": "open", "close": "close"}


@dataclass
class SourceTree:
    """Every module of one package, read and parsed once; the contract
    checker and the concurrency analyzer both run over it."""

    #: Relative posix path -> source text, for every module.
    sources: dict
    #: Relative posix path -> parsed module, for every module that parses.
    trees: dict
    #: One ``parse`` finding per module that does not.
    findings: list


def parse_sources(sources: dict[str, str]) -> SourceTree:
    """Parse ``{relpath: source}`` into a :class:`SourceTree`."""
    trees: dict[str, ast.Module] = {}
    findings: list[Finding] = []
    for rel, source in sources.items():
        try:
            trees[rel] = ast.parse(source, filename=rel)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule="parse",
                    severity=ERROR,
                    message=f"syntax error: {exc.msg}",
                    file=rel,
                    line=exc.lineno,
                )
            )
    return SourceTree(sources=sources, trees=trees, findings=findings)


def read_source_tree(root: Optional[str] = None) -> SourceTree:
    """Read and parse every ``.py`` under ``root`` (default: the live
    ``repro`` package), in sorted order for stable output."""
    if root is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
    sources: dict[str, str] = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                with open(path, "r", encoding="utf-8") as handle:
                    sources[rel] = handle.read()
    return parse_sources(sources)


def check_module(source: str, filename: str = "<snippet>") -> list[Finding]:
    """Contract-check one source string (test hook; applies every
    per-module rule, float-eq included)."""
    return _check_trees(parse_sources({filename: source}), float_eq_everywhere=True)


def _check_trees(
    source_tree: SourceTree, float_eq_everywhere: bool = False
) -> list[Finding]:
    """The one rule list: per-module rules, then whole-package ones."""
    findings: list[Finding] = list(source_tree.findings)
    for rel, tree in source_tree.trees.items():
        findings.extend(check_confinement(tree, rel))
        findings.extend(check_bare_except(tree, rel))
        findings.extend(check_spill_lifecycle(tree, rel))
        # Cost arithmetic and the plan cache's admission test both compare
        # derived floats; == on them is always a bug.
        if (
            float_eq_everywhere
            or rel.endswith("optimizer/costmodel.py")
            or "cache/" in rel
        ):
            findings.extend(
                check_float_eq(tree, rel, source=source_tree.sources[rel])
            )
    graph = _OperatorGraph(source_tree.trees)
    findings.extend(check_iterator_contract(graph))
    findings.extend(check_close_guarded(graph))
    findings.extend(check_batch_contract(graph))
    return findings


# ------------------------------------------------------------- confinement


def check_confinement(tree: ast.Module, rel: str) -> Iterator[Finding]:
    """One walk for every confinement rule whose allow-list misses ``rel``:
    each confined use becomes a finding of that rule."""
    normalized = rel.replace(os.sep, "/")
    active = [
        c for c in CONFINEMENTS
        if not any(
            normalized.startswith(p) or normalized.endswith(p)
            for p in c.allowed
        )
    ]
    if not active:
        return
    for node in ast.walk(tree):
        for confinement in active:
            use = _confined_use(node, confinement)
            if use is not None:
                yield Finding(
                    rule=confinement.rule,
                    severity=ERROR,
                    message=(
                        f"{use} outside {', '.join(confinement.allowed)}: "
                        f"{confinement.why}"
                    ),
                    file=rel,
                    line=node.lineno,
                )


def _confined_use(node: ast.AST, c: Confinement) -> Optional[str]:
    """How ``node`` uses a name ``c`` confines, or ``None``."""
    if isinstance(node, ast.Call):
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if callee in c.calls:
            return f"{callee}() called"
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in c.modules
        ):
            qualified = f"{func.value.id}.{func.attr}"
            if qualified not in c.seeded:
                return f"{qualified}() called"
            if not node.args:
                return f"{qualified}() called unseeded (seed it: {qualified}(seed))"
    elif isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if module.startswith(c.packages):
            return f"import of {module}"
        names = [
            alias.name for alias in node.names
            if alias.name in c.names
            or (module in c.modules and f"{module}.{alias.name}" not in c.seeded)
        ]
        if names:
            return f"from {module} import {', '.join(names)}"
    elif isinstance(node, ast.Import):
        names = [a.name for a in node.names if a.name.startswith(c.packages)]
        if names:
            return f"import of {', '.join(names)}"
    elif isinstance(node, ast.Attribute) and node.attr in c.attributes:
        return f"{node.attr} referenced"
    return None


# ------------------------------------------------------------- bare except


def check_bare_except(tree: ast.Module, rel: str) -> Iterator[Finding]:
    """No ``except:`` — it would swallow ReoptimizationSignal."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield Finding(
                rule="bare-except",
                severity=ERROR,
                message=(
                    "bare except swallows ReoptimizationSignal (and "
                    "KeyboardInterrupt); name the exception classes"
                ),
                file=rel,
                line=node.lineno,
            )


# ---------------------------------------------------------------- float ==


def _is_string_const(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def check_float_eq(
    tree: ast.Module, rel: str, source: Optional[str] = None
) -> Iterator[Finding]:
    """No numeric ``==``/``!=`` in the cost model or the plan cache.

    Cost functions are evaluated at perturbed float cardinalities by the
    Newton–Raphson probe; exact equality tests silently stop matching there
    (``card == 0`` vs a probe point of ``1e-6``).  String comparisons are
    exempt: literal operands are detected automatically, and a computed
    string comparison (e.g. two hex digests) is waived by annotating the
    line with ``# float-eq: str``.
    """
    exempt_lines: set[int] = set()
    if source is not None:
        for lineno, line in enumerate(source.splitlines(), start=1):
            if "# float-eq: str" in line:
                exempt_lines.add(lineno)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        if node.lineno in exempt_lines:
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_string_const(left) or _is_string_const(right):
                continue
            symbol = "==" if isinstance(op, ast.Eq) else "!="
            yield Finding(
                rule="float-eq",
                severity=ERROR,
                message=(
                    f"numeric {symbol} in the cost model: use an ordered "
                    "comparison or a tolerance (cost functions run at "
                    "perturbed float cardinalities)"
                ),
                file=rel,
                line=node.lineno,
            )


# ------------------------------------------------------- iterator contract


def _base_names(node: ast.ClassDef) -> list[str]:
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _methods(node: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        item.name: item
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _calls_super(method: ast.FunctionDef, name: str) -> bool:
    for node in ast.walk(method):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == name
            and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Name)
            and node.func.value.func.id == "super"
        ):
            return True
    return False


class _OperatorGraph:
    """The package's class graph, built once per contract run and shared by
    the three executor-protocol rules."""

    def __init__(self, trees: dict[str, ast.Module]):
        #: Class name -> (relpath, node); the first definition wins.
        self.classes: dict[str, tuple[str, ast.ClassDef]] = {}
        for rel, tree in trees.items():
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self.classes.setdefault(node.name, (rel, node))
        #: Every class transitively derived (by name) from ``Operator``,
        #: sorted; ``Operator`` itself need not be among the scanned sources.
        self.operators = sorted(
            name for name in self.classes
            if name != "Operator" and self._derives(name, frozenset())
        )

    def bases(self, name: str) -> list[str]:
        return _base_names(self.classes[name][1])

    def _derives(self, name: str, seen: frozenset) -> bool:
        if name == "Operator":
            return True
        if name in seen or name not in self.classes:
            return False
        return any(self._derives(base, seen | {name}) for base in self.bases(name))

    def lineage(self, name: str, seen: frozenset = frozenset()) -> Optional[list[str]]:
        """The class plus all ancestors up to Operator; None if the chain
        leaves the scanned sources before reaching Operator."""
        if name not in self.classes or name in seen:
            return None
        if name == "Operator":
            return ["Operator"]
        for base in self.bases(name):
            resolved = self.lineage(base, seen | {name})
            if resolved is not None:
                return [name] + resolved
        return None


def check_iterator_contract(graph: _OperatorGraph) -> Iterator[Finding]:
    """Executor operators implement the open/next_batch/close protocol
    correctly.

    Works on the whole-package class graph: for every class transitively
    derived (by name) from ``Operator``, checks that each concrete operator
    resolves a real ``next_batch`` (the base raises NotImplementedError; a
    row-at-a-time ``next`` is not a substitute — nothing calls it) and that
    ``open``/``close`` overrides delegate to ``super()``.
    """
    classes = graph.classes

    def resolves_next_batch(name: str) -> Optional[bool]:
        """True when a real ``next_batch`` is inherited; None when the chain
        leaves the scanned sources (assume the external base provides it)."""
        if name == "Operator":
            return False  # the base's only raises NotImplementedError
        if name not in classes:
            return None
        if "next_batch" in _methods(classes[name][1]):
            return True
        results = [resolves_next_batch(base) for base in graph.bases(name)]
        if any(r is True for r in results):
            return True
        if any(r is None for r in results):
            return None
        return False

    has_subclasses = {base for name in graph.operators for base in graph.bases(name)}
    for name in graph.operators:
        rel, node = classes[name]
        methods = _methods(node)
        concrete = name not in has_subclasses and not name.startswith("_")
        if concrete and resolves_next_batch(name) is False:
            yield Finding(
                rule="iterator-contract",
                severity=ERROR,
                message=(
                    f"operator {name} never implements next_batch(); the "
                    "base Operator.next_batch raises NotImplementedError "
                    "at runtime"
                ),
                file=rel,
                line=node.lineno,
            )
        for method_name, super_name in _PROTOCOL_SUPER.items():
            method = methods.get(method_name)
            if method is not None and not _calls_super(method, super_name):
                yield Finding(
                    rule="iterator-contract",
                    severity=ERROR,
                    message=(
                        f"{name}.{method_name}() does not call "
                        f"super().{super_name}(): span tracking and "
                        "operator registration would silently break"
                    ),
                    file=rel,
                    line=method.lineno,
                )


# ---------------------------------------------------------- close-guarded


def _init_assigned_attrs(node: ast.ClassDef) -> set[str]:
    """Attribute names assigned on ``self`` in this class's ``__init__``."""
    init = _methods(node).get("__init__")
    if init is None:
        return set()
    assigned: set[str] = set()
    for sub in ast.walk(init):
        targets: list[ast.expr] = []
        if isinstance(sub, ast.Assign):
            targets = list(sub.targets)
        elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
            targets = [sub.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                assigned.add(target.attr)
    return assigned


def check_close_guarded(graph: _OperatorGraph) -> Iterator[Finding]:
    """Operator ``close()`` reads only ``__init__``-assigned attributes.

    The runtime closes every registered operator in a ``finally`` block —
    after mid-``open`` failures, injected faults, and a completed run alike
    — so ``close`` must work on a half-initialized instance and when
    invoked twice.  The static approximation: every ``self.X`` *load*
    inside a ``close`` override must name an attribute assigned in the
    ``__init__`` (or a method/property defined) of the class or one of its
    scanned ancestors.  Classes whose base chain leaves the scanned
    sources are skipped — their contract cannot be resolved.
    """
    classes = graph.classes
    for name in graph.operators:
        lineage = graph.lineage(name)
        if lineage is None:
            continue  # unresolvable chain
        rel, node = classes[name]
        close = _methods(node).get("close")
        if close is None:
            continue
        safe: set[str] = set()
        for ancestor in lineage:
            _, anode = classes[ancestor]
            safe |= _init_assigned_attrs(anode)
            safe |= set(_methods(anode))
        for sub in ast.walk(close):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
                and isinstance(sub.ctx, (ast.Load, ast.Del))
                and sub.attr not in safe
            ):
                yield Finding(
                    rule="close-guarded",
                    severity=ERROR,
                    message=(
                        f"{name}.close() reads self.{sub.attr}, which is "
                        "never assigned in __init__: close() runs in a "
                        "finally block and must be safe on a half-opened "
                        "operator (assign a default in __init__)"
                    ),
                    file=rel,
                    line=sub.lineno,
                )


# ---------------------------------------------------------- batch-contract


#: Methods that hand rows over grouped, or without building them, and the
#: funnel each must count them through once per call.
_COUNTED_ONCE = {"probe": "emit_batch", "next_matches": "emit_count"}


def _is_self_call(node: Optional[ast.AST], funnel: str = "emit_batch") -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == funnel
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "self"
    )


def _batch_return_ok(value: Optional[ast.expr]) -> bool:
    """A ``next_batch`` return is legal when it is the ``None`` EOF
    sentinel (bare return included) or funnels through
    ``self.emit_batch(...)``."""
    if value is None or (isinstance(value, ast.Constant) and value.value is None):
        return True
    return _is_self_call(value)


def _counts_once(method: ast.FunctionDef, funnel: str) -> bool:
    """One ``self.<funnel>`` call, the value (or an element of the tuple
    value) of a top-level statement: once per call."""
    calls = [sub for sub in ast.walk(method) if _is_self_call(sub, funnel)]
    if len(calls) != 1:
        return False
    for stmt in method.body:
        value = getattr(stmt, "value", None)
        elts = value.elts if isinstance(value, ast.Tuple) else [value]
        if any(elt is calls[0] for elt in elts):
            return True
    return False


def check_batch_contract(graph: _OperatorGraph) -> Iterator[Finding]:
    """``next_batch``, ``probe`` and ``next_matches`` implementations
    preserve row accounting.

    POP's cardinality feedback is exact only if every operator returns
    either ``self.emit_batch(...)`` — the single place rows enter
    ``rows_out`` and the cancellation token is polled — or the ``None``
    EOF sentinel.  A ``probe`` returns its rows grouped per key, so it
    counts them with one ``self.emit_batch(...)`` call per invocation; a
    hash join's ``next_matches`` hands them to a groupjoin unbuilt, so it
    counts them with one ``self.emit_count(...)`` call per invocation.
    """
    for name in graph.operators:
        rel, node = graph.classes[name]
        methods = _methods(node)
        for counted, funnel in _COUNTED_ONCE.items():
            method = methods.get(counted)
            if method is not None and not _counts_once(method, funnel):
                yield Finding(
                    rule="batch-contract",
                    severity=ERROR,
                    message=f"{name}.{counted}() must count its rows with one "
                    f"self.{funnel}(...) statement outside any loop or branch",
                    file=rel,
                    line=method.lineno,
                )
        method = methods.get("next_batch")
        if method is None:
            continue
        for sub in ast.walk(method):
            if isinstance(sub, ast.Return):
                if not _batch_return_ok(sub.value):
                    yield Finding(
                        rule="batch-contract",
                        severity=ERROR,
                        message=(
                            f"{name}.next_batch() returns something other "
                            "than self.emit_batch(...) or None: batch rows "
                            "would bypass rows_out accounting and the "
                            "cancellation poll"
                        ),
                        file=rel,
                        line=sub.lineno,
                    )


# -------------------------------------------------------- spill lifecycle


def _finally_calls(tree: ast.AST, method: str) -> bool:
    """True if any ``finally`` block under ``tree`` calls ``*.<method>()``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Try) or not node.finalbody:
            continue
        for stmt in node.finalbody:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == method
                ):
                    return True
    return False


def check_spill_lifecycle(tree: ast.Module, rel: str) -> Iterator[Finding]:
    """``run_plan`` releases spill files in a ``finally`` block.

    The release call must sit in a ``finally`` block: anywhere else, a
    re-optimization signal or injected fault skips it and every spill file
    of the statement outlives it.  (The other half of the rule, confining
    ``SpillFile(...)`` construction to ``storage/spill.py``, is a row of
    :data:`CONFINEMENTS`.)
    """
    if not rel.endswith("executor/runtime.py"):
        return
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "run_plan"
            and not _finally_calls(node, "release_spill")
        ):
            yield Finding(
                rule="spill-lifecycle",
                severity=ERROR,
                message=(
                    "run_plan does not call release_spill() in a "
                    "finally block: spill files would leak on "
                    "re-optimization signals, faults, and timeouts"
                ),
                file=rel,
                line=node.lineno,
            )


def run_contract_checks(root: Optional[str] = None) -> list[Finding]:
    """Contract findings for ``root`` (default: the live package)."""
    return _check_trees(read_source_tree(root))
