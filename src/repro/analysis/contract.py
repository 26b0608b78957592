"""The engine contract checker: ``ast``-based lint of the repro source.

Two codebase invariants whose violation no test observes (the catch
table in ``docs/static_analysis.md`` records the seeded defect each one
alone catches):

* **close-guarded** — operator ``close()`` overrides may only read
  attributes assigned in ``__init__`` (of the class or an ancestor): the
  runtime closes every registered operator in a ``finally`` block, so
  ``close`` must be safe on a half-opened operator and when called twice.
  An attribute first assigned in ``open()`` would raise AttributeError on
  exactly the error paths ``close`` exists to clean up.
* **float-eq** — no ``==`` / ``!=`` on numbers inside
  ``optimizer/costmodel.py`` or ``repro/cache/``: validity-range analysis
  evaluates the cost functions at perturbed, non-integral cardinalities,
  and the plan cache's admission test compares derived estimates against
  range bounds — exact float equality is a latent discontinuity in both.
  Computed string comparisons (fingerprint digests) are waived with a
  ``# float-eq: str`` annotation.

The tree is read and parsed once (:func:`read_source_tree`); the
concurrency analyzer runs over the same :class:`SourceTree`.  Pure stdlib
(``ast``); no third-party linter is needed at runtime.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.analysis.findings import Finding


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
    """The one rule list: per-module rules, then the class-graph one."""
    findings: list[Finding] = list(source_tree.findings)
    for rel, tree in source_tree.trees.items():
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
    findings.extend(check_close_guarded(source_tree.trees))
    return findings


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
                message=(
                    f"numeric {symbol} on derived floats: use an ordered "
                    "comparison or a tolerance (cost functions run at "
                    "perturbed cardinalities, the plan cache compares "
                    "estimates against range bounds)"
                ),
                file=rel,
                line=node.lineno,
            )


# ---------------------------------------------------------- close-guarded


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


def _lineage(classes: dict, name: str, seen: frozenset = frozenset()) -> Optional[list]:
    """The class plus all ancestors up to ``Operator``; None if the chain
    leaves the scanned sources before reaching it."""
    if name not in classes or name in seen:
        return None
    if name == "Operator":
        return ["Operator"]
    for base in _base_names(classes[name][1]):
        resolved = _lineage(classes, base, seen | {name})
        if resolved is not None:
            return [name] + resolved
    return None


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


def check_close_guarded(trees: dict[str, ast.Module]) -> Iterator[Finding]:
    """Operator ``close()`` reads only ``__init__``-assigned attributes.

    The runtime closes every registered operator in a ``finally`` block —
    after mid-``open`` failures, injected faults, and a completed run alike
    — so ``close`` must work on a half-initialized instance and when
    invoked twice.  The static approximation: every ``self.X`` *load*
    inside a ``close`` override of a class derived from ``Operator`` must
    name an attribute assigned in the ``__init__`` (or a method/property
    defined) of the class or one of its ancestors.  Classes whose base
    chain leaves the scanned sources are skipped — their contract cannot
    be resolved.
    """
    #: Class name -> (relpath, node); the first definition wins.
    classes: dict[str, tuple[str, ast.ClassDef]] = {}
    for rel, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, (rel, node))
    for name in sorted(classes):
        rel, node = classes[name]
        close = _methods(node).get("close")
        lineage = _lineage(classes, name)
        if close is None or lineage is None or name == "Operator":
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
                    message=(
                        f"{name}.close() reads self.{sub.attr}, which is "
                        "never assigned in __init__: close() runs in a "
                        "finally block and must be safe on a half-opened "
                        "operator (assign a default in __init__)"
                    ),
                    file=rel,
                    line=sub.lineno,
                )


def run_contract_checks(root: Optional[str] = None) -> list[Finding]:
    """Contract findings for ``root`` (default: the live package)."""
    return _check_trees(read_source_tree(root))
