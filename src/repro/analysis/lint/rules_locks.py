"""R4 — lock-discipline: PR 9's serving lock protocol, machine-checked.

``RecommenderService`` serializes state behind three locks with a
documented ownership map (model path under ``self._lock``, queue and
fallback state under ``self._cond``, refresh bookkeeping under
``self._refresh_mutex``).  The protocol decayed exactly the way such
protocols do: a method takes the lock, a later convenience accessor
reads the same attribute bare, and the race waits for production
traffic.  This rule infers the protocol instead of trusting it:

- a class **owns locks** if its ``__init__`` assigns
  ``threading.Lock()``/``RLock()``/``Condition()`` to attributes;
- an attribute is **lock-protected** if any non-``__init__`` method
  writes it while lexically inside ``with self.<lock>:`` — its guard
  is the set of locks held at *every* such locked write (a write under
  ``_refresh_mutex`` and ``_lock`` together, next to a write under
  ``_lock`` alone, is guarded by ``_lock``);
- every read or write of that attribute in a non-``__init__`` method
  must hold a guard lock.  When the locked writes share no lock, no
  lock guards the attribute, and every access is reported;
- an attribute that some method **reads under a lock** but that every
  non-``__init__`` method writes with no lock held (a counter bumped
  bare, snapshotted under the lock) has its bare writes reported: the
  reader's lock orders nothing, and concurrent writers lose updates.

Nested ``def`` bodies reset the held-lock set (closures run later, on
other threads); lambdas keep it (``cond.wait_for(lambda: ...)``
predicates run inline under the lock).  ``__init__`` is exempt —
construction precedes sharing.  Methods documented as
"caller holds the lock" opt out with the pragma, which is the point:
the exemption is visible at the definition site.

Pragma: ``# lint: unlocked-ok(reason)``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set

from repro.analysis.lint.engine import (
    Finding,
    Project,
    SourceFile,
    call_name,
    register_rule,
)

__all__ = ["check_lock_discipline"]

_LOCK_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "Lock",
    "RLock",
    "Condition",
}


@dataclass(frozen=True)
class _Access:
    attr: str
    method: str
    line: int
    held: FrozenSet[str]
    is_write: bool


def _class_locks(cls: ast.ClassDef) -> Set[str]:
    locks: Set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Call
                ):
                    if call_name(node.value) not in _LOCK_FACTORIES:
                        continue
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            locks.add(target.attr)
    return locks


class _MethodWalker(ast.NodeVisitor):
    """Collects self-attribute accesses with the lexically held locks."""

    def __init__(self, method: str, locks: Set[str]) -> None:
        self.method = method
        self.locks = locks
        self.held: List[str] = []
        self.accesses: List[_Access] = []

    def _self_attr(self, node: ast.AST) -> str:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr not in self.locks
        ):
            return node.attr
        return ""

    def _record(self, attr: str, line: int, is_write: bool) -> None:
        self.accesses.append(
            _Access(attr, self.method, line, frozenset(self.held), is_write)
        )

    def visit_With(self, node: ast.With) -> None:
        acquired: List[str] = []
        for item in node.items:
            expr = item.context_expr
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in self.locks
            ):
                acquired.append(expr.attr)
            else:
                self.visit(expr)
        self.held.extend(acquired)
        for stmt in node.body:
            self.visit(stmt)
        if acquired:
            del self.held[-len(acquired):]

    def _visit_nested(self, node) -> None:
        # A nested def runs later (worker threads): locks held at the
        # definition site are NOT held at execution time.
        saved, self.held = self.held, []
        self.generic_visit(node)
        self.held = saved

    visit_FunctionDef = _visit_nested
    visit_AsyncFunctionDef = _visit_nested

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = self._self_attr(node)
        if attr:
            self._record(
                attr, node.lineno, isinstance(node.ctx, (ast.Store, ast.Del))
            )
        self.generic_visit(node)

    def _subscript_write(self, target: ast.AST) -> None:
        # self.counts[k] += 1 parses the attribute as a Load; record the
        # mutation explicitly so it counts as a write for inference.
        if isinstance(target, ast.Subscript):
            attr = self._self_attr(target.value)
            if attr:
                self._record(attr, target.lineno, True)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._subscript_write(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._subscript_write(node.target)
        self.generic_visit(node)


def _check_class(sf: SourceFile, cls: ast.ClassDef) -> List[Finding]:
    locks = _class_locks(cls)
    if not locks:
        return []
    accesses: List[_Access] = []
    for stmt in cls.body:
        if (
            isinstance(stmt, ast.FunctionDef)
            and stmt.name != "__init__"
        ):
            walker = _MethodWalker(stmt.name, locks)
            for inner in stmt.body:
                walker.visit(inner)
            accesses.extend(walker.accesses)
    locked_writes: Dict[str, List[_Access]] = {}
    for acc in accesses:
        if acc.is_write and acc.held:
            locked_writes.setdefault(acc.attr, []).append(acc)
    guarded_by = {
        attr: frozenset.intersection(*(w.held for w in writes))
        for attr, writes in locked_writes.items()
    }
    locked_reads: Dict[str, List[_Access]] = {}
    for acc in accesses:
        if not acc.is_write and acc.held and acc.attr not in locked_writes:
            locked_reads.setdefault(acc.attr, []).append(acc)
    findings: List[Finding] = []
    for acc in accesses:
        if acc.is_write and acc.attr in locked_reads:
            # Every write of this attribute outside __init__ holds no
            # lock, yet a reader takes one: the lock orders nothing, so
            # concurrent writers lose updates the locked read expects.
            readers = sorted(
                {(r.method, " + ".join("self." + g for g in sorted(r.held)))
                 for r in locked_reads[acc.attr]}
            )
            message = (
                f"'{acc.attr}' is read under "
                + "; ".join(f"{locks} in {m}()" for m, locks in readers)
                + " but written here, as everywhere outside __init__, "
                "with no lock held"
            )
            findings.append(_finding(sf, cls, acc, message))
            continue
        if acc.attr not in guarded_by or acc.held & guarded_by[acc.attr]:
            continue
        guards, writes = guarded_by[acc.attr], locked_writes[acc.attr]
        verb = "written" if acc.is_write else "read"
        held = (
            f" (holds only {', '.join(sorted(acc.held))})" if acc.held else ""
        )
        if guards:
            origin = min(w.method for w in writes)
            message = (
                f"'{acc.attr}' is written under self.{min(guards)} in "
                f"{origin}() but {verb} here without holding "
                f"{' or '.join('self.' + g for g in sorted(guards))}{held}"
            )
        else:
            sites = sorted(
                {(w.method, " + ".join("self." + g for g in sorted(w.held)))
                 for w in writes}
            )
            message = (
                f"'{acc.attr}' is written under locks that share none ("
                + "; ".join(f"{locks} in {m}()" for m, locks in sites)
                + f"), so no lock guards it; {verb} here{held}"
            )
        findings.append(_finding(sf, cls, acc, message))
    return findings


def _finding(sf: SourceFile, cls: ast.ClassDef, acc: _Access, message: str) -> Finding:
    return Finding(
        rule="R4",
        slug="unlocked",
        path=sf.rel,
        line=acc.line,
        scope=f"{cls.name}.{acc.method}",
        message=message,
        detail=f"{cls.name}.{acc.method}.{acc.attr}",
    )


@register_rule(
    "R4",
    "unlocked",
    "attributes written under a class's lock must never be accessed bare",
)
def check_lock_discipline(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for sf in project.target_files:
        if sf.is_test:
            continue
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(_check_class(sf, node))
    return findings
