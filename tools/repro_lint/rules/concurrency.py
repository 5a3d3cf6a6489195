"""Concurrency rule C001: thread-pool shared-state race detector.

The §3.5 scheduler is only deterministic because its evaluation phase
is *pure*: the docstring contract is "evaluation never mutates state".
The scheduler evaluates in-process or on worker processes and submits
nothing to a thread pool today; this rule keeps a reintroduced pool
honest.  For every ``<pool>.submit(fn, ...)`` in a
scheduler module it resolves ``fn`` through the project symbol table —
a local def, lambda, ``self.method``, or a method of an
annotation/constructor-typed receiver — and hands it to the shared
:class:`~tools.repro_lint.purity.PurityWalker`, which follows the call
tree across module boundaries, *including into methods of locally
constructed objects that capture shared state* (the hole the original
per-file walker documented).

Call-site awareness matters: parameters the submission does not pass
take their default-value classification, so a ``scratch=None`` default
is checked as actually submitted.  An unresolvable submission target is
itself a violation: the scheduler must only submit callables the race
analyzer can check.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple, Union

from tools.repro_lint.config import LintConfig
from tools.repro_lint.project import Project, SourceFile
from tools.repro_lint.purity import SHARED_VAL, PurityWalker, Val
from tools.repro_lint.rules import Rule
from tools.repro_lint.symbols import (
    FunctionInfo,
    ModuleSymbols,
    SymbolTable,
    dotted_name,
)
from tools.repro_lint.violations import Violation


class SchedulerRaceRule(Rule):
    code = "C001"
    summary = "thread-pool submission writes shared state"

    def check_file(
        self, source: SourceFile, project: Project, config: LintConfig
    ) -> List[Violation]:
        if not LintConfig.in_scope(source.rel_path, config.scheduler_modules):
            return []
        violations: List[Violation] = []
        for class_name, call in self._submit_calls(source.tree):
            violations.extend(
                self._check_submission(source, project, class_name, call)
            )
        return violations

    # ------------------------------------------------------------------

    @staticmethod
    def _submit_calls(
        tree: ast.Module,
    ) -> List[Tuple[Optional[str], ast.Call]]:
        """All ``<x>.submit(...)`` calls, tagged with the enclosing class."""
        found: List[Tuple[Optional[str], ast.Call]] = []

        def visit(node: ast.AST, class_name: Optional[str]) -> None:
            if isinstance(node, ast.ClassDef):
                class_name = node.name
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "submit"
                and node.args
            ):
                found.append((class_name, node))
            for child in ast.iter_child_nodes(node):
                visit(child, class_name)

        visit(tree, None)
        return found

    def _check_submission(
        self,
        source: SourceFile,
        project: Project,
        class_name: Optional[str],
        call: ast.Call,
    ) -> List[Violation]:
        target = call.args[0]
        symbols = project.symbols
        mod = symbols.by_path.get(source.rel_path)
        walker = PurityWalker(symbols)
        resolved_name: str

        if isinstance(target, ast.Lambda):
            resolved_name = "<lambda>"
            walker.walk_lambda(
                source.rel_path, mod.name if mod else "", target
            )
        else:
            info = self._resolve_target(project, source, class_name, target)
            if info is None:
                label = ast.unparse(target)
                return [Violation(
                    source.rel_path, call.lineno, call.col_offset, self.code,
                    f"cannot resolve thread-pool submission target "
                    f"'{label}'; submit only callables the race analyzer "
                    f"can check",
                )]
            resolved_name = info.name
            # Everything handed to the pool is shared across threads by
            # construction; unpassed parameters keep their defaults.
            arg_vals = [SHARED_VAL for _ in call.args[1:]]
            kwarg_vals = {
                kw.arg: SHARED_VAL for kw in call.keywords
                if kw.arg is not None
            }
            self_val: Optional[Val] = None
            if info.class_qname is not None:
                self_val = Val("shared", info.class_qname)
            env = walker.bind_call(info, call, arg_vals, kwarg_vals, self_val)
            walker.walk_function(info, env)

        violations = []
        for finding in walker.findings:
            violations.append(Violation(
                source.rel_path, call.lineno, call.col_offset, self.code,
                f"'{resolved_name}' runs on the scheduler thread pool but "
                f"writes shared state: {finding.what} "
                f"({finding.rel_path}:{finding.line}); "
                f"evaluation must be pure (§3.5)",
            ))
        return violations

    @staticmethod
    def _resolve_target(
        project: Project,
        source: SourceFile,
        class_name: Optional[str],
        target: ast.expr,
    ) -> Optional[FunctionInfo]:
        symbols = project.symbols
        mod = symbols.by_path.get(source.rel_path)
        if mod is None:
            return None
        if isinstance(target, ast.Name):
            resolved = symbols.resolve(mod, target.id)
            if resolved is not None:
                return symbols.lookup_function(resolved)
            return None
        if not isinstance(target, ast.Attribute):
            return None
        # ``self.method`` / ``self.attr.method`` / ``local.method`` where
        # the receiver's class is known from annotations or constructors.
        receiver_cls = SchedulerRaceRule._receiver_class(
            symbols, mod, source, class_name, target.value
        )
        if receiver_cls is not None:
            return symbols.lookup_method(receiver_cls, target.attr)
        # Module-attached function: ``module.func``.
        dotted = dotted_name(target)
        if dotted is not None:
            resolved = symbols.resolve(mod, dotted)
            if resolved is not None:
                return symbols.lookup_function(resolved)
        return None

    @staticmethod
    def _receiver_class(
        symbols: SymbolTable,
        mod: ModuleSymbols,
        source: SourceFile,
        class_name: Optional[str],
        receiver: ast.expr,
    ) -> Optional[str]:
        """Class of the submission receiver, via shallow type inference."""
        class_qname = (
            symbols.resolve(mod, class_name) if class_name else None
        )
        if isinstance(receiver, ast.Name):
            if receiver.id == "self":
                return class_qname
            # Search the enclosing function for a typing binding of the
            # local: annotation, constructor call, or typed self-attr.
            fn = _enclosing_function(source.tree, receiver)
            if fn is None:
                return None
            return _local_class(symbols, mod, class_qname, fn, receiver.id)
        if isinstance(receiver, ast.Attribute):
            base = SchedulerRaceRule._receiver_class(
                symbols, mod, source, class_name, receiver.value
            )
            if base is not None:
                return symbols.attr_class(base, receiver.attr)
        return None


_FunctionDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _enclosing_function(
    tree: ast.Module, needle: ast.expr
) -> Optional[_FunctionDef]:
    """Innermost function definition containing ``needle``."""
    found: List[_FunctionDef] = []

    def visit(node: ast.AST, current: Optional[_FunctionDef]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            current = node
        if node is needle and current is not None:
            found.append(current)
        for child in ast.iter_child_nodes(node):
            visit(child, current)

    visit(tree, None)
    return found[0] if found else None


def _local_class(
    symbols: SymbolTable,
    mod: ModuleSymbols,
    class_qname: Optional[str],
    fn: Union[ast.FunctionDef, ast.AsyncFunctionDef],
    name: str,
) -> Optional[str]:
    """Shallow class inference for local ``name`` inside ``fn``."""
    for arg in (
        list(fn.args.posonlyargs) + list(fn.args.args)
        + list(fn.args.kwonlyargs)
    ):
        if arg.arg == name and arg.annotation is not None:
            return symbols.annotation_class(mod, arg.annotation)
    for sub in ast.walk(fn):
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
            target, value = sub.targets[0], sub.value
        elif isinstance(sub, ast.AnnAssign) and sub.annotation is not None:
            if isinstance(sub.target, ast.Name) and sub.target.id == name:
                return symbols.annotation_class(mod, sub.annotation)
            continue
        else:
            continue
        if not (isinstance(target, ast.Name) and target.id == name):
            continue
        if isinstance(value, ast.Call):
            dotted = dotted_name(value.func)
            if dotted is not None:
                resolved = symbols.resolve(mod, dotted)
                if resolved is not None and resolved in symbols.classes:
                    return resolved
        elif isinstance(value, ast.Attribute) and isinstance(
            value.value, ast.Name
        ) and value.value.id == "self" and class_qname is not None:
            return symbols.attr_class(class_qname, value.attr)
    return None
