"""Contract rule C002: declared purity contracts hold project-wide.

The reproduction's determinism argument names a handful of callables
that must be *pure evaluations* no matter who calls them: the
``evaluate_insert`` the §3.5 scheduler runs in-process and in its
worker processes, and the ``repro.core.parallel`` worker entry point
that replays journal deltas against a process-local mirror.
``[tool.repro-lint] pure-contracts`` lists them; this rule verifies each
one transitively — across module boundaries, into methods of locally
constructed objects that capture shared state — using the shared
:class:`~tools.repro_lint.purity.PurityWalker`.

A contract may sanction writes through specific *scratch* parameters —
``"pkg.Engine.evaluate(scratch)"`` marks ``scratch`` as caller-owned
state the call may write.  A scratch name the function does not take
sanctions nothing, so it is reported as a stale entry, like a contract
that does not resolve.

Violations are attached to the contract's ``def`` line in its defining
file; the message cites the offending write site.  The incremental
cache invalidates the defining file whenever anything in the contract's
call-graph closure changes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from tools.repro_lint.config import LintConfig
from tools.repro_lint.project import Project, SourceFile
from tools.repro_lint.purity import SCRATCH, SHARED, PurityWalker, Val
from tools.repro_lint.rules import Rule
from tools.repro_lint.symbols import FunctionInfo, _all_args
from tools.repro_lint.violations import Violation


class PurityContractRule(Rule):
    code = "C002"
    summary = "declared purity contract writes shared state"

    def check_file(
        self, source: SourceFile, project: Project, config: LintConfig
    ) -> List[Violation]:
        violations: List[Violation] = []
        symbols = project.symbols
        for contract in config.contracts():
            fn = symbols.lookup_function(contract.qname)
            if fn is None:
                # The contract names nothing in this scan.  If its owning
                # module *is* scanned, a stale config must fail loudly
                # instead of silently checking nothing; if the whole
                # subsystem is outside this scan (fixture runs, partial
                # targets), stay quiet.
                owner = self._owner_module_path(project, contract.qname)
                if owner is not None and owner == source.rel_path:
                    violations.append(Violation(
                        source.rel_path, 1, 0, self.code,
                        f"pure contract '{contract.qname}' does not resolve "
                        f"to a scanned function; update "
                        f"[tool.repro-lint] pure-contracts",
                    ))
                continue
            if fn.rel_path != source.rel_path:
                continue
            walker = PurityWalker(symbols)
            env = self._contract_env(walker, fn, contract.scratch_params)
            for name in contract.scratch_params:
                if name not in env:
                    violations.append(Violation(
                        source.rel_path, fn.node.lineno, fn.node.col_offset,
                        self.code,
                        f"pure contract '{contract.qname}' names scratch "
                        f"parameter '{name}', which the function does not "
                        f"take; update [tool.repro-lint] pure-contracts",
                    ))
            walker.walk_function(fn, env)
            for finding in walker.findings:
                violations.append(Violation(
                    source.rel_path, fn.node.lineno, fn.node.col_offset,
                    self.code,
                    f"pure contract '{contract.qname}' is violated: "
                    f"{finding.what} ({finding.rel_path}:{finding.line})",
                ))
        return violations

    # ------------------------------------------------------------------

    @staticmethod
    def _owner_module_path(project: Project, qname: str) -> Optional[str]:
        parts = qname.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = project.symbols.modules.get(".".join(parts[:cut]))
            if mod is not None:
                return mod.rel_path
        return None

    @staticmethod
    def _contract_env(
        walker: PurityWalker, fn: FunctionInfo, scratch: Tuple[str, ...]
    ) -> Dict[str, Val]:
        symbols = walker.symbols
        mod = symbols.by_path.get(fn.rel_path)
        env: Dict[str, Val] = {}
        for arg in _all_args(fn.node):
            cls = (
                symbols.annotation_class(mod, arg.annotation)
                if mod is not None and arg.annotation is not None else None
            )
            if arg.arg in ("self", "cls"):
                env[arg.arg] = Val(SHARED, fn.class_qname)
            elif arg.arg in scratch:
                env[arg.arg] = Val(SCRATCH, cls)
            else:
                env[arg.arg] = Val(SHARED, cls)
        return env
