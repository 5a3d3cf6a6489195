"""repro-lint: AST-based determinism & invariant analyzer.

Checks the reproduction's standing invariants (seeded randomness,
pinned iteration order, integer site math, clock-free algorithms, pure
evaluation contracts) without running the code.  See
``docs/STATIC_ANALYSIS.md`` for the rule catalogue and rationale.
"""

from tools.repro_lint.engine import run_lint
from tools.repro_lint.violations import Violation

__all__ = ["run_lint", "Violation"]
