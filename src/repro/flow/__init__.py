"""Min-cost flow substrate.

The paper solves its matching and fixed-row-fixed-order formulations with
LEMON's network simplex; this subpackage is our from-scratch replacement
for the fixed-row-fixed-order one (matching runs SciPy's dense
assignment solver, see :mod:`repro.core.matching`):

* :mod:`repro.flow.graph` — the flow-network representation;
* :mod:`repro.flow.network_simplex` — primal network simplex with the
  first-eligible pivot rule (the solver configuration named in §3.3.1);
* :mod:`repro.flow.ssp` — successive shortest paths with potentials, a
  simpler reference solver used for cross-checking;
* :mod:`repro.flow.validate` — feasibility/optimality certificates.

All arithmetic is exact (Python integers), so optimality checks are exact
equalities, never tolerances.
"""

from repro.flow.graph import INFINITE, FlowEdge, FlowGraph, FlowResult
from repro.flow.network_simplex import NetworkSimplex, solve_min_cost_flow
from repro.flow.ssp import solve_ssp
from repro.flow.validate import (
    check_complementary_slackness,
    check_feasible_flow,
    flow_cost,
)

__all__ = [
    "FlowEdge",
    "FlowGraph",
    "FlowResult",
    "INFINITE",
    "NetworkSimplex",
    "check_complementary_slackness",
    "check_feasible_flow",
    "flow_cost",
    "solve_min_cost_flow",
    "solve_ssp",
]
