"""Configuration for repro-lint.

Rule scopes are path prefixes relative to the repository root (POSIX
separators).  Defaults below encode this codebase's layout; they can be
overridden from ``pyproject.toml``::

    [tool.repro-lint]
    ordering-sensitive = ["src/repro/core/", "src/repro/flow/"]
    float-sensitive = ["src/repro/model/", "src/repro/core/"]
    algorithm-modules = ["src/repro/core/", ...]
    scheduler-modules = ["src/repro/core/scheduler.py"]
    exclude = ["tests/lint_fixtures/"]

``tomllib`` (Python >= 3.11) or ``tomli`` is used when available; on
interpreters with neither, the built-in defaults — which match the
checked-in pyproject section — apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

#: Paths skipped entirely, on top of per-rule scoping.
DEFAULT_EXCLUDE: Tuple[str, ...] = (
    "tests/lint_fixtures/",
    "benchmarks/out/",
)

#: D002: modules where iteration order feeds algorithm decisions.
DEFAULT_ORDERING_SENSITIVE: Tuple[str, ...] = (
    "src/repro/core/",
    "src/repro/flow/",
)

#: D003: geometry/occupancy modules that must use site-integer math.
DEFAULT_FLOAT_SENSITIVE: Tuple[str, ...] = (
    "src/repro/model/",
    "src/repro/core/",
)

#: D004: algorithm modules where wall-clock reads are banned.
DEFAULT_ALGORITHM_MODULES: Tuple[str, ...] = (
    "src/repro/core/",
    "src/repro/flow/",
    "src/repro/gp/",
    "src/repro/baselines/",
    "src/repro/benchgen/",
    "src/repro/checker/",
    "src/repro/model/",
)

#: C001: modules whose thread-pool submissions are race-checked (none
#: submit today; the scope keeps a reintroduced pool under the check).
DEFAULT_SCHEDULER_MODULES: Tuple[str, ...] = (
    "src/repro/core/scheduler.py",
)

#: C002: callables verified transitively free of shared-state writes.
#: A trailing parenthesized list names caller-owned *scratch* parameters
#: whose state the contract explicitly sanctions writes to, e.g.
#: ``"pkg.Engine.evaluate(scratch)"``; each must be a parameter of the
#: function.
DEFAULT_PURE_CONTRACTS: Tuple[str, ...] = (
    "repro.core.mgl.MGLegalizer.evaluate_insert",
    "repro.core.parallel.worker_main",
    "repro.core.shard.shard_worker_main",
)

#: M001: classes whose internals may only be written by their home module.
DEFAULT_MUTATION_PROTECTED: Tuple[str, ...] = (
    "repro.core.occupancy.Occupancy",
    "repro.core.insertion.InsertionContext",
)

#: E001: modules whose protected-state mutations must be balanced by a
#: restore on every exit edge (the trial/rollback machinery).
DEFAULT_TRIAL_MODULES: Tuple[str, ...] = (
    "src/repro/core/mgl.py",
    "src/repro/core/scheduler.py",
    "src/repro/core/shard.py",
    "src/repro/core/parallel.py",
)

#: E001: functions *declared* to commit accepted moves for real.  Their
#: mutations are exempt from the restore requirement, but the rule then
#: verifies they are atomic: no exceptional exit is reachable after the
#: first protected mutation.
DEFAULT_MUTATION_COMMITS: Tuple[str, ...] = (
    "repro.core.mgl.MGLegalizer.apply_insertion",
)

#: P001: modules whose worker pipe payloads must be canonical.
DEFAULT_PIPE_MODULES: Tuple[str, ...] = (
    "src/repro/core/parallel.py",
    "src/repro/core/shard.py",
)

#: Rule-family -> config fields its verdicts depend on.  The tier-2
#: cache uses this to re-run only the families whose scoping actually
#: changed; ``exclude`` is global, so it lives in the base digest that
#: every family inherits.
FAMILY_FIELDS: Dict[str, Tuple[str, ...]] = {
    "A": ("ordering_sensitive", "float_sensitive"),
    "C": ("scheduler_modules", "pure_contracts"),
    "D": ("ordering_sensitive", "float_sensitive", "algorithm_modules"),
    "E": ("trial_modules", "mutation_commits", "mutation_protected"),
    "M": ("mutation_protected",),
    "P": ("pipe_modules", "pure_contracts"),
}


@dataclass(frozen=True)
class PureContract:
    """One parsed ``pure-contracts`` entry."""

    qname: str
    scratch_params: Tuple[str, ...] = ()

    @classmethod
    def parse(cls, spec: str) -> "PureContract":
        spec = spec.strip()
        if spec.endswith(")") and "(" in spec:
            qname, _, params = spec[:-1].partition("(")
            scratch = tuple(
                p.strip() for p in params.split(",") if p.strip()
            )
            return cls(qname=qname.strip(), scratch_params=scratch)
        return cls(qname=spec)


@dataclass(frozen=True)
class LintConfig:
    """Resolved rule scopes (path prefixes relative to the repo root)."""

    exclude: Tuple[str, ...] = DEFAULT_EXCLUDE
    ordering_sensitive: Tuple[str, ...] = DEFAULT_ORDERING_SENSITIVE
    float_sensitive: Tuple[str, ...] = DEFAULT_FLOAT_SENSITIVE
    algorithm_modules: Tuple[str, ...] = DEFAULT_ALGORITHM_MODULES
    scheduler_modules: Tuple[str, ...] = DEFAULT_SCHEDULER_MODULES
    pure_contracts: Tuple[str, ...] = DEFAULT_PURE_CONTRACTS
    mutation_protected: Tuple[str, ...] = DEFAULT_MUTATION_PROTECTED
    trial_modules: Tuple[str, ...] = DEFAULT_TRIAL_MODULES
    mutation_commits: Tuple[str, ...] = DEFAULT_MUTATION_COMMITS
    pipe_modules: Tuple[str, ...] = DEFAULT_PIPE_MODULES

    @staticmethod
    def in_scope(rel_path: str, prefixes: Tuple[str, ...]) -> bool:
        """True when ``rel_path`` falls under any scope prefix."""
        return any(rel_path.startswith(prefix) for prefix in prefixes)

    def contracts(self) -> Tuple[PureContract, ...]:
        """Parsed C002 purity contracts."""
        return tuple(PureContract.parse(spec) for spec in self.pure_contracts)

    def _hash_fields(self, names: Tuple[str, ...]) -> str:
        import hashlib

        payload = "\x1e".join(
            f"{name}={'|'.join(getattr(self, name))}" for name in names
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def base_digest(self) -> str:
        """Digest of the config every rule family depends on."""
        return self._hash_fields(("exclude",))

    def family_digest(self, family: str) -> str:
        """Digest of the fields one rule family's verdicts depend on.

        Unknown families (future rules whose code letter has no entry
        in :data:`FAMILY_FIELDS`) conservatively hash the whole config.
        """
        fields = FAMILY_FIELDS.get(family)
        if fields is None:
            return self.digest()
        return self._hash_fields(fields)

    def family_digests(self) -> Dict[str, str]:
        return {
            family: self.family_digest(family) for family in FAMILY_FIELDS
        }

    def digest(self) -> str:
        """Stable content hash of the configuration (cache key part)."""
        return self._hash_fields(
            (
                "exclude", "ordering_sensitive", "float_sensitive",
                "algorithm_modules", "scheduler_modules",
                "pure_contracts", "mutation_protected",
                "trial_modules", "mutation_commits", "pipe_modules",
            )
        )


def _load_toml(path: Path) -> Optional[Dict[str, Any]]:
    try:
        import tomllib  # Python >= 3.11
    except ImportError:  # pragma: no cover - version-dependent
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ImportError:
            return None
    try:
        with open(path, "rb") as handle:
            return tomllib.load(handle)
    except (OSError, ValueError):
        return None


def load_config(root: Path) -> LintConfig:
    """Build the config from ``<root>/pyproject.toml`` (or defaults)."""
    data = _load_toml(root / "pyproject.toml")
    if data is None:
        return LintConfig()
    section = data.get("tool", {}).get("repro-lint", {})
    if not isinstance(section, dict):
        return LintConfig()

    def read(key: str, default: Tuple[str, ...]) -> Tuple[str, ...]:
        value = section.get(key)
        if isinstance(value, list) and all(isinstance(v, str) for v in value):
            return tuple(value)
        return default

    return LintConfig(
        exclude=read("exclude", DEFAULT_EXCLUDE),
        ordering_sensitive=read("ordering-sensitive", DEFAULT_ORDERING_SENSITIVE),
        float_sensitive=read("float-sensitive", DEFAULT_FLOAT_SENSITIVE),
        algorithm_modules=read("algorithm-modules", DEFAULT_ALGORITHM_MODULES),
        scheduler_modules=read("scheduler-modules", DEFAULT_SCHEDULER_MODULES),
        pure_contracts=read("pure-contracts", DEFAULT_PURE_CONTRACTS),
        mutation_protected=read(
            "mutation-protected", DEFAULT_MUTATION_PROTECTED
        ),
        trial_modules=read("trial-modules", DEFAULT_TRIAL_MODULES),
        mutation_commits=read("mutation-commits", DEFAULT_MUTATION_COMMITS),
        pipe_modules=read("pipe-modules", DEFAULT_PIPE_MODULES),
    )
