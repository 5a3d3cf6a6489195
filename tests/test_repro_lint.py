"""Tests for tools/repro_lint: per-rule detection, suppressions, CLI,
output formats, baselines, and the incremental cache.

Each rule has a known-bad fixture (every violation detected) and a
known-good twin (zero violations), plus an end-to-end check that the
real source tree lints clean with the checked-in configuration.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.repro_lint.baseline import (  # noqa: E402
    apply_baseline,
    load_baseline,
    write_baseline,
)
from tools.repro_lint.cli import main as lint_main  # noqa: E402
from tools.repro_lint.config import LintConfig, load_config  # noqa: E402
from tools.repro_lint.engine import lint, run_lint  # noqa: E402
from tools.repro_lint.formats import render_sarif  # noqa: E402
from tools.repro_lint.rules import all_rules  # noqa: E402
from tools.repro_lint.suppress import parse_suppressions  # noqa: E402
from tools.repro_lint.violations import Violation  # noqa: E402

FIXTURES = "tests/lint_fixtures"

#: Puts the fixture directory in scope of every path-scoped rule and
#: drops the default exclusion so fixtures can be linted at all.  The
#: contract/protection lists start empty; per-test configs add the
#: entries the fixture under test needs.
FIXTURE_CONFIG = LintConfig(
    exclude=(),
    ordering_sensitive=(FIXTURES,),
    float_sensitive=(FIXTURES,),
    algorithm_modules=(FIXTURES,),
    scheduler_modules=(FIXTURES,),
    trial_modules=(FIXTURES,),
    pipe_modules=(FIXTURES,),
    pure_contracts=(),
    mutation_protected=(),
    mutation_commits=(),
)


def lint_fixture(name, config=FIXTURE_CONFIG):
    return run_lint(REPO_ROOT, [f"{FIXTURES}/{name}"], config)


def codes(violations):
    return sorted({v.rule for v in violations})


# ----------------------------------------------------------------------
# Rule detection on fixtures
# ----------------------------------------------------------------------


def test_d001_bad_fixture_detected():
    violations = [v for v in lint_fixture("d001_bad.py") if v.rule == "D001"]
    # shuffle, randint, np.random.normal, Random(), default_rng(),
    # SystemRandom.
    assert len(violations) == 6
    lines = {v.line for v in violations}
    assert len(lines) == 6  # one per statement, none double-counted


def test_d001_good_fixture_clean():
    assert lint_fixture("d001_good.py") == []


def test_d002_bad_fixture_detected():
    violations = [v for v in lint_fixture("d002_bad.py") if v.rule == "D002"]
    # keys() loop, set-literal loop, set()-bound name loop, comprehension.
    assert len(violations) == 4


def test_d002_good_fixture_clean():
    assert lint_fixture("d002_good.py") == []


def test_d003_bad_fixture_detected():
    violations = [v for v in lint_fixture("d003_bad.py") if v.rule == "D003"]
    # float params ==, division result ==, float() != int().
    assert len(violations) == 3


def test_d003_good_fixture_clean():
    assert lint_fixture("d003_good.py") == []


def test_d004_bad_fixture_detected():
    violations = [v for v in lint_fixture("d004_bad.py") if v.rule == "D004"]
    # time.time, datetime.now, time.ctime.
    assert len(violations) == 3


def test_d004_good_fixture_clean():
    assert lint_fixture("d004_good.py") == []


def test_d005_bad_fixture_detected():
    violations = [v for v in lint_fixture("d005_bad.py") if v.rule == "D005"]
    # key=id, hash() in a lambda key, env-tainted tuple key, id-tainted
    # heappush item.
    assert len(violations) == 4
    messages = " | ".join(v.message for v in violations)
    assert "id" in messages
    assert "hash()" in messages
    assert "os.environ" in messages
    assert "heap" in messages


def test_d005_good_fixture_clean():
    # Includes the rebind case: an env-tainted name reassigned to a
    # constant before the sort must not be reported.
    assert lint_fixture("d005_good.py") == []


def test_c001_bad_fixture_detected():
    violations = [v for v in lint_fixture("c001_bad.py") if v.rule == "C001"]
    # self.count += 1, self.log.append, the unresolvable callbacks[0]
    # submission, and the Sink-capture write (shared list smuggled into
    # a locally constructed object).
    assert len(violations) == 4
    messages = " | ".join(v.message for v in violations)
    assert "self" in messages
    assert "cannot resolve" in messages


def test_c001_fresh_local_capture_detected():
    """The capture hole is closed: Collector.collect builds Sink(self.events)
    locally and pushes through it — that write must be attributed."""
    violations = [v for v in lint_fixture("c001_bad.py") if v.rule == "C001"]
    collect = [v for v in violations if "collect" in v.message]
    assert len(collect) == 1


def test_c001_good_fixture_clean():
    # c001_good includes a fresh Buffer([]) captured by a local helper —
    # a benign twin of the capture case that must stay clean.
    assert lint_fixture("c001_good.py") == []


def test_c001_out_of_scope_without_config():
    # With the default config the fixture is not a scheduler module, so
    # the race detector must not fire at all.
    config = LintConfig(exclude=())
    violations = run_lint(REPO_ROOT, [f"{FIXTURES}/c001_bad.py"], config)
    assert [v for v in violations if v.rule == "C001"] == []


def test_c002_bad_fixture_detected():
    config = replace(
        FIXTURE_CONFIG,
        pure_contracts=(
            "tests.lint_fixtures.c002_bad.Engine.evaluate(scratch)",
        ),
    )
    violations = [
        v for v in lint_fixture("c002_bad.py", config) if v.rule == "C002"
    ]
    # Direct self.history.append plus the transitive Meter(self.stats)
    # capture; the sanctioned scratch["cost"] write is not reported.
    assert len(violations) == 2
    messages = " | ".join(v.message for v in violations)
    assert "evaluate" in messages


def test_c002_good_fixture_clean():
    config = replace(
        FIXTURE_CONFIG,
        pure_contracts=(
            "tests.lint_fixtures.c002_good.Engine.evaluate(scratch)",
        ),
    )
    assert lint_fixture("c002_good.py", config) == []


def test_c002_unresolvable_contract_reported_in_home_module():
    # A contract that points into a scanned module but at a function
    # that does not exist is a stale config entry — fail loudly.
    config = replace(
        FIXTURE_CONFIG,
        pure_contracts=("tests.lint_fixtures.c002_bad.Engine.missing",),
    )
    violations = lint_fixture("c002_bad.py", config)
    assert codes(violations) == ["C002"]
    assert "does not resolve" in violations[0].message


def test_c002_stale_scratch_parameter_reported_at_def():
    # A scratch name the function does not take sanctions nothing, so
    # the entry is stale and must fail loudly at the contract's def.
    config = replace(
        FIXTURE_CONFIG,
        pure_contracts=(
            "tests.lint_fixtures.c002_good.Engine.evaluate(scratch, cache)",
        ),
    )
    violations = lint_fixture("c002_good.py", config)
    assert codes(violations) == ["C002"]
    assert len(violations) == 1
    assert "scratch parameter 'cache'" in violations[0].message
    source = (REPO_ROOT / FIXTURES / "c002_good.py").read_text()
    def_line = source.splitlines().index(
        "    def evaluate(self, candidate, scratch=None):"
    ) + 1
    assert violations[0].line == def_line


def test_c002_unresolvable_contract_quiet_outside_home_module():
    # The same stale entry must NOT fire when the contract's home
    # module is not part of the scan (fixture runs, partial scans).
    config = replace(
        FIXTURE_CONFIG,
        pure_contracts=("tests.lint_fixtures.c002_bad.Engine.missing",),
    )
    assert lint_fixture("d001_good.py", config) == []


M001_CONFIG = replace(
    FIXTURE_CONFIG,
    mutation_protected=("tests.lint_fixtures.m001_shared.Store",),
)


def test_m001_bad_fixture_detected():
    violations = run_lint(
        REPO_ROOT,
        [f"{FIXTURES}/m001_shared.py", f"{FIXTURES}/m001_bad.py"],
        M001_CONFIG,
    )
    m001 = [v for v in violations if v.rule == "M001"]
    # Typed subscript write, mutating call on internals, and the
    # private-attr fallback on an untyped receiver.
    assert len(m001) == 3
    assert all(v.path.endswith("m001_bad.py") for v in m001)
    assert violations == m001  # nothing else fires


def test_m001_good_fixture_clean():
    # Own `_entries` (base is self), store.add(...) through the API,
    # and reads of store.journal are all legal.
    violations = run_lint(
        REPO_ROOT,
        [f"{FIXTURES}/m001_shared.py", f"{FIXTURES}/m001_good.py"],
        M001_CONFIG,
    )
    assert violations == []


def test_m001_home_module_is_exempt():
    # The Store's own methods write its internals freely.
    assert lint_fixture("m001_shared.py", M001_CONFIG) == []


def test_a001_bad_fixture_detected():
    violations = [v for v in lint_fixture("a001_bad.py") if v.rule == "A001"]
    # np.argsort without kind, np.sort without kind, searchsorted
    # without side, ndarray .sort() without kind.
    assert len(violations) == 4
    assert {v.line for v in violations} == {7, 8, 9, 11}


def test_a001_good_fixture_clean():
    assert lint_fixture("a001_good.py") == []


def test_a002_bad_fixture_detected():
    violations = [v for v in lint_fixture("a002_bad.py") if v.rule == "A002"]
    # float32 + float64 add and subtract on flow-tracked arrays.
    assert len(violations) == 2
    assert {v.line for v in violations} == {9, 10}


def test_a002_good_fixture_clean():
    assert lint_fixture("a002_good.py") == []


def test_a003_bad_fixture_detected():
    violations = [v for v in lint_fixture("a003_bad.py") if v.rule == "A003"]
    # argmin over an axis reduction, sorted() keyed on it, and the
    # reduction value pushed into a heap item.
    assert len(violations) == 3
    assert {v.line for v in violations} == {10, 11, 13}


def test_a003_good_fixture_clean():
    # Integer/bool reductions are exact regardless of axis order and
    # must not taint the selection.
    assert lint_fixture("a003_good.py") == []


E001_CONFIG = replace(
    FIXTURE_CONFIG,
    mutation_protected=("tests.lint_fixtures.e001_bad.Occupancy",),
)


def test_e001_bad_fixture_detected():
    violations = [
        v for v in lint_fixture("e001_bad.py", E001_CONFIG)
        if v.rule == "E001"
    ]
    # Two direct trial-path mutations on shared occupancy plus the
    # call-site violation where run() passes its shared instance into
    # the mutating helper.
    assert len(violations) == 3
    assert {v.line for v in violations} == {32, 34, 48}


def test_e001_commit_atomicity_detected():
    config = replace(
        E001_CONFIG,
        mutation_commits=("tests.lint_fixtures.e001_bad.commit_moves",),
    )
    violations = [
        v for v in lint_fixture("e001_bad.py", config) if v.rule == "E001"
    ]
    # The declared commit function raises after its first mutation: one
    # extra atomicity finding on top of the three trial-path ones.
    assert len(violations) == 4
    atomicity = [v for v in violations if "exit exceptionally" in v.message]
    assert len(atomicity) == 1 and atomicity[0].line == 53


def test_e001_good_fixture_clean():
    config = replace(
        FIXTURE_CONFIG,
        mutation_protected=("tests.lint_fixtures.e001_good.Occupancy",),
    )
    # Fresh receivers, journaled mutation, try/finally restore, and a
    # fresh instance passed into the shared helper all stay silent.
    assert lint_fixture("e001_good.py", config) == []


def test_p001_bad_fixture_detected():
    violations = [v for v in lint_fixture("p001_bad.py") if v.rule == "P001"]
    # Non-tuple payload, missing string tag, set-comprehension element,
    # impure builder, and json.dumps without sort_keys.
    assert len(violations) == 5
    assert {v.line for v in violations} == {16, 17, 18, 19, 20}


def test_p001_good_fixture_clean():
    assert lint_fixture("p001_good.py") == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------


def test_suppression_comments_silence_violations():
    assert lint_fixture("suppressed.py") == []


def test_suppression_parser():
    text = (
        "# repro-lint: disable=D001,D004\n"
        "x = 1  # repro-lint: disable-line=D003\n"
    )
    suppressions = parse_suppressions(text)
    assert suppressions.file_rules == frozenset({"D001", "D004"})
    assert suppressions.is_suppressed("D003", 2)
    assert not suppressions.is_suppressed("D003", 1)
    assert suppressions.is_suppressed("D001", 99)


def test_tree_carries_zero_suppressions():
    """The acceptance bar is a clean tree, not a silenced one: outside
    the lint fixtures, this file, and the suppression parser itself
    (all of which quote the marker), no source file may carry one."""
    marker = "repro-lint: " + "disable"  # split so we don't match ourselves
    exempt = {"tests/test_repro_lint.py", "tools/repro_lint/suppress.py"}
    offenders = []
    for target in ("src", "tests", "benchmarks", "tools"):
        for path in sorted((REPO_ROOT / target).rglob("*.py")):
            rel = path.relative_to(REPO_ROOT).as_posix()
            if rel.startswith(FIXTURES) or rel in exempt:
                continue
            if marker in path.read_text(encoding="utf-8"):
                offenders.append(rel)
    assert offenders == []


# ----------------------------------------------------------------------
# The real tree lints clean
# ----------------------------------------------------------------------


def test_source_tree_lints_clean():
    config = load_config(REPO_ROOT)
    violations = run_lint(
        REPO_ROOT, ["src", "tests", "benchmarks", "tools"], config
    )
    assert violations == [], "\n".join(v.render() for v in violations)


def test_fixture_directory_excluded_by_default():
    config = load_config(REPO_ROOT)
    violations = run_lint(REPO_ROOT, [FIXTURES], config)
    assert violations == []


# ----------------------------------------------------------------------
# Output formats
# ----------------------------------------------------------------------


def test_sarif_shape():
    violations = [
        Violation("src/x.py", 3, 4, "D001", "unseeded randomness"),
        Violation("src/y.py", 1, 0, "E999", "syntax error: bad"),
    ]
    doc = json.loads(render_sarif(violations, all_rules()))
    assert doc["version"] == "2.1.0"
    assert "sarif" in doc["$schema"]
    run = doc["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    rule_ids = [rule["id"] for rule in driver["rules"]]
    assert "D001" in rule_ids and "E999" in rule_ids
    results = run["results"]
    assert len(results) == 2
    first = results[0]
    assert first["ruleId"] == "D001"
    assert rule_ids[first["ruleIndex"]] == "D001"
    location = first["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/x.py"
    assert location["region"]["startLine"] == 3
    assert location["region"]["startColumn"] == 5  # 0-based col 4 -> 1-based


def test_sarif_empty_run_is_valid():
    doc = json.loads(render_sarif([], all_rules()))
    assert doc["runs"][0]["results"] == []


def test_cli_json_format(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nrandom.shuffle([1, 2])\n")
    out_file = tmp_path / "findings.json"
    code = lint_main(
        ["--root", str(tmp_path), "bad.py",
         "--format", "json", "--output", str(out_file)]
    )
    capsys.readouterr()
    assert code == 1
    doc = json.loads(out_file.read_text())
    assert doc["tool"] == "repro-lint"
    assert [v["rule"] for v in doc["violations"]] == ["D001"]
    assert doc["stats"]["per_rule"] == {"D001": 1}
    assert doc["stats"]["files_total"] == 1


def test_cli_sarif_output_file(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nrandom.shuffle([1, 2])\n")
    out_file = tmp_path / "lint.sarif"
    code = lint_main(
        ["--root", str(tmp_path), "bad.py",
         "--format", "sarif", "--output", str(out_file)]
    )
    capsys.readouterr()
    assert code == 1
    doc = json.loads(out_file.read_text())
    assert doc["runs"][0]["results"][0]["ruleId"] == "D001"


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------


def test_baseline_round_trip(tmp_path):
    old = Violation("src/x.py", 3, 4, "D001", "unseeded randomness")
    path = tmp_path / "baseline.json"
    write_baseline(path, [old])
    known = load_baseline(path)

    # The recorded finding is absorbed even when it moved lines.
    moved = Violation("src/x.py", 30, 0, "D001", "unseeded randomness")
    new, fixed = apply_baseline([moved], known)
    assert new == [] and fixed == 0

    # A genuinely new finding surfaces; a fixed one is counted.
    fresh = Violation("src/y.py", 1, 0, "D004", "wall clock")
    new, fixed = apply_baseline([fresh], known)
    assert new == [fresh] and fixed == 1

    # A second occurrence of the same message is new, not absorbed.
    new, fixed = apply_baseline([moved, moved], known)
    assert len(new) == 1 and fixed == 0


def test_baseline_malformed_raises(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text("{\"version\": 99}")
    with pytest.raises(ValueError):
        load_baseline(path)


def test_cli_baseline_flow(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nrandom.shuffle([1, 2])\n")
    baseline = tmp_path / "baseline.json"

    # Capture: exits 0 even though the tree has findings.
    assert lint_main(
        ["--root", str(tmp_path), "bad.py",
         "--write-baseline", str(baseline)]
    ) == 0
    capsys.readouterr()

    # Compare: the recorded finding no longer fails the run.
    assert lint_main(
        ["--root", str(tmp_path), "bad.py", "--baseline", str(baseline)]
    ) == 0
    capsys.readouterr()

    # A new finding fails the run and is the only one printed.
    bad.write_text(
        "import random\nrandom.shuffle([1, 2])\nrandom.randint(0, 9)\n"
    )
    assert lint_main(
        ["--root", str(tmp_path), "bad.py", "--baseline", str(baseline)]
    ) == 1
    out = capsys.readouterr().out
    assert "randint" in out
    assert "shuffle" not in out


def test_cli_bad_baseline_exits_2(tmp_path, capsys):
    good = tmp_path / "ok.py"
    good.write_text("x = 1\n")
    broken = tmp_path / "baseline.json"
    broken.write_text("not json")
    assert lint_main(
        ["--root", str(tmp_path), "ok.py", "--baseline", str(broken)]
    ) == 2
    capsys.readouterr()


# ----------------------------------------------------------------------
# Incremental cache
# ----------------------------------------------------------------------


def _write_cross_module_tree(root, helper_body):
    (root / "liba.py").write_text(
        "from libb import helper\n"
        "\n"
        "\n"
        "def entry(items):\n"
        "    return [helper(item) for item in items]\n"
    )
    (root / "libb.py").write_text(helper_body)
    (root / "libc.py").write_text("UNRELATED = 1\n")


_CACHE_CONFIG = LintConfig(
    exclude=(),
    ordering_sensitive=(),
    float_sensitive=(),
    algorithm_modules=(),
    scheduler_modules=(),
    pure_contracts=("liba.entry",),
    mutation_protected=(),
)

_PURE_HELPER = "def helper(item):\n    return item * 2\n"
_IMPURE_HELPER = (
    "SEEN = []\n"
    "\n"
    "\n"
    "def helper(item):\n"
    "    SEEN.append(item)\n"
    "    return item * 2\n"
)


def test_cache_cold_then_warm_identical(tmp_path):
    _write_cross_module_tree(tmp_path, _PURE_HELPER)
    cache = tmp_path / "cache.json"

    cold = lint(tmp_path, ["."], _CACHE_CONFIG, cache_path=cache)
    assert cold.stats.cache_mode == "cold"
    assert cold.stats.files_replayed == 0
    assert cold.violations == []

    warm = lint(tmp_path, ["."], _CACHE_CONFIG, cache_path=cache)
    assert warm.stats.cache_mode == "warm"
    assert warm.stats.files_replayed == warm.stats.files_total == 3
    assert warm.violations == cold.violations


def test_cache_content_change_invalidates(tmp_path):
    _write_cross_module_tree(tmp_path, _PURE_HELPER)
    cache = tmp_path / "cache.json"
    lint(tmp_path, ["."], _CACHE_CONFIG, cache_path=cache)

    # Introduce a violation directly in the edited file.
    (tmp_path / "libc.py").write_text(
        "import random\n\nVALUE = random.randint(0, 9)\n"
    )
    config = replace(_CACHE_CONFIG, algorithm_modules=("libc.py",))
    result = lint(tmp_path, ["."], config, cache_path=cache)
    # The config change invalidates everything (digest mismatch) — the
    # point here is that stale findings never replay.
    assert [v.rule for v in result.violations] == ["D001"]

    # Now fix it again with the SAME config: only libc re-runs.
    (tmp_path / "libc.py").write_text("UNRELATED = 2\n")
    result = lint(tmp_path, ["."], config, cache_path=cache)
    assert result.violations == []
    assert result.stats.cache_mode == "partial"
    assert result.stats.files_replayed == 2  # liba + libb replayed


def test_cache_cross_module_dependency_invalidates(tmp_path):
    """Editing ONLY the callee must re-check the caller's contract."""
    _write_cross_module_tree(tmp_path, _PURE_HELPER)
    cache = tmp_path / "cache.json"
    cold = lint(tmp_path, ["."], _CACHE_CONFIG, cache_path=cache)
    assert cold.violations == []

    (tmp_path / "libb.py").write_text(_IMPURE_HELPER)
    result = lint(tmp_path, ["."], _CACHE_CONFIG, cache_path=cache)
    c002 = [v for v in result.violations if v.rule == "C002"]
    assert len(c002) == 1
    # The finding is anchored in the UNCHANGED caller file: its cached
    # entry was invalidated through the call-graph dependency digest.
    assert c002[0].path == "liba.py"
    # The file with no edge to the edited module replayed from cache.
    assert result.stats.cache_mode == "partial"
    assert result.stats.files_replayed >= 1


def test_cache_corrupt_file_is_ignored(tmp_path):
    _write_cross_module_tree(tmp_path, _PURE_HELPER)
    cache = tmp_path / "cache.json"
    cache.write_text("{ this is not json")
    result = lint(tmp_path, ["."], _CACHE_CONFIG, cache_path=cache)
    assert result.stats.cache_mode == "cold"
    assert result.violations == []
    # And the bad file was overwritten with a usable cache.
    warm = lint(tmp_path, ["."], _CACHE_CONFIG, cache_path=cache)
    assert warm.stats.cache_mode == "warm"


def test_cache_family_granular_invalidation(tmp_path):
    """Changing only one family's config fields re-runs just that
    family; everything else replays from the cached entries."""
    _write_cross_module_tree(tmp_path, _PURE_HELPER)
    cache = tmp_path / "cache.json"
    lint(tmp_path, ["."], _CACHE_CONFIG, cache_path=cache)

    # trial-modules belongs to the E family alone.
    config = replace(_CACHE_CONFIG, trial_modules=("libb.py",))
    result = lint(tmp_path, ["."], config, cache_path=cache)
    assert result.stats.cache_mode == "partial"
    assert result.stats.families_rerun == ["E"]
    assert result.stats.files_replayed == 3
    # Identical findings to a cacheless run under the new config.
    assert result.violations == run_lint(tmp_path, ["."], config)


def test_cache_family_replay_carries_other_families_findings(tmp_path):
    """A cached D-finding must survive an E-family-only config change —
    replayed, not recomputed, and never dropped."""
    _write_cross_module_tree(tmp_path, _PURE_HELPER)
    (tmp_path / "libc.py").write_text(
        "import random\n\nVALUE = random.randint(0, 9)\n"
    )
    base = replace(_CACHE_CONFIG, algorithm_modules=("libc.py",))
    cache = tmp_path / "cache.json"
    cold = lint(tmp_path, ["."], base, cache_path=cache)
    assert [v.rule for v in cold.violations] == ["D001"]

    config = replace(base, trial_modules=("libb.py",))
    result = lint(tmp_path, ["."], config, cache_path=cache)
    assert result.stats.families_rerun == ["E"]
    assert result.violations == cold.violations


def test_cache_base_field_change_disables_family_replay(tmp_path):
    """``exclude`` is shared by every rule: changing it must degrade to
    a full re-run, not a family-granular one."""
    _write_cross_module_tree(tmp_path, _PURE_HELPER)
    cache = tmp_path / "cache.json"
    lint(tmp_path, ["."], _CACHE_CONFIG, cache_path=cache)

    config = replace(_CACHE_CONFIG, exclude=("nothing_matches/",))
    result = lint(tmp_path, ["."], config, cache_path=cache)
    assert result.stats.families_rerun == []
    assert result.stats.files_replayed == 0


def test_family_rerun_beats_half_of_cold_on_real_tree(tmp_path):
    """Acceptance criterion: a config edit touching one family's fields
    re-lints the full tree in under half the cold wall time, with
    findings identical to a cold run under the changed config."""
    config = load_config(REPO_ROOT)
    cache = tmp_path / "cache.json"
    targets = ["src", "tests", "benchmarks", "tools"]
    cold = lint(REPO_ROOT, targets, config, cache_path=cache)

    changed = replace(
        config, trial_modules=config.trial_modules + ("src/repro/gp/",)
    )
    partial = lint(REPO_ROOT, targets, changed, cache_path=cache)
    assert partial.stats.cache_mode == "partial"
    assert partial.stats.families_rerun == ["E"]
    assert partial.stats.wall_seconds < 0.5 * cold.stats.wall_seconds
    assert partial.violations == cold.violations == []


def test_warm_cache_halves_full_tree_wall_time(tmp_path):
    """Acceptance criterion: warm rerun < half the cold wall time, with
    identical findings."""
    config = load_config(REPO_ROOT)
    cache = tmp_path / "cache.json"
    targets = ["src", "tests", "benchmarks", "tools"]
    cold = lint(REPO_ROOT, targets, config, cache_path=cache)
    warm = lint(REPO_ROOT, targets, config, cache_path=cache)
    assert warm.violations == cold.violations
    assert warm.stats.cache_mode == "warm"
    assert warm.stats.wall_seconds < 0.5 * cold.stats.wall_seconds


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_exit_codes(capsys):
    assert lint_main(["--root", str(REPO_ROOT), "src"]) == 0
    capsys.readouterr()
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in (
        "D001", "D002", "D003", "D004", "D005", "C001", "C002", "M001",
        "A001", "A002", "A003", "E001", "P001",
    ):
        assert code in out
    assert len(all_rules()) == 13


def test_cli_internal_error_exits_2(tmp_path, capsys, monkeypatch):
    """An analyzer crash is exit 2, never 0 (clean) or 1 (findings)."""
    import tools.repro_lint.cli as cli_module

    def boom(*args, **kwargs):
        raise RuntimeError("dataflow engine exploded")

    monkeypatch.setattr(cli_module, "lint", boom)
    good = tmp_path / "ok.py"
    good.write_text("x = 1\n")
    assert lint_main(["--root", str(tmp_path), "ok.py"]) == 2
    err = capsys.readouterr().err
    assert "internal analyzer error" in err
    assert "dataflow engine exploded" in err


def test_cli_nonzero_on_violation(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nrandom.shuffle([1, 2])\n")
    assert lint_main(["--root", str(tmp_path), "bad.py"]) == 1
    out = capsys.readouterr().out
    assert "D001" in out


def test_cli_missing_target_exits_2(tmp_path, capsys):
    assert lint_main(["--root", str(tmp_path), "no_such_dir"]) == 2
    capsys.readouterr()


def test_cli_stats_flag(tmp_path, capsys):
    good = tmp_path / "ok.py"
    good.write_text("x = 1\n")
    assert lint_main(["--root", str(tmp_path), "ok.py", "--stats"]) == 0
    err = capsys.readouterr().err
    assert "1 file(s)" in err
    assert "findings:" in err


def test_cli_cache_flag_round_trip(tmp_path, capsys):
    good = tmp_path / "ok.py"
    good.write_text("x = 1\n")
    for _ in range(2):
        assert lint_main(
            ["--root", str(tmp_path), "ok.py", "--cache", "--stats"]
        ) == 0
    err = capsys.readouterr().err
    assert (tmp_path / ".repro-lint-cache.json").exists()
    assert "(warm)" in err


def test_syntax_error_reported_not_crashing(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n")
    assert lint_main(["--root", str(tmp_path), "broken.py"]) == 1
    out = capsys.readouterr().out
    assert "E999" in out


# ----------------------------------------------------------------------
# Regression: the refactors the rules forced
# ----------------------------------------------------------------------


def test_guard_caches_are_thread_local():
    """C002 forced the routability guard's memo caches onto
    threading.local; keep them there."""
    refine = (REPO_ROOT / "src/repro/core/refine.py").read_text()
    assert "threading.local" in refine


def test_design_segments_built_eagerly():
    """The segments cache is built in __init__ / on mutation, never
    lazily from a reader (readers run inside pure evaluations, C002)."""
    design = (REPO_ROOT / "src/repro/model/design.py").read_text()
    assert "_rebuild_segments" in design
