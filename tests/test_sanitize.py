"""Tests for the runtime determinism sanitizer (``repro-lint sanitize``).

The cheap paths (matrix comparison, exit codes, canary gating) are
unit-tested in-process with a faked child spawner; the perturbation
shims run in real subprocesses so they cannot leak patched builtins or
numpy globals into the test session; one end-to-end CLI run covers the
full child protocol on a reduced corpus.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

import tools.repro_lint.sanitize as sanitize  # noqa: E402
from tools.repro_lint.sanitize import (  # noqa: E402
    CASE_NAMES,
    POOLED_CASES,
    CaseResult,
    ChildReport,
    run_corpus,
    sanitize_main,
    tripwire_canary,
)


def _subprocess_env():
    env = dict(os.environ)
    extra = f"{REPO_ROOT}{os.pathsep}{REPO_ROOT / 'src'}"
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{extra}{os.pathsep}{existing}" if existing else extra
    )
    return env


# ----------------------------------------------------------------------
# Perturbation shims
# ----------------------------------------------------------------------


def test_tripwire_canary_is_silent_without_the_patch():
    # In an unpatched interpreter the injection counter cannot move, so
    # the canary must NOT fire — otherwise it proves nothing.
    assert tripwire_canary() is False


def test_tripwire_canary_fires_in_patched_subprocess():
    script = (
        "from tools.repro_lint.sanitize import (install_perturbation, "
        "tripwire_canary)\n"
        "install_perturbation('tripwire', 1)\n"
        "print('fired' if tripwire_canary() else 'dead')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=_subprocess_env(),
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "fired"


def test_tripwire_respects_explicit_kind():
    script = (
        "import numpy as np\n"
        "from tools.repro_lint.sanitize import install_perturbation\n"
        "install_perturbation('tripwire', 1)\n"
        "keys = (np.arange(64) % 4).astype(float)\n"
        "pinned = np.argsort(keys, kind='stable')\n"
        "real = sorted(range(64), key=lambda i: (keys[i], i))\n"
        "print('ok' if list(pinned) == real else 'broken')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=_subprocess_env(),
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_crash_stub_reaches_both_pool_users_in_patched_subprocess():
    # The crash leg proves nothing unless the stub replaces the entry
    # points the pool really spawns: every pooled case must lose both
    # of its workers (scheduler windows and shard interiors alike).
    script = (
        "from tools.repro_lint.sanitize import (POOLED_CASES, "
        "install_perturbation, run_corpus)\n"
        "install_perturbation('crash', 1)\n"
        "results = run_corpus(cases=list(POOLED_CASES))\n"
        "print(sorted((n, r.worker_failures) for n, r in results.items()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=_subprocess_env(),
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(POOLED_CASES) == ["sharded", "workers"]
    assert proc.stdout.strip() == "[('sharded', 2), ('workers', 2)]"


def _shuffle_order(salt):
    script = (
        "import sys\n"
        "from tools.repro_lint.sanitize import install_perturbation\n"
        f"install_perturbation('shuffle', {salt})\n"
        "s = set(range(32))\n"
        "print(','.join(str(x) for x in s))\n"
        "print(len(s), 5 in s, sorted(s) == list(range(32)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=_subprocess_env(),
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    order_line, semantics_line = proc.stdout.strip().splitlines()
    assert semantics_line == "32 True True"  # the shim only reorders
    return [int(x) for x in order_line.split(",")]


def test_shuffled_set_shim_perturbs_iteration_per_salt():
    one = _shuffle_order(1)
    two = _shuffle_order(2)
    assert sorted(one) == sorted(two) == list(range(32))
    assert one != list(range(32)) or two != list(range(32))
    assert one != two  # different salts, different poison


# ----------------------------------------------------------------------
# Matrix comparison / exit codes (faked children, no subprocesses)
# ----------------------------------------------------------------------


def _base_results(perturb="none"):
    # Under the crash stub every pooled case loses its two workers.
    return {
        name: CaseResult(
            placement=f"p-{name}", trace=f"t-{name}",
            worker_failures=(
                2 if perturb == "crash" and name in POOLED_CASES else 0
            ),
        )
        for name in CASE_NAMES
    }


def _patch_harness(monkeypatch, spawn):
    monkeypatch.setattr(sanitize, "ensure_corpus", lambda *a, **k: None)
    monkeypatch.setattr(sanitize, "_spawn_child", spawn)


def test_sanitize_green_matrix_exits_0(monkeypatch, capsys):
    def spawn(root, perturb, salt, hashseed, cases, corpus_dir):
        return ChildReport(
            results=_base_results(perturb),
            canary_fired=True if perturb == "tripwire" else None,
        )

    _patch_harness(monkeypatch, spawn)
    assert sanitize_main(["--seeds", "2"]) == 0
    out = capsys.readouterr()
    assert "8 perturbed run(s) matched" in out.err
    assert "| 2 | crash |" in out.out  # matrix rendered to stdout


def test_sanitize_divergence_exits_1(monkeypatch, capsys):
    def spawn(root, perturb, salt, hashseed, cases, corpus_dir):
        results = _base_results(perturb)
        if perturb == "shuffle":
            results["workers"] = CaseResult(placement="DIFF", trace="DIFF")
        return ChildReport(
            results=results,
            canary_fired=True if perturb == "tripwire" else None,
        )

    _patch_harness(monkeypatch, spawn)
    assert sanitize_main(["--seeds", "1"]) == 1
    err = capsys.readouterr().err
    assert "divergence under shuffle" in err
    assert "workers" in err


def test_sanitize_dead_canary_exits_2(monkeypatch, capsys):
    # A tripwire leg whose canary never fired proves nothing: that is
    # an internal error even though every hash "matched".
    def spawn(root, perturb, salt, hashseed, cases, corpus_dir):
        return ChildReport(
            results=_base_results(perturb),
            canary_fired=False if perturb == "tripwire" else None,
        )

    _patch_harness(monkeypatch, spawn)
    assert sanitize_main(["--seeds", "1"]) == 2
    assert "canary did not fire" in capsys.readouterr().err


def test_sanitize_crash_that_missed_the_pool_exits_2(monkeypatch, capsys):
    # A crash leg whose pooled cases lost no worker never reached the
    # pool: an internal error, even though every hash "matched".
    def spawn(root, perturb, salt, hashseed, cases, corpus_dir):
        results = _base_results(perturb)
        results["sharded"].worker_failures = 0
        return ChildReport(
            results=results,
            canary_fired=True if perturb == "tripwire" else None,
        )

    _patch_harness(monkeypatch, spawn)
    assert sanitize_main(["--seeds", "1"]) == 2
    assert "crash stub reached no worker of sharded" in (
        capsys.readouterr().err
    )


def test_sanitize_baseline_failure_exits_2(monkeypatch, capsys):
    def spawn(root, perturb, salt, hashseed, cases, corpus_dir):
        return ChildReport(results={}, error="child exited 1: boom")

    _patch_harness(monkeypatch, spawn)
    assert sanitize_main(["--seeds", "1"]) == 2
    assert "baseline run failed" in capsys.readouterr().err


def test_sanitize_crashed_child_exits_2(monkeypatch, capsys):
    def spawn(root, perturb, salt, hashseed, cases, corpus_dir):
        if perturb == "crash":
            return ChildReport(results={}, error="child exited 134: SIGABRT")
        return ChildReport(
            results=_base_results(perturb),
            canary_fired=True if perturb == "tripwire" else None,
        )

    _patch_harness(monkeypatch, spawn)
    assert sanitize_main(["--seeds", "1"]) == 2
    assert "internal error" in capsys.readouterr().err


def test_sanitize_rejects_zero_seeds(capsys):
    assert sanitize_main(["--seeds", "0"]) == 2
    assert "--seeds" in capsys.readouterr().err


def test_sanitize_summary_file(monkeypatch, tmp_path, capsys):
    def spawn(root, perturb, salt, hashseed, cases, corpus_dir):
        return ChildReport(
            results=_base_results(perturb),
            canary_fired=True if perturb == "tripwire" else None,
        )

    _patch_harness(monkeypatch, spawn)
    summary = tmp_path / "matrix.md"
    assert sanitize_main(
        ["--seeds", "1", "--summary", str(summary)]
    ) == 0
    capsys.readouterr()
    text = summary.read_text(encoding="utf-8")
    assert "## Determinism sanitizer" in text
    for perturb in ("hashseed", "shuffle", "tripwire", "crash"):
        assert f"| 1 | {perturb} |" in text
    assert "DIVERGED" not in text


# ----------------------------------------------------------------------
# End-to-end on a reduced corpus
# ----------------------------------------------------------------------


def test_sanitize_cli_end_to_end(tmp_path):
    summary = tmp_path / "summary.md"
    proc = subprocess.run(
        [
            sys.executable, "-m", "tools.repro_lint", "sanitize",
            "--root", str(REPO_ROOT), "--seeds", "1",
            "--cases", "serial_fence",
            "--perturbations", "tripwire", "shuffle",
            "--corpus-dir", str(tmp_path / "corpus"),
            "--summary", str(summary),
        ],
        env=_subprocess_env(), cwd=REPO_ROOT,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    text = summary.read_text(encoding="utf-8")
    assert "| 1 | tripwire | match | ok |" in text
    assert "| 1 | shuffle | match | ok |" in text
    # The corpus cache was materialized for reuse.
    assert list((tmp_path / "corpus").glob("*.pkl"))


# ----------------------------------------------------------------------
# Harness neutrality
# ----------------------------------------------------------------------


def test_run_corpus_is_deterministic(tmp_path):
    once = run_corpus(cases=["serial_fence"], corpus_dir=tmp_path)
    twice = run_corpus(cases=["serial_fence"], corpus_dir=tmp_path)
    assert once == twice
    assert set(once) == {"serial_fence"}


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(1, 10_000), ncells=st.integers(20, 40))
def test_harness_is_placement_neutral_unperturbed(seed, ncells):
    """Attaching the sanitizer's tracer harness must not change the
    placement: hash-of-harness-run == hash-of-direct-run, always."""
    from repro.benchgen import SyntheticSpec, generate_design
    from repro.core.legalizer import legalize
    from repro.core.params import LegalizerParams
    from repro.obs.manifest import placement_digest
    from repro.obs.tracer import SpanTracer

    spec = SyntheticSpec(
        name=f"neutral-{seed}", cells_by_height={1: ncells},
        density=0.5, seed=seed,
    )
    params = LegalizerParams(
        routability=False, scheduler_capacity=1,
        use_matching=False, use_flow_opt=False,
    )
    harness = legalize(generate_design(spec), params, tracer=SpanTracer())
    direct = legalize(generate_design(spec), params)
    assert placement_digest(harness.placement) == placement_digest(
        direct.placement
    )
