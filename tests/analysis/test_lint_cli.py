"""CLI contract: exit codes, seeded-violation gate."""

import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
CLI = REPO_ROOT / "scripts" / "lint_invariants.py"
FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, str(CLI), *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )


def test_clean_tree_exits_zero(tmp_path):
    (tmp_path / "ok.py").write_text("def f():\n    return 1\n")
    proc = run_cli(tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_seeded_violation_tree_exits_one(tmp_path):
    """The CI gate demonstration: a bad fixture planted in a tree fails it."""
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "ok.py").write_text("def f():\n    return 1\n")
    shutil.copy(FIXTURES / "checksum_bypass" / "bad.py", tree / "seeded.py")
    proc = run_cli(tree)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "checksum-bypass" in proc.stdout


def test_missing_path_exits_two(tmp_path):
    proc = run_cli(tmp_path / "does-not-exist")
    assert proc.returncode == 2
    assert "no such path" in proc.stderr


def test_unknown_rule_exits_two(tmp_path):
    (tmp_path / "ok.py").write_text("x = 1\n")
    proc = run_cli(tmp_path, "--rule", "no-such-rule")
    assert proc.returncode == 2
    assert "unknown rule" in proc.stderr


def test_list_rules():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    listed = {line.split(":")[0] for line in proc.stdout.strip().splitlines()}
    assert listed == {
        "single-writer",
        "phase-discipline",
        "resource-lifecycle",
        "pin-discipline",
        "lock-order",
        "bare-except",
        "checksum-bypass",
        "journal-flush-before-ack",
    }


def test_a_path_with_no_python_files_exits_two(tmp_path):
    """A mis-pointed gate must not pass vacuously."""
    (tmp_path / "README.md").write_text("# not code\n")
    for path in (tmp_path, tmp_path / "README.md"):
        proc = run_cli(path)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert f"no Python files under {path}" in proc.stderr


def test_single_rule_filter(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    shutil.copy(FIXTURES / "checksum_bypass" / "bad.py", tree / "a.py")
    shutil.copy(FIXTURES / "pin_discipline" / "bad.py", tree / "b.py")
    proc = run_cli(tree, "--rule", "pin-discipline")
    assert proc.returncode == 1
    assert "pin-discipline" in proc.stdout
    assert "checksum-bypass" not in proc.stdout
