"""The documentation set stays truthful: links resolve, files exist.

The same checker runs in the CI docs job; having it in tier-1 means a
renamed module or deleted doc fails fast, locally.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def test_required_docs_exist():
    for name in (
        "README.md",
        "docs/architecture.md",
        "docs/sharding.md",
        "docs/concurrency.md",
        "docs/paper-map.md",
    ):
        assert (ROOT / name).is_file(), f"missing {name}"


def test_markdown_links_resolve():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_docs.py")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_readme_names_only_real_files():
    """Every repo-relative path the README cites in backticks exists."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    cited = re.findall(
        r"`((?:examples|benchmarks|bench_results|docs|src)/[\w./-]+?)`", text
    )
    assert cited, "README stopped citing any repo paths?"
    for path in cited:
        assert (ROOT / path).exists(), f"README cites missing {path}"


def test_paper_map_names_only_real_files():
    """Module/benchmark paths in the paper map's tables exist."""
    text = (ROOT / "docs" / "paper-map.md").read_text(encoding="utf-8")
    cited = re.findall(
        r"`((?:src|tests|benchmarks|bench_results)/[\w./-]+?)`", text
    )
    assert cited
    for path in cited:
        assert (ROOT / path).exists(), f"paper-map cites missing {path}"


def test_docs_and_docstrings_cite_only_real_benchmark_files():
    """Every backticked ``benchmarks/…`` or ``bench_results/…`` path in
    ``docs/*.md`` and under ``src/`` (docstrings double the backticks)
    exists: a deleted bench or result file takes its citations with it."""
    files = sorted((ROOT / "docs").glob("*.md")) + sorted((ROOT / "src").rglob("*.py"))
    pattern = re.compile(r"`((?:benchmarks|bench_results)/[\w./-]+?)`")
    cited = [(f, t) for f in files for t in pattern.findall(f.read_text(encoding="utf-8"))]
    assert cited
    missing = [f"{f.relative_to(ROOT)}: {t}" for f, t in cited if not (ROOT / t).exists()]
    assert not missing, missing


def test_source_cites_only_real_markdown_files():
    """Every ``*.md`` name in a file under ``src/`` exists, relative to the
    repository root: a docstring cannot point at a document never written."""
    pattern = re.compile(r"[\w./-]+\.md\b")
    files = sorted((ROOT / "src").rglob("*.py"))
    cited = [(f, n) for f in files for n in pattern.findall(f.read_text(encoding="utf-8"))]
    assert cited
    missing = [f"{f.relative_to(ROOT)}: {n}" for f, n in cited if not (ROOT / n).is_file()]
    assert not missing, missing


def test_substitutions_cite_their_definitions():
    """docs/paper-map.md, "Substitutions": each ``file:line`` (``name``)
    lands on the line that defines ``name``."""
    text = (ROOT / "docs" / "paper-map.md").read_text(encoding="utf-8")
    section = text.split("\n## Substitutions\n", 1)[1].split("\n## ", 1)[0]
    cited = re.findall(r"`(src/[\w./]+\.py):(\d+)` \(`(\w+)`\)", section)
    assert len(cited) >= 6
    for path, line, name in cited:
        source = (ROOT / path).read_text(encoding="utf-8").splitlines()[int(line) - 1]
        assert re.match(rf"\s*(def |class )?{name}\b", source), f"{path}:{line} is not {name}"


def test_recovery_cites_its_definitions():
    """docs/recovery.md, "Restart decision tree": each ``file:line`` with
    the name it cites (in parentheses, or after a comma) lands on the
    line that defines that name."""
    text = (ROOT / "docs" / "recovery.md").read_text(encoding="utf-8")
    cited = re.findall(r"`(src/[\w./]+\.py):(\d+)`(?:\s*\(|, )`(\w+)`", text)
    assert len(cited) >= 7
    for path, line, name in cited:
        source = (ROOT / path).read_text(encoding="utf-8").splitlines()[int(line) - 1]
        assert re.match(rf"\s*(def |class )?{name}\b", source), f"{path}:{line} is not {name}"


def test_ci_states_each_dependency_once():
    """``src/repro`` imports numpy unconditionally, so every CI job that
    runs project code installs ``requirements-dev.txt`` — and none names
    one of its packages on a ``pip install`` line of its own."""
    packages = [
        line.strip()
        for line in (ROOT / "requirements-dev.txt").read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    assert "numpy" in packages
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    body = workflow.split("\njobs:\n", 1)[1]
    jobs = [job for job in re.split(r"(?m)^  (?=[\w-]+:\n)", body) if job]
    assert len(jobs) > 5
    for job in jobs:
        name = job.split(":", 1)[0]
        if name != "lint":  # ruff only; never imports the package
            assert "pip install -r requirements-dev.txt" in job, name
        for line in job.splitlines():
            if "pip install" in line and "-r " not in line:
                assert not set(line.split()) & set(packages), f"{name}: {line.strip()}"


def test_configuration_table_lists_exactly_the_config_fields():
    """docs/architecture.md, "Configuration": one row per ``EngineConfig``
    field, in order, with the durable ones marked durable."""
    import dataclasses

    from repro.config import DURABLE, EngineConfig

    text = (ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"(?m)^\| `(\w+)` \|[^|]*\| ([^|]+?) \|", section)
    assert [name for name, _kind in rows] == [f.name for f in dataclasses.fields(EngineConfig)]
    assert tuple(name for name, kind in rows if "durable" in kind) == DURABLE


def test_restart_decision_tree_names_exactly_the_plan_enums():
    """docs/recovery.md, "Restart decision tree": its leaves are exactly the
    ``FallbackReason`` / ``RepairReason`` members, and each ``file:line``
    (``name``) it cites lands on that definition."""
    from repro.core.restart_plan import FallbackReason, RepairReason

    text = (ROOT / "docs" / "recovery.md").read_text(encoding="utf-8")
    section = text.split("\n## Restart decision tree\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"\b((?:Fallback|Repair)Reason\.\w+)", section))
    assert named == {str(member) for enum in (FallbackReason, RepairReason) for member in enum}
    cited = re.findall(r"`(src/[\w./]+\.py):(\d+)`[\s,(]+`(\w+)`", section)
    assert len(cited) >= 5
    for path, line, name in cited:
        source = (ROOT / path).read_text(encoding="utf-8").splitlines()[int(line) - 1]
        assert re.match(rf"(def|class) {name}\b", source), f"{path}:{line} is not {name}"


def test_fsck_decision_table_names_exactly_the_recorded_actions():
    """docs/integrity.md, "fsck: scan, diagnose, repair": the actions its
    decision table names are exactly the ones ``PageFault.action``'s
    comment in ``fsck.py`` lists, and every string literal ``fsck.py``
    passes as a ``PageFault``'s action is one of them, so the table stays
    the one statement of the decision tree."""
    source = (ROOT / "src" / "repro" / "core" / "fsck.py").read_text(encoding="utf-8")
    comment = re.search(r"\n    action: str  #:(.*\n(?:    #:.*\n)*)", source)
    documented = set(re.findall(r"\w+", comment.group(1)))
    literals = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "PageFault":
            action = node.args[4] if len(node.args) > 4 else next(
                keyword.value for keyword in node.keywords if keyword.arg == "action"
            )
            literals.update(
                leaf.value for leaf in ast.walk(action) if isinstance(leaf, ast.Constant)
            )
    text = (ROOT / "docs" / "integrity.md").read_text(encoding="utf-8")
    section = text.split("\n## fsck: scan, diagnose, repair\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?m)^\|[^|\n]*\|[^|\n]*\| `(\w+)`", section))
    assert len(literals) >= 5 and literals <= documented
    assert named == documented
