"""Engine behaviour: parse errors fail the run, a clean tree passes."""

from pathlib import Path

from invariants import analyze


def write(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return path


def test_unparseable_file_fails_the_run(tmp_path):
    write(tmp_path, "a.py", "def broken(:\n")
    result = analyze([tmp_path], root=tmp_path)
    assert not result.ok
    assert result.broken and result.broken[0][0] == "a.py"


def test_clean_tree_is_ok(tmp_path):
    write(tmp_path, "a.py", "def f():\n    return 1\n")
    result = analyze([tmp_path], root=tmp_path)
    assert result.ok
    assert result.new == []
