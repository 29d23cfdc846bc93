"""Engine behaviour: suppressions and parse errors."""

from pathlib import Path

from repro.analysis import analyze

def write(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Inline suppressions
# ---------------------------------------------------------------------------
def test_trailing_suppression(tmp_path):
    write(
        tmp_path,
        "a.py",
        "def f(chip, a):\n"
        "    return chip.read_page(a, verify=False)"
        "  # repro: allow[checksum-bypass] -- fixture\n",
    )
    result = analyze([tmp_path], root=tmp_path)
    assert result.new == []
    assert [f.rule for f in result.suppressed] == ["checksum-bypass"]


def test_standalone_comment_suppresses_next_line(tmp_path):
    write(
        tmp_path,
        "a.py",
        "def f(chip, a):\n"
        "    # repro: allow[checksum-bypass] -- reading a torn page on purpose\n"
        "    return chip.read_page(a, verify=False)\n",
    )
    result = analyze([tmp_path], root=tmp_path)
    assert result.new == []
    assert len(result.suppressed) == 1


def test_multiline_standalone_comment_suppresses_following_code(tmp_path):
    write(
        tmp_path,
        "a.py",
        "def f(chip, a):\n"
        "    # repro: allow[checksum-bypass] -- a justification that is\n"
        "    # long enough to wrap across two comment lines\n"
        "    return chip.read_page(a, verify=False)\n",
    )
    result = analyze([tmp_path], root=tmp_path)
    assert result.new == []


def test_suppression_is_rule_specific(tmp_path):
    write(
        tmp_path,
        "a.py",
        "def f(chip, a):\n"
        "    return chip.read_page(a, verify=False)"
        "  # repro: allow[pin-discipline] -- wrong rule id\n",
    )
    result = analyze([tmp_path], root=tmp_path)
    assert [f.rule for f in result.new] == ["checksum-bypass"]


def test_wildcard_suppression(tmp_path):
    write(
        tmp_path,
        "a.py",
        "def f(chip, a):\n"
        "    return chip.read_page(a, verify=False)  # repro: allow[*] -- generated\n",
    )
    result = analyze([tmp_path], root=tmp_path)
    assert result.new == []


def test_allow_comment_inside_string_is_ignored(tmp_path):
    write(
        tmp_path,
        "a.py",
        'NOTE = "# repro: allow[checksum-bypass]"\n'
        "def f(chip, a):\n"
        "    return chip.read_page(a, verify=False)\n",
    )
    result = analyze([tmp_path], root=tmp_path)
    assert [f.rule for f in result.new] == ["checksum-bypass"]


# ---------------------------------------------------------------------------
# Parse failures
# ---------------------------------------------------------------------------
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
