"""Per-rule fixture tests: every rule fires on bad.py, stays quiet on good.py."""

from pathlib import Path

import pytest

from invariants import RULES, analyze

FIXTURES = Path(__file__).parent / "fixtures"

# (fixture directory, rule id, findings expected in bad.py)
CASES = [
    ("bare_except", "bare-except", 2),
    ("checksum_bypass", "checksum-bypass", 2),
    ("journal_flush_before_ack", "journal-flush-before-ack", 2),
    ("lock_order", "lock-order", 1),
    ("phase_discipline", "phase-discipline", 3),
    ("pin_discipline", "pin-discipline", 2),
    ("resource_lifecycle", "resource-lifecycle", 3),
    ("single_writer", "single-writer", 4),
]


@pytest.mark.parametrize("fixture,rule_id,expected", CASES)
def test_bad_fixture_fires(fixture, rule_id, expected):
    path = FIXTURES / fixture / "bad.py"
    result = analyze([path], root=FIXTURES / fixture)
    of_rule = [f for f in result.new if f.rule == rule_id]
    assert len(of_rule) == expected, [f.render() for f in result.new]
    # The bad fixtures are single-defect files: no cross-rule noise.
    assert len(result.new) == expected, [f.render() for f in result.new]
    for finding in of_rule:
        assert finding.path == "bad.py"
        assert finding.line > 0
        assert finding.message


@pytest.mark.parametrize("fixture,rule_id,expected", CASES)
def test_good_fixture_quiet(fixture, rule_id, expected):
    path = FIXTURES / fixture / "good.py"
    result = analyze([path], root=FIXTURES / fixture)
    assert result.new == [], [f.render() for f in result.new]


def test_pool_lock_under_a_shard_gate_fires():
    """A list of per-shard locks is one node of the graph, acquired as
    ``with self._gates[i]:``; taking the pool lock under it is a cycle."""
    path = FIXTURES / "lock_order" / "bad_gate.py"
    result = analyze([path], root=FIXTURES / "lock_order")
    assert [f.rule for f in result.new] == ["lock-order"], [f.render() for f in result.new]
    message = result.new[0].message
    assert "Executor._gates held while acquiring Pool._lock" in message
    assert "Pool._lock held while acquiring Executor._gates" in message


def test_every_registered_rule_has_fixtures():
    ids = [rule.id for rule in RULES]
    assert len(ids) == len(set(ids)), ids
    assert set(ids) == {rule_id for _fixture, rule_id, _n in CASES}
    for fixture, _rule_id, _n in CASES:
        assert (FIXTURES / fixture / "bad.py").is_file()
        assert (FIXTURES / fixture / "good.py").is_file()


def test_findings_are_ordered_and_deduplicated():
    paths = [FIXTURES / "bare_except" / "bad.py"]
    result = analyze(paths + paths, root=FIXTURES / "bare_except")
    keys = [(f.path, f.line, f.rule, f.message) for f in result.new]
    assert keys == sorted(set(keys))
