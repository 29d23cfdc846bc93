"""Repo self-scan regression: the live tree stays clean under the gate.

This is the same scan the ``invariant-lint`` CI job runs
(``python scripts/lint_invariants.py src/``); keeping it in tier-1 means
a contract violation fails locally before it ever reaches CI.
"""

from pathlib import Path

from invariants import analyze

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_tree_has_no_unbaselined_findings():
    result = analyze([REPO_ROOT / "src"], root=REPO_ROOT)
    assert result.broken == [], result.broken
    assert result.new == [], "\n".join(f.render() for f in result.new)


def test_shard_gates_are_in_the_lock_order_graph(tmp_path):
    """The clean scan above covers the gate: beside the live sharded
    driver, a probe that takes a gate on both sides of its own lock is
    reported as a cycle, and the edge *into* the gate is the live ``_own``'s."""
    driver = REPO_ROOT / "src" / "repro" / "sharding" / "driver.py"
    (tmp_path / "driver.py").write_text(driver.read_text())
    (tmp_path / "probe.py").write_text(
        "import threading\n"
        "class Probe:\n"
        "    def __init__(self, executor):\n"
        "        self._lock = threading.Lock()\n"
        "        self.executor = executor\n"
        "    def lock_then_gate(self):\n"
        "        with self._lock:\n"
        "            self.executor._own(0, int, (), {})\n"
        "    def gate_then_lock(self):\n"
        "        with self.executor._gates[0]:\n"
        "            with self._lock:\n"
        "                pass\n"
    )
    result = analyze([tmp_path], root=tmp_path)
    assert [f.rule for f in result.new] == ["lock-order"], [f.render() for f in result.new]
    message = result.new[0].message
    assert "Probe._lock held while acquiring ShardExecutor._gates" in message
    assert "ShardExecutor._gates held while acquiring Probe._lock" in message


def test_a_page_calling_its_pool_under_its_latch_is_a_cycle(tmp_path):
    """Pins reach the pool *without* the page latch: the live pool holds
    its lock across ``with page.latch:`` for a write-back, so an ``unpin``
    that called the pool's ``_unpin`` inside the latch would close a
    latch → pool-lock cycle, and the rule resolves that call."""
    storage = REPO_ROOT / "src" / "repro" / "storage"
    page = (storage / "page.py").read_text()
    live = (
        "        pool = None if observer is None else observer()\n"
        "        if pool is not None:\n"
        "            return pool._unpin(self)\n"
        "        with self.latch:\n"
    )
    seeded = (
        "        with self.latch:\n"
        "            pool = None if observer is None else observer()\n"
        "            if pool is not None:\n"
        "                pool._unpin(self)\n"
        "                return\n"
    )
    assert page.count(live) == 1
    (tmp_path / "page.py").write_text(page.replace(live, seeded))
    (tmp_path / "manager.py").write_text((storage / "bufferpool" / "manager.py").read_text())
    cycles = [f for f in analyze([tmp_path], root=tmp_path).new if f.rule == "lock-order"]
    assert len(cycles) == 1, [f.render() for f in cycles]
    message = cycles[0].message
    assert "Page.latch held while acquiring BufferManager._lock" in message
    assert "BufferManager._lock held while acquiring Page.latch" in message
