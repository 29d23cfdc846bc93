"""Crash-injection matrix: power loss at EVERY point of a write+GC window.

The randomized recovery test samples a handful of crash points; this
harness enumerates *all* of them.  A deterministic PDL workload (load,
small random updates, periodic flushes, enough churn to force garbage
collection) is first executed once to count its mutating flash
operations, then re-executed once per operation with a simulated power
loss injected exactly there.  After each crash, recovery must rebuild a
driver whose every page image is byte-identical to a version that page
actually held, no older than the last completed flush — for the
single-chip driver and for a sharded two-chip array alike.

The sharded runs use a *globally ordered* power loss (one countdown
across all chips via the per-chip operation observer): a real power
failure stops every device at one instant, not each device after its
own k-th operation.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Set, Tuple

import pytest

from repro.core.pdl import PdlDriver
from repro.core.recovery import recover_driver
from repro.flash.chip import FlashChip
from repro.flash.errors import SimulatedPowerLoss
from repro.flash.spec import FlashSpec
from repro.ftl.base import PageUpdateMethod
from repro.ftl.errors import UnknownPageError
from repro.ftl.gc import GcConfig
from repro.methods import make_method
from repro.sharding.recovery import recover_all

# Small enough that GC fires inside the window and the full matrix stays
# cheap: 6 blocks x 8 pages of 256 B for the single chip; sharded runs
# split the same page traffic across chips, so each shard chip shrinks
# to 4 blocks to keep its own GC churning.
SPEC = FlashSpec(n_blocks=6, pages_per_block=8, page_data_size=256, page_spare_size=16)
SHARD_SPEC = FlashSpec(
    n_blocks=4, pages_per_block=8, page_data_size=256, page_spare_size=16
)
N_PIDS = 6
N_CYCLES = 48
FLUSH_EVERY = 7
SEED = 20100121
MAX_DIFF = 64


#: Incremental space-management configs the matrix re-runs with: crash
#: points now also fall *between* bounded GC steps, while a victim block
#: is partially relocated and compacted differentials sit in RAM.
INCREMENTAL_CONFIGS = {
    "inc": GcConfig(incremental_steps=2),
    "inc-hc-cb": GcConfig(policy="cb", incremental_steps=2, hot_cold=True),
}


def _build(
    n_shards: int, gc_config: "GcConfig | None" = None
) -> Tuple[List[FlashChip], PageUpdateMethod]:
    if n_shards == 1:
        chips = [FlashChip(SPEC)]
        return chips, PdlDriver(chips[0], max_differential_size=MAX_DIFF, gc_config=gc_config)
    chips = [FlashChip(SHARD_SPEC) for _ in range(n_shards)]
    kwargs = {} if gc_config is None else {"gc": gc_config}
    return chips, make_method(f"PDL ({MAX_DIFF}B) x{n_shards}", chips, **kwargs)


def _recover(chips: Sequence[FlashChip], n_shards: int):
    if n_shards == 1:
        driver, report = recover_driver(chips[0], max_differential_size=MAX_DIFF)
        return driver, [report]
    return recover_all(chips, max_differential_size=MAX_DIFF)


class _GlobalPowerLoss:
    """One mutating-op countdown shared by every chip in the array."""

    def __init__(self, chips: Sequence[FlashChip], after: int):
        self.remaining = after
        self.chips = list(chips)
        for chip in self.chips:
            chip.on_operation(self._tick)

    def _tick(self, op: str) -> None:
        if self.remaining <= 0:
            raise SimulatedPowerLoss(f"global power loss before {op}")
        self.remaining -= 1

    def disarm(self) -> None:
        for chip in self.chips:
            chip.on_operation(None)


class _Window:
    """The deterministic write+GC window, with version-history tracking."""

    def __init__(self) -> None:
        self.history: Dict[int, List[bytes]] = {}
        self.floor: Dict[int, int] = {}
        self.loaded: Set[int] = set()

    def run(self, driver: PageUpdateMethod) -> None:
        rng = random.Random(SEED)
        for pid in range(N_PIDS):
            image = rng.randbytes(SPEC.page_data_size)
            # Recorded before the attempt: a crash mid-load may or may
            # not have persisted this page.
            self.history[pid] = [image]
            self.floor[pid] = 0
            driver.load_page(pid, image)
            self.loaded.add(pid)  # load_page is durable once it returns
        for i in range(N_CYCLES):
            pid = rng.randrange(N_PIDS)
            image = bytearray(self.history[pid][-1])
            offset = rng.randrange(SPEC.page_data_size - 24)
            # Large-ish patches push differentials over MAX_DIFF often
            # enough to exercise Case 3 and keep GC churning.
            image[offset : offset + 24] = rng.randbytes(24)
            self.history[pid].append(bytes(image))
            driver.write_page(pid, bytes(image))
            if i % FLUSH_EVERY == FLUSH_EVERY - 1:
                driver.flush()
                for q in self.history:
                    self.floor[q] = len(self.history[q]) - 1
        driver.flush()
        for q in self.history:
            self.floor[q] = len(self.history[q]) - 1


def _count_mutating_ops(
    n_shards: int, gc_config: "GcConfig | None" = None
) -> int:
    """Dry run: total mutating flash operations in the full window."""
    chips, driver = _build(n_shards, gc_config)
    counter = {"ops": 0}

    def observe(_op: str) -> None:
        counter["ops"] += 1

    for chip in chips:
        chip.on_operation(observe)
    _Window().run(driver)
    for chip in chips:
        chip.on_operation(None)
    # The matrix only means something if the window really exercises GC.
    total_erases = sum(chip.stats.total_erases for chip in chips)
    assert total_erases > 0, "window never triggered garbage collection"
    if gc_config is not None and gc_config.incremental:
        steps = sum(chip.stats.gc_steps for chip in chips)
        assert steps > 0, "window never took an incremental GC step"
    return counter["ops"]


def _assert_recovered_state(window: _Window, recovered: PageUpdateMethod, k: int) -> None:
    for pid, versions in window.history.items():
        if pid not in window.loaded:
            # Crash hit during this page's initial load; it may simply
            # not exist, which recovery reports as an unknown page.
            try:
                got = recovered.read_page(pid)
            except UnknownPageError:
                continue
        else:
            got = recovered.read_page(pid)
        assert got in versions, f"crash@{k}: pid {pid} holds a never-written image"
        newest = max(i for i, v in enumerate(versions) if v == got)
        assert newest >= window.floor[pid], (
            f"crash@{k}: pid {pid} lost durable data "
            f"(recovered v{newest} < floor v{window.floor[pid]})"
        )


@pytest.mark.parametrize("n_shards", [1, 2])
def test_crash_matrix_every_point(n_shards):
    total_ops = _count_mutating_ops(n_shards)
    assert total_ops > 20  # sanity: the window is substantial
    for k in range(total_ops):
        chips, driver = _build(n_shards)
        guard = _GlobalPowerLoss(chips, k)
        window = _Window()
        try:
            window.run(driver)
        except SimulatedPowerLoss:
            pass
        else:
            pytest.fail(f"crash point {k} of {total_ops} never fired")
        finally:
            guard.disarm()
        recovered, reports = _recover(chips, n_shards)
        assert len(reports) == n_shards
        _assert_recovered_state(window, recovered, k)
        # The recovered driver must remain fully operational.
        survivors = [pid for pid in range(N_PIDS) if _readable(recovered, pid)]
        for pid in survivors:
            image = bytearray(recovered.read_page(pid))
            image[0:4] = b"\xaa\xbb\xcc\xdd"
            recovered.write_page(pid, bytes(image))
            assert recovered.read_page(pid) == bytes(image)


def _readable(driver: PageUpdateMethod, pid: int) -> bool:
    try:
        driver.read_page(pid)
        return True
    except UnknownPageError:
        return False


@pytest.mark.parametrize("config_key", sorted(INCREMENTAL_CONFIGS))
def test_crash_matrix_every_point_incremental_gc(config_key):
    """Power loss at every mutating op of an *incremental* GC window.

    Between bounded steps a victim block is partially relocated: base
    pages coexist with equal-timestamp GC copies, compacted
    differentials sit in the RAM buffer while their only flash copy is
    still inside the un-erased victim, and ordinary writes interleave.
    Recovery must still see every valid byte (the finish_victim
    invariant) at every single crash point.
    """
    config = INCREMENTAL_CONFIGS[config_key]
    total_ops = _count_mutating_ops(1, config)
    assert total_ops > 20
    for k in range(total_ops):
        chips, driver = _build(1, config)
        guard = _GlobalPowerLoss(chips, k)
        window = _Window()
        try:
            window.run(driver)
        except SimulatedPowerLoss:
            pass
        else:
            pytest.fail(f"crash point {k} of {total_ops} never fired")
        finally:
            guard.disarm()
        recovered, reports = _recover(chips, 1)
        assert len(reports) == 1
        _assert_recovered_state(window, recovered, k)
        # The recovered driver must remain fully operational.
        for pid in range(N_PIDS):
            if not _readable(recovered, pid):
                continue
            image = bytearray(recovered.read_page(pid))
            image[0:4] = b"\xaa\xbb\xcc\xdd"
            recovered.write_page(pid, bytes(image))
            assert recovered.read_page(pid) == bytes(image)


class TestOpFilteredCrash:
    """An observer that raises fails the k-th *specific* operation."""

    def test_crash_on_kth_erase_only(self):
        chips, driver = _build(1)
        chip = chips[0]

        def crash_on_erase(op):
            if op == "erase_block":
                raise SimulatedPowerLoss(f"simulated power failure before {op}")

        chip.on_operation(crash_on_erase)
        window = _Window()
        try:
            with pytest.raises(SimulatedPowerLoss):
                window.run(driver)
        finally:
            chip.on_operation(None)
        # Programs went through untouched; the very first erase failed.
        assert chip.stats.totals().writes > 0
        assert chip.stats.total_erases == 0
        recovered, _ = recover_driver(chips[0], max_differential_size=MAX_DIFF)
        _assert_recovered_state(window, recovered, 0)
