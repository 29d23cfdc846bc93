"""Unit tests for the block manager (allocation, validity, rebuild)."""

import pytest

from repro.flash.chip import FlashChip
from repro.flash.spare import PageType, SpareArea
from repro.ftl.allocator import BlockManager
from repro.ftl.errors import OutOfSpaceError


@pytest.fixture
def blocks(chip):
    return BlockManager(chip, reserve_blocks=2)


class _Collector:
    """A stand-in garbage collector: ``collect()`` calls ``fn``.  The
    manager holds its collector weakly, so a test keeps this alive."""

    def __init__(self, fn):
        self.collect = fn


class TestAllocation:
    def test_sequential_within_block(self, blocks, tiny_spec):
        addrs = [blocks.allocate() for _ in range(tiny_spec.pages_per_block)]
        assert addrs == list(range(tiny_spec.pages_per_block))

    def test_crosses_block_boundary(self, blocks, tiny_spec):
        for _ in range(tiny_spec.pages_per_block):
            blocks.allocate()
        next_addr = blocks.allocate()
        assert next_addr // tiny_spec.pages_per_block != 0

    def test_exhaustion_raises(self, chip, tiny_spec):
        blocks = BlockManager(chip, reserve_blocks=1)
        with pytest.raises(OutOfSpaceError):
            for _ in range(tiny_spec.n_pages + 1):
                blocks.allocate()

    def test_gc_invoked_at_reserve(self, blocks, tiny_spec):
        calls = []

        def fake_gc():
            calls.append(True)
            # free one block artificially
            victim = next(iter(blocks.victim_candidates()))
            blocks.chip.erase_block(victim)
            blocks.on_block_erased(victim)

        collector = _Collector(fake_gc)
        blocks.set_gc(collector)
        # run the pool down to the reserve
        for _ in range(tiny_spec.n_pages - 2 * tiny_spec.pages_per_block):
            blocks.allocate()
        assert blocks.free_block_count <= blocks.reserve_blocks + 1
        blocks.allocate()  # eventually triggers gc
        for _ in range(tiny_spec.pages_per_block * 2):
            blocks.allocate()
        assert calls

    def test_gc_allocation_skips_collector(self, blocks, tiny_spec):
        collector = _Collector(lambda: (_ for _ in ()).throw(AssertionError("gc ran")))
        blocks.set_gc(collector)
        for _ in range(tiny_spec.n_pages - 2 * tiny_spec.pages_per_block):
            blocks.allocate(for_gc=True)  # may consume the reserve silently

    def test_reserve_validation(self, chip):
        with pytest.raises(ValueError):
            BlockManager(chip, reserve_blocks=0)
        with pytest.raises(ValueError):
            BlockManager(chip, reserve_blocks=chip.spec.n_blocks)


class TestValidity:
    def test_note_valid_counts(self, blocks):
        addr = blocks.allocate()
        blocks.note_valid(addr)
        assert blocks.is_valid(addr)
        assert blocks.valid_count(0) == 1

    def test_note_valid_idempotent(self, blocks):
        addr = blocks.allocate()
        blocks.note_valid(addr)
        blocks.note_valid(addr)
        assert blocks.valid_count(0) == 1

    def test_note_invalid(self, blocks):
        addr = blocks.allocate()
        blocks.note_valid(addr)
        blocks.note_invalid(addr)
        assert not blocks.is_valid(addr)
        assert blocks.valid_count(0) == 0

    def test_valid_pages_in(self, blocks):
        a = blocks.allocate()
        b = blocks.allocate()
        blocks.note_valid(a)
        blocks.note_valid(b)
        blocks.note_invalid(a)
        assert blocks.valid_pages_in(0) == [b]

    def test_valid_bitmap_matches_the_per_address_loop(self, blocks, tiny_spec, rng):
        live = rng.sample(range(tiny_spec.n_pages), tiny_spec.n_pages // 3)
        for addr in live:
            blocks.note_valid(addr)
        blocks.note_invalid(live[0])
        # The snapshot meta format: bit ``addr & 7`` of byte ``addr >> 3``.
        expected = bytearray((tiny_spec.n_pages + 7) // 8)
        for addr in live[1:]:
            expected[addr >> 3] |= 1 << (addr & 7)
        assert blocks.valid_bitmap() == bytes(expected)

    def test_utilization(self, blocks, tiny_spec):
        for _ in range(tiny_spec.pages_per_block):
            blocks.note_valid(blocks.allocate())
        assert blocks.utilization() == pytest.approx(1.0 / tiny_spec.n_blocks)


class TestVictims:
    def test_active_block_not_candidate(self, blocks):
        blocks.allocate()
        assert blocks.active_block not in set(blocks.victim_candidates())

    def test_free_blocks_not_candidates(self, blocks, tiny_spec):
        # seal block 0 with garbage
        for _ in range(tiny_spec.pages_per_block):
            blocks.allocate()
        blocks.allocate()  # opens block 1 (now active)
        candidates = set(blocks.victim_candidates())
        assert candidates == {0}

    def test_garbage_in(self, blocks, tiny_spec):
        addr = blocks.allocate()
        blocks.note_valid(addr)
        assert blocks.garbage_in(0) == tiny_spec.pages_per_block - 1


class TestBlockLifecycle:
    def test_on_block_erased_returns_to_pool(self, blocks, chip, tiny_spec):
        for _ in range(tiny_spec.pages_per_block):
            blocks.note_valid(blocks.allocate())
        free_before = blocks.free_block_count
        chip.erase_block(0)
        blocks.on_block_erased(0)
        assert blocks.free_block_count == free_before + 1
        assert blocks.valid_count(0) == 0
        assert blocks.is_free(0)


class TestExcludedRegion:
    def test_excluded_blocks_never_allocated(self, chip, tiny_spec):
        blocks = BlockManager(chip, reserve_blocks=2, exclude_blocks=3)
        seen_blocks = set()
        for _ in range((tiny_spec.n_blocks - 5) * tiny_spec.pages_per_block):
            seen_blocks.add(blocks.allocate() // tiny_spec.pages_per_block)
        assert seen_blocks.isdisjoint({0, 1, 2})

    def test_excluded_blocks_never_victims(self, chip):
        blocks = BlockManager(chip, reserve_blocks=2, exclude_blocks=3)
        assert set(blocks.victim_candidates()).isdisjoint({0, 1, 2})

    def test_rebuild_keeps_exclusion(self, chip):
        blocks = BlockManager(chip, reserve_blocks=2, exclude_blocks=2)
        blocks.rebuild(bytearray(chip.spec.n_pages))
        assert not blocks.is_free(0)
        assert not blocks.is_free(1)
        assert blocks.free_block_count == chip.spec.n_blocks - 2


class TestRebuild:
    def test_rebuild_classifies_blocks(self, chip, tiny_spec):
        blocks = BlockManager(chip, reserve_blocks=2)
        # program one page in block 3 so it is sealed, leave others erased
        chip.program_page(
            3 * tiny_spec.pages_per_block, b"\x00", SpareArea(type=PageType.DATA)
        )
        valid = bytearray(tiny_spec.n_pages)
        valid[3 * tiny_spec.pages_per_block] = 1
        blocks.rebuild(valid)
        assert not blocks.is_free(3)
        assert blocks.free_block_count == tiny_spec.n_blocks - 1
        assert blocks.valid_count(3) == 1

    def test_rebuild_resets_allocation_point(self, chip):
        blocks = BlockManager(chip, reserve_blocks=2)
        blocks.allocate()
        blocks.rebuild(bytearray(chip.spec.n_pages))
        assert blocks.active_block is None


class TestStreams:
    """Hot/cold append streams: independent active blocks, shared pool."""

    def test_streams_use_distinct_blocks(self, blocks, tiny_spec):
        from repro.ftl.allocator import COLD_STREAM, HOT_STREAM

        cold = blocks.allocate(stream=COLD_STREAM)
        hot = blocks.allocate(stream=HOT_STREAM)
        ppb = tiny_spec.pages_per_block
        assert cold // ppb != hot // ppb
        assert set(blocks.active_blocks()) == {cold // ppb, hot // ppb}

    def test_streams_interleave_without_mixing(self, blocks, tiny_spec):
        from repro.ftl.allocator import COLD_STREAM, HOT_STREAM

        ppb = tiny_spec.pages_per_block
        cold_addrs = []
        hot_addrs = []
        for _ in range(ppb // 2):
            cold_addrs.append(blocks.allocate(stream=COLD_STREAM))
            hot_addrs.append(blocks.allocate(stream=HOT_STREAM))
        assert len({a // ppb for a in cold_addrs}) == 1
        assert len({a // ppb for a in hot_addrs}) == 1
        assert {a // ppb for a in cold_addrs} != {a // ppb for a in hot_addrs}

    def test_default_stream_is_cold(self, blocks):
        from repro.ftl.allocator import COLD_STREAM

        addr = blocks.allocate()
        assert blocks.active_block == addr // blocks.spec.pages_per_block
        assert blocks.pages_left(COLD_STREAM) == blocks.pages_left_in_active

    def test_pages_left_tracked_per_stream(self, blocks, tiny_spec):
        from repro.ftl.allocator import COLD_STREAM, HOT_STREAM

        assert blocks.pages_left(HOT_STREAM) == 0  # stream not open yet
        blocks.allocate(stream=HOT_STREAM)
        assert blocks.pages_left(HOT_STREAM) == tiny_spec.pages_per_block - 1
        assert blocks.pages_left(COLD_STREAM) == 0

    def test_every_active_block_excluded_from_victims(self, blocks, tiny_spec):
        from repro.ftl.allocator import COLD_STREAM, HOT_STREAM

        blocks.allocate(stream=COLD_STREAM)
        blocks.allocate(stream=HOT_STREAM)
        candidates = set(blocks.victim_candidates())
        for active in blocks.active_blocks():
            assert active not in candidates

    def test_rebuild_clears_all_streams(self, blocks, chip):
        from repro.ftl.allocator import HOT_STREAM

        blocks.allocate()
        blocks.allocate(stream=HOT_STREAM)
        blocks.rebuild(bytearray(chip.spec.n_pages))
        assert blocks.active_block is None
        assert blocks.active_blocks() == []


class TestBlockMetadata:
    """Per-block age and wear, the victim-policy inputs."""

    def test_block_age_advances_with_the_clock(self, blocks, chip):
        addr = blocks.allocate()
        chip.program_page(addr, b"\x01", SpareArea(type=PageType.DATA, pid=0))
        blocks.note_valid(addr)
        block = addr // blocks.spec.pages_per_block
        age_then = blocks.block_age(block)
        for _ in range(10):
            chip.read_spare(0)
        assert blocks.block_age(block) > age_then

    def test_note_valid_resets_age(self, blocks, chip):
        a1 = blocks.allocate()
        chip.program_page(a1, b"\x01", SpareArea(type=PageType.DATA, pid=0))
        blocks.note_valid(a1)
        for _ in range(10):
            chip.read_spare(0)
        block = a1 // blocks.spec.pages_per_block
        aged = blocks.block_age(block)
        a2 = blocks.allocate()
        chip.program_page(a2, b"\x02", SpareArea(type=PageType.DATA, pid=1))
        blocks.note_valid(a2)
        assert blocks.block_age(block) < aged

    def test_erase_count_delegates_to_the_chip(self, blocks, chip):
        assert blocks.erase_count(3) == 0
        chip.erase_block(3)
        assert blocks.erase_count(3) == 1


class TestReuseAfterGcOpensBlock:
    """Regression: the backstop GC may open a fresh active block for its
    relocations; the interrupted allocation must reuse its tail instead
    of popping (and stranding) yet another block."""

    def test_block_opened_by_gc_is_not_abandoned(self, chip, tiny_spec):
        blocks = BlockManager(chip, reserve_blocks=2)

        def relocating_gc():
            # Mimic a collection: relocate one page (opening a new active
            # block with reserve pages), then erase a garbage block.
            new = blocks.allocate(for_gc=True)
            chip.program_page(new, b"\xaa", SpareArea(type=PageType.DATA, pid=0))
            blocks.note_valid(new)
            victim = next(
                b for b in blocks.victim_candidates() if blocks.valid_count(b) == 0
            )
            chip.erase_block(victim)
            blocks.on_block_erased(victim)

        collector = _Collector(relocating_gc)
        blocks.set_gc(collector)
        ppb = tiny_spec.pages_per_block
        # Exhaust the pool down to the reserve with garbage blocks.
        while blocks.free_block_count > blocks.reserve_blocks:
            for _ in range(ppb):
                blocks.allocate()
        # The next block-opening allocation triggers the GC above, which
        # itself opens a new active block; the allocation must continue
        # in that block's tail.
        for _ in range(ppb):
            blocks.allocate()
        active = blocks.active_block
        assert blocks.valid_count(active) >= 1  # the GC relocation's page
