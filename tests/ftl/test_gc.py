"""Unit tests for the GC engine with a scripted relocation handler."""

import os
import subprocess
import sys

import pytest

from repro.flash.chip import FlashChip
from repro.flash.spare import PageType, SpareArea
from repro.flash.stats import GC
from repro.ftl.allocator import BlockManager
from repro.ftl.errors import ConfigurationError, OutOfSpaceError
from repro.ftl.gc import (
    GarbageCollector,
    GcConfig,
    cost_benefit_policy,
    greedy_policy,
    make_victim_policy,
    victim_policy_names,
    wear_aware_policy,
)


class RecordingHandler:
    """Relocates valid pages verbatim and records the calls."""

    def __init__(self, chip, blocks):
        self.chip = chip
        self.blocks = blocks
        self.relocated = []
        self.finished = []

    def relocate_page(self, addr, data, spare):
        new = self.blocks.allocate(for_gc=True)
        self.chip.program_page(new, data, spare)
        self.blocks.note_valid(new)
        self.relocated.append((addr, new))

    def finish_victim(self, block):
        self.finished.append(block)


@pytest.fixture
def setup(chip):
    blocks = BlockManager(chip, reserve_blocks=2)
    handler = RecordingHandler(chip, blocks)
    gc = GarbageCollector(chip, blocks, handler)
    return chip, blocks, handler, gc


def _fill(chip, blocks, n_pages, valid_every=2):
    """Program pages, marking every ``valid_every``-th one valid."""
    for i in range(n_pages):
        addr = blocks.allocate()
        chip.program_page(addr, b"\x10", SpareArea(type=PageType.DATA, pid=i))
        if i % valid_every == 0:
            blocks.note_valid(addr)


class TestCollection:
    def test_collect_reclaims_garbage(self, setup, tiny_spec):
        chip, blocks, handler, gc = setup
        _fill(chip, blocks, tiny_spec.pages_per_block * 4, valid_every=2)
        before = blocks.free_block_count
        # Drain the pool so collect has work to do.
        while blocks.free_block_count > blocks.reserve_blocks:
            block = blocks._free[0]  # peek
            blocks.allocate()
            for _ in range(tiny_spec.pages_per_block - 1):
                blocks.allocate()
        gc.collect()
        assert blocks.free_block_count > blocks.reserve_blocks
        assert gc.collections >= 1

    def test_valid_pages_survive(self, setup, tiny_spec):
        chip, blocks, handler, gc = setup
        _fill(chip, blocks, tiny_spec.pages_per_block, valid_every=2)
        victim = 0
        expected = {
            chip.peek_spare(a).pid for a in blocks.valid_pages_in(victim)
        }
        gc._reclaim(victim)
        assert handler.finished == [victim]
        survivors = {
            chip.peek_spare(new).pid for _old, new in handler.relocated
        }
        assert survivors == expected
        assert chip.is_block_erased(victim)

    def test_gc_phase_attribution(self, setup, tiny_spec):
        chip, blocks, handler, gc = setup
        _fill(chip, blocks, tiny_spec.pages_per_block, valid_every=2)
        with chip.stats.phase(GC):
            gc._reclaim(0)
        assert chip.stats.of_phase(GC).erases == 1
        assert chip.stats.of_phase(GC).reads >= 1

    def test_out_of_space_when_everything_valid(self, setup, tiny_spec):
        chip, blocks, handler, gc = setup
        # every page valid -> no reclaimable garbage
        for i in range(tiny_spec.n_pages - 2 * tiny_spec.pages_per_block):
            addr = blocks.allocate()
            chip.program_page(addr, b"\x01", SpareArea(type=PageType.DATA, pid=i))
            blocks.note_valid(addr)
        with pytest.raises(OutOfSpaceError):
            for i in range(3 * tiny_spec.pages_per_block):
                addr = blocks.allocate()
                chip.program_page(
                    addr, b"\x01", SpareArea(type=PageType.DATA, pid=10_000 + i)
                )
                blocks.note_valid(addr)


class TestGreedyPolicy:
    def test_picks_most_garbage(self, setup, tiny_spec):
        chip, blocks, handler, gc = setup
        ppb = tiny_spec.pages_per_block
        # block 0: all garbage; block 1: half valid
        _fill(chip, blocks, ppb, valid_every=ppb + 1)
        _fill(chip, blocks, ppb, valid_every=2)
        blocks.allocate()  # open block 2 as active
        assert greedy_policy(blocks) == 0

    def test_none_when_no_candidates(self, chip):
        blocks = BlockManager(chip, reserve_blocks=2)
        assert greedy_policy(blocks) is None

    def test_tie_broken_by_lowest_block_id(self, setup, tiny_spec):
        chip, blocks, handler, gc = setup
        ppb = tiny_spec.pages_per_block
        # Blocks 0 and 1: identical garbage, identical (zero) wear.
        _fill(chip, blocks, 2 * ppb, valid_every=2)
        blocks.allocate()  # open block 2 as active
        assert blocks.garbage_in(0) == blocks.garbage_in(1)
        assert greedy_policy(blocks) == 0

    def test_tie_broken_by_lowest_erase_count(self, tiny_spec):
        # Pre-wear block 0 before any allocation, so blocks 0 and 1 end
        # up with equal garbage but different erase counts.
        chip = FlashChip(tiny_spec)
        for _ in range(3):
            chip.erase_block(0)
        blocks = BlockManager(chip, reserve_blocks=2)
        _fill(chip, blocks, 2 * tiny_spec.pages_per_block, valid_every=2)
        blocks.allocate()  # open block 2 as active
        assert blocks.garbage_in(0) == blocks.garbage_in(1)
        assert blocks.erase_count(0) == 3
        assert greedy_policy(blocks) == 1


class TestVictimPolicyRegistry:
    def test_builtin_names_registered(self):
        for name in ("greedy", "cb", "wear"):
            assert name in victim_policy_names()
            assert callable(make_victim_policy(name))

    def test_lookup_is_case_insensitive(self):
        assert make_victim_policy("GREEDY") is greedy_policy

    def test_unknown_name_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown victim policy"):
            make_victim_policy("lru")

    def test_round_robin_needs_no_side_effect_import(self):
        """``gc=rr`` in a fresh interpreter that imported only what the
        label needs (the policy used to register itself when an extension
        module happened to be imported first)."""
        script = (
            "from repro.methods import make_method\n"
            "from repro.flash.chip import FlashChip\n"
            "from repro.flash.spec import TINY_SPEC\n"
            "from repro.ftl.gc import victim_policy_names\n"
            "print(make_method('PDL (256B) gc=rr', FlashChip(TINY_SPEC)).name)\n"
            "assert 'rr' in victim_policy_names()\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert (done.returncode, done.stdout.strip()) == (0, "PDL (256B) gc=rr"), done.stderr

    def test_config_resolves_registered_policy(self, chip):
        blocks = BlockManager(chip, reserve_blocks=2)
        handler = RecordingHandler(chip, blocks)
        gc = GarbageCollector(
            chip, blocks, handler, config=GcConfig(policy="cb")
        )
        assert gc.policy is cost_benefit_policy


class TestCostBenefitPolicy:
    def test_prefers_old_sparse_block_over_young_denser_one(self, chip, tiny_spec):
        blocks = BlockManager(chip, reserve_blocks=2)
        ppb = tiny_spec.pages_per_block
        # Block 0: half valid, written early (old).
        _fill(chip, blocks, ppb, valid_every=2)
        # Age block 0 by issuing unrelated reads (advances the clock).
        for _ in range(400):
            chip.read_spare(0)
        # Block 1: mostly garbage but freshly written (young).
        _fill(chip, blocks, ppb, valid_every=4)
        blocks.allocate()  # open block 2 as active
        assert blocks.garbage_in(1) > blocks.garbage_in(0)
        assert greedy_policy(blocks) == 1
        assert cost_benefit_policy(blocks) == 0

    def test_fully_garbage_block_always_wins(self, chip, tiny_spec):
        blocks = BlockManager(chip, reserve_blocks=2)
        ppb = tiny_spec.pages_per_block
        _fill(chip, blocks, ppb, valid_every=2)      # block 0: half valid
        _fill(chip, blocks, ppb, valid_every=ppb + 1)  # block 1: all garbage
        blocks.allocate()
        assert cost_benefit_policy(blocks) == 1


class TestWearAwarePolicy:
    def test_discounts_worn_blocks(self, tiny_spec):
        chip = FlashChip(tiny_spec)
        for _ in range(8):
            chip.erase_block(0)
        blocks = BlockManager(chip, reserve_blocks=2)
        ppb = tiny_spec.pages_per_block
        # Block 0 (worn): all garbage; block 1 (fresh): half valid.
        _fill(chip, blocks, ppb, valid_every=ppb + 1)
        _fill(chip, blocks, ppb, valid_every=2)
        blocks.allocate()
        assert greedy_policy(blocks) == 0
        assert wear_aware_policy(wear_weight=5.0)(blocks) == 1

    def test_zero_weight_degenerates_to_greedy(self, setup, tiny_spec):
        chip, blocks, handler, gc = setup
        ppb = tiny_spec.pages_per_block
        _fill(chip, blocks, ppb, valid_every=ppb + 1)
        _fill(chip, blocks, ppb, valid_every=2)
        blocks.allocate()
        assert wear_aware_policy(wear_weight=0.0)(blocks) == greedy_policy(blocks)


class TestGcConfig:
    def test_defaults_are_stop_the_world_greedy(self):
        config = GcConfig()
        assert config.policy == "greedy"
        assert not config.incremental
        assert not config.hot_cold

    def test_validation(self):
        with pytest.raises(ValueError):
            GcConfig(incremental_steps=-1)

    def test_unknown_policy_rejected_at_engine_construction(self, chip):
        blocks = BlockManager(chip, reserve_blocks=2)
        handler = RecordingHandler(chip, blocks)
        with pytest.raises(ConfigurationError):
            GarbageCollector(chip, blocks, handler, config=GcConfig(policy="nope"))


def _fill_to_debt(chip, blocks, gc, tiny_spec):
    """Fill every non-reserve block half-valid so the pool sits at the
    reserve level with relocatable victims everywhere.  The allocation
    backstop is disabled during the fill so no collection runs early."""
    blocks.set_gc(None)
    i = 0
    while blocks.free_block_count > blocks.reserve_blocks:
        _fill(chip, blocks, tiny_spec.pages_per_block, valid_every=2)
        i += 1
    blocks.set_gc(gc)


class TestIncrementalSteps:
    def _setup(self, chip, steps=2):
        blocks = BlockManager(chip, reserve_blocks=2)
        handler = RecordingHandler(chip, blocks)
        gc = GarbageCollector(
            chip, blocks, handler, config=GcConfig(incremental_steps=steps)
        )
        return blocks, handler, gc

    def test_step_bounds_relocations_and_tracks_victim(self, chip, tiny_spec):
        blocks, handler, gc = self._setup(chip)
        _fill_to_debt(chip, blocks, gc, tiny_spec)
        assert gc.gc_debt() > 0
        moved = gc.step(2)
        assert moved == 2
        assert len(handler.relocated) == 2
        assert gc.in_flight_victim is not None
        assert chip.stats.gc_steps == 1
        assert chip.stats.gc_step_pages == 2

    def test_victim_erased_once_drained(self, chip, tiny_spec):
        blocks, handler, gc = self._setup(chip)
        _fill_to_debt(chip, blocks, gc, tiny_spec)
        victim = None
        for _ in range(tiny_spec.pages_per_block * 2):
            gc.step(2)
            victim = victim if victim is not None else gc.in_flight_victim
            if gc.collections:
                break
        assert gc.collections >= 1
        assert handler.finished  # finish_victim ran before the erase
        assert chip.is_block_erased(handler.finished[0])

    def test_pages_invalidated_between_steps_are_skipped(self, chip, tiny_spec):
        blocks, handler, gc = self._setup(chip)
        _fill_to_debt(chip, blocks, gc, tiny_spec)
        gc.step(1)
        victim = gc.in_flight_victim
        assert victim is not None
        # A concurrent write supersedes the victim's remaining pages.
        remaining = blocks.valid_pages_in(victim)
        for addr in remaining:
            blocks.note_invalid(addr)
        before = len(handler.relocated)
        gc.step(tiny_spec.pages_per_block)
        # None of the superseded pages was relocated; the victim completed
        # anyway (the step may then have moved on to a fresh victim).
        ppb = tiny_spec.pages_per_block
        assert all(
            old // ppb != victim for old, _new in handler.relocated[before:]
        )
        assert victim in handler.finished
        assert chip.is_block_erased(victim) or blocks.active_block == victim

    def test_on_write_hooks_meter_stalls(self, chip, tiny_spec):
        blocks, handler, gc = self._setup(chip)
        _fill_to_debt(chip, blocks, gc, tiny_spec)
        gc.on_write_begin()
        gc.on_write_end()
        samples = chip.stats.write_stall_us
        assert len(samples) == 1
        assert samples[0] > 0.0  # this write absorbed a step
        # Clear the debt entirely, then the hooks record a zero stall.
        while gc.gc_debt() > 0 and gc.step(tiny_spec.pages_per_block):
            pass
        gc.collect()
        assert gc.in_flight_victim is None
        gc.on_write_begin()
        gc.on_write_end()
        assert chip.stats.write_stall_us[-1] == 0.0

    def test_backstop_collect_finishes_in_flight_victim(self, chip, tiny_spec):
        blocks, handler, gc = self._setup(chip)
        _fill_to_debt(chip, blocks, gc, tiny_spec)
        gc.step(1)
        victim = gc.in_flight_victim
        assert victim is not None
        gc.collect()
        assert gc.in_flight_victim is None
        assert victim in handler.finished
        assert blocks.free_block_count > blocks.reserve_blocks


class TestBackendDeterminism:
    """Regression: memory- and file-backed chips must pick identical
    victims for an identical workload (the tie-break rule, satellite 1)."""

    def _run(self, backend_kind, tmp_path):
        import random

        from repro.core.pdl import PdlDriver
        from repro.flash.backend import FileBackend
        from repro.flash.spec import FlashSpec

        spec = FlashSpec(
            n_blocks=12, pages_per_block=8, page_data_size=256, page_spare_size=16
        )
        if backend_kind == "file":
            backend = FileBackend.create(tmp_path / "det.flash", spec)
            chip = FlashChip(spec, backend=backend)
        else:
            chip = FlashChip(spec)
        victims = []

        def recording_policy(blocks):
            victim = greedy_policy(blocks)
            victims.append(victim)
            return victim

        driver = PdlDriver(chip, max_differential_size=64)
        driver.gc.policy = recording_policy
        rng = random.Random(99)
        images = {pid: rng.randbytes(256) for pid in range(10)}
        for pid, data in images.items():
            driver.load_page(pid, data)
        for _ in range(300):
            pid = rng.randrange(10)
            image = bytearray(images[pid])
            offset = rng.randrange(220)
            image[offset : offset + 30] = rng.randbytes(30)
            images[pid] = bytes(image)
            driver.write_page(pid, images[pid])
        chip.close()
        return victims

    def test_identical_victim_sequences(self, tmp_path):
        memory_victims = self._run("memory", tmp_path)
        file_victims = self._run("file", tmp_path)
        assert len(memory_victims) > 0
        assert memory_victims == file_victims
