"""Backend equivalence: memory and file images are indistinguishable.

Two properties:

* **Chip-level**: the same operation sequence against a
  :class:`MemoryBackend` chip and a :class:`FileBackend` chip leaves
  byte-identical data areas, spare areas, program counters, erase
  counts and erased blocks on both — including sequences where some
  operations are rejected (NAND rule violations must not leave partial
  state on either side).
* **Driver-level**: the same PDL workload over both backends yields
  identical page images, and after a flush + Figure-11 recovery both
  sides reconstruct identical ``ppmt`` and ``vdct`` tables.

The recovery scan's bulk reads (``read_spare_range``,
``read_data_areas``) are held equal, on each backend, to the
per-address reads they replace.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pdl import PdlDriver
from repro.core.recovery import recover_driver
from repro.flash.backend import FaultInjectionError, FaultInjector, FileBackend, MemoryBackend
from repro.flash.chip import FlashChip
from repro.flash.errors import FlashError
from repro.flash.spare import PageType, SpareArea, spare_records
from repro.flash.spec import FlashSpec

SPEC = FlashSpec(n_blocks=4, pages_per_block=4, page_data_size=64, page_spare_size=16)


# One chip operation: (kind, addr-or-block, payload seed)
_ops = st.tuples(
    st.sampled_from(["program", "batch", "partial", "obsolete", "erase"]),
    st.integers(0, SPEC.n_pages - 1),
    st.integers(0, 2**16),
)


def _apply(chip: FlashChip, op) -> str:
    """Run one op; returns an outcome tag (must match across backends)."""
    kind, addr, seed = op
    rng = random.Random(seed)
    try:
        if kind == "program":
            chip.program_page(
                addr,
                rng.randbytes(SPEC.page_data_size),
                SpareArea(type=PageType.BASE, pid=addr, timestamp=seed),
            )
        elif kind == "batch":
            count = 1 + seed % 3
            addrs = [(addr + i) % SPEC.n_pages for i in range(count)]
            chip.program_pages(
                [
                    (
                        a,
                        rng.randbytes(SPEC.page_data_size),
                        SpareArea(type=PageType.BASE, pid=a, timestamp=seed + i),
                    )
                    for i, a in enumerate(addrs)
                ]
            )
        elif kind == "partial":
            offset = (seed % 4) * 16
            chip.program_partial(addr, offset, rng.randbytes(16))
        elif kind == "obsolete":
            chip.mark_obsolete(addr)
        else:
            chip.erase_block(addr % SPEC.n_blocks)
        return f"{kind}:ok"
    except FlashError as exc:
        return f"{kind}:{type(exc).__name__}"


def _chip_state(chip: FlashChip):
    return (
        [chip.peek_data(a) for a in range(SPEC.n_pages)],
        [chip.peek_spare(a) for a in range(SPEC.n_pages)],
        [chip.backend.data_programs(a) for a in range(SPEC.n_pages)],
        [chip.backend.spare_programs(a) for a in range(SPEC.n_pages)],
        [chip.erase_count(b) for b in range(SPEC.n_blocks)],
        sorted(chip.iter_programmed_pages()),
        chip.erased_blocks(),
        [chip.is_block_erased(b) for b in range(SPEC.n_blocks)],
    )


class TestChipEquivalence:
    @given(ops=st.lists(_ops, max_size=24))
    @settings(max_examples=40, deadline=None)
    def test_same_ops_same_bits(self, ops, tmp_path_factory):
        mem_chip = FlashChip(SPEC, backend=MemoryBackend(SPEC))
        path = tmp_path_factory.mktemp("prop") / "chip.flash"
        file_chip = FlashChip(SPEC, backend=FileBackend(path, SPEC))
        try:
            for op in ops:
                assert _apply(mem_chip, op) == _apply(file_chip, op)
            assert _chip_state(mem_chip) == _chip_state(file_chip)
        finally:
            file_chip.close()


class TestBulkScanReads:
    @given(
        ops=st.lists(_ops, max_size=24),
        tears=st.lists(st.tuples(st.integers(0, SPEC.n_pages - 1), st.integers(1, 15)), max_size=4),
        span=st.tuples(st.integers(0, SPEC.n_pages), st.integers(0, SPEC.n_pages)),
        addrs=st.lists(st.integers(0, SPEC.n_pages - 1), max_size=12),
        kind=st.sampled_from(["memory", "file"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bulk_reads_equal_the_per_address_joins(
        self, ops, tears, span, addrs, kind, tmp_path_factory
    ):
        """Erased pages (a file image keeps their old bytes on disk),
        obsoleted and torn spares, any order and repeats."""
        if kind == "memory":
            backend = MemoryBackend(SPEC)
        else:
            backend = FileBackend(tmp_path_factory.mktemp("prop") / "chip.flash", SPEC)
        chip = FlashChip(SPEC, backend=backend)
        try:
            for op in ops:
                _apply(chip, op)
            for addr, tear_at in tears:
                try:
                    FaultInjector(backend).inject_torn_spare(addr, tear_at)
                except FaultInjectionError:
                    pass  # erased, or tearing there changes nothing
            start, stop = sorted(span)
            erased_spare = b"\xff" * SPEC.page_spare_size
            by_address = [backend.read_spare(addr) for addr in range(start, stop)]
            spares = b"".join(erased_spare if raw is None else raw for raw in by_address)
            assert backend.read_spares(range(start, stop)) == by_address
            assert bytes(backend.read_spare_range(start, stop)) == spares
            records = chip.read_spare_records(range(start, stop))
            assert records.tolist() == spare_records(spares, SPEC.page_spare_size).tolist()
            erased_data = b"\xff" * SPEC.page_data_size
            by_address = [backend.read_data(addr) for addr in addrs]
            data = b"".join(erased_data if raw is None else raw for raw in by_address)
            assert [raw for raw, _spare in backend.read_pages(addrs)] == by_address
            assert bytes(backend.read_data_areas(addrs)) == data
            assert bytes(chip.read_data_areas(addrs)) == data
        finally:
            chip.close()


class TestDriverEquivalence:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_pids=st.integers(1, 5),
        n_writes=st.integers(0, 40),
    )
    @settings(max_examples=15, deadline=None)
    def test_same_workload_same_recovered_tables(
        self, seed, n_pids, n_writes, tmp_path_factory
    ):
        spec = FlashSpec(
            n_blocks=6, pages_per_block=8, page_data_size=128, page_spare_size=16
        )
        path = tmp_path_factory.mktemp("prop") / "chip.flash"
        drivers = [
            PdlDriver(FlashChip(spec, backend=MemoryBackend(spec)),
                      max_differential_size=32),
            PdlDriver(FlashChip(spec, backend=FileBackend(path, spec)),
                      max_differential_size=32),
        ]
        try:
            rng = random.Random(seed)
            images = {}
            for pid in range(n_pids):
                images[pid] = rng.randbytes(spec.page_data_size)
            script = []
            for _ in range(n_writes):
                pid = rng.randrange(n_pids)
                img = bytearray(images[pid])
                off = rng.randrange(spec.page_data_size - 16)
                img[off : off + 16] = rng.randbytes(16)
                images[pid] = bytes(img)
                script.append((pid, images[pid]))
            # Replay the identical load + write script on each driver.
            for driver in drivers:
                gen = random.Random(seed)
                initial = {pid: gen.randbytes(spec.page_data_size) for pid in range(n_pids)}
                driver.load_pages(sorted(initial.items()))
                for pid, img in script:
                    driver.write_page(pid, img)
                driver.flush()
            mem_driver, file_driver = drivers
            for pid in range(n_pids):
                assert mem_driver.read_page(pid) == file_driver.read_page(pid)
            rec_mem, _ = recover_driver(mem_driver.chip, max_differential_size=32)
            rec_file, _ = recover_driver(file_driver.chip, max_differential_size=32)
            assert dict(rec_mem.ppmt.items()) == dict(rec_file.ppmt.items())
            assert {a: rec_mem.vdct.count(a) for a in rec_mem.vdct.pages()} == {
                a: rec_file.vdct.count(a) for a in rec_file.vdct.pages()
            }
            assert rec_mem.current_ts == rec_file.current_ts
            for pid in range(n_pids):
                assert rec_mem.read_page(pid) == rec_file.read_page(pid)
        finally:
            drivers[1].chip.close()
