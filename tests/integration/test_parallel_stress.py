"""Thread-safety stress: many clients hammering one parallel array.

Eight client threads drive a 4-shard :class:`ShardedDriver`
concurrently — single-page reads/writes, batched buffer-pool flushes and
group flushes, on both device backends.  Afterwards the test holds the
driver to the same standards as any serial run:

* every page reads back its expected (per-thread deterministic) image;
* ``check.py`` finds all four shards internally consistent;
* the merged :class:`AggregateStats` operation totals equal raw device
  counters collected independently at each chip's entry points — the
  PR 3 phase-partition audit extended across threads: no operation is
  lost or double-counted when accounting happens on whichever client
  thread holds the shard's gate.
"""

import random
import threading

import pytest

from repro.core.check import check_driver
from repro.flash.backend import FileBackend
from repro.flash.chip import FlashChip
from repro.flash.spec import FlashSpec
from repro.flash.stats import DEFAULT_PHASE
from repro.ftl.gc import GcConfig
from repro.methods import make_method

SPEC = FlashSpec(n_blocks=14, pages_per_block=8, page_data_size=256, page_spare_size=16)
PAGE = SPEC.page_data_size

N_SHARDS = 4
N_CLIENTS = 8
N_PAGES = 160
OPS_PER_CLIENT = 150


def _raw_counted_chip(spec, backend):
    """A chip whose device entry points are independently counted.

    The counters are a ground truth outside the stats layer: mutating
    ops are observed via ``on_operation``, reads by wrapping the read
    entry points.  Each chip is touched only under its shard's gate,
    one thread at a time, so the plain dict needs no lock.
    """
    chip = FlashChip(spec, backend=backend)
    raw = {"reads": 0, "writes": 0, "erases": 0}

    def count_mutating(op):
        raw["erases" if op == "erase_block" else "writes"] += 1

    chip.on_operation(count_mutating)
    for name, weight in (
        ("read_page", lambda a: 1),
        ("read_spare", lambda a: 1),
        ("read_pages", len),
        ("read_spares", len),
    ):
        original = getattr(chip, name)

        def wrapped(arg, _original=original, _weight=weight):
            raw["reads"] += _weight(arg)
            return _original(arg)

        setattr(chip, name, wrapped)
    return chip, raw


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_eight_clients_over_four_shards(backend, tmp_path):
    chips, raws = [], []
    for i in range(N_SHARDS):
        device = None
        if backend == "file":
            device = FileBackend.create(str(tmp_path / f"shard-{i}.flash"), SPEC)
        chip, raw = _raw_counted_chip(SPEC, device)
        chips.append(chip)
        raws.append(raw)
    driver = make_method(
        f"PDL (64B) x{N_SHARDS}",
        chips,
        gc=GcConfig(incremental_steps=2, hot_cold=True),
    )
    try:
        seed_rng = random.Random(20100130)
        model = [seed_rng.randbytes(PAGE) for _ in range(N_PAGES)]
        driver.load_pages(list(enumerate(model)))
        driver.end_of_load()

        errors = []

        def client(t):
            rng = random.Random(1000 + t)
            pids = list(range(t, N_PAGES, N_CLIENTS))
            try:
                batch = {}
                for op in range(OPS_PER_CLIENT):
                    pid = pids[rng.randrange(len(pids))]
                    flash_image = driver.read_page(pid)
                    if pid not in batch:  # staged pages differ on purpose
                        assert flash_image == model[pid], (
                            f"client {t}: stale pid {pid}"
                        )
                    image = bytearray(model[pid])
                    offset = rng.randrange(PAGE - 24)
                    image[offset : offset + 24] = rng.randbytes(24)
                    model[pid] = bytes(image)
                    # A pid staged for the batched flush stays batched:
                    # flushing a stale copy over a newer single write
                    # would corrupt the model.
                    if op % 4 == 3 or pid in batch:
                        batch[pid] = model[pid]
                        if len(batch) >= 6:
                            driver.write_pages(list(batch.items()))
                            batch.clear()
                    else:
                        driver.write_page(pid, model[pid])
                    if op % 50 == 49:
                        driver.group_flush()
                if batch:
                    driver.write_pages(list(batch.items()))
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(t,), name=f"client-{t}")
            for t in range(N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        driver.group_flush()

        # Every client's final image survived the interleaving.
        for pid in range(N_PAGES):
            assert driver.read_page(pid) == model[pid], f"pid {pid} corrupted"

        # Each shard passes the full fsck cross-validation — at a
        # consistency point: while an incremental victim is in flight
        # its differential pages have lost their vdct rows and bitmap
        # bits but the entries still point at them until the compaction
        # buffer flushes (GarbageCollector.drain_victim), and which
        # write a run ends on depends on the interleaving.
        for index, shard in enumerate(driver.shards):
            driver.executor.run(index, shard.gc.drain_victim)
            check_driver(shard).raise_if_inconsistent()

        # The stats audit: merged AggregateStats totals must equal the
        # independently counted raw device operations, shard by shard
        # and in aggregate, and nothing may land unattributed.
        for chip, raw in zip(chips, raws):
            totals = chip.stats.totals()
            assert totals.reads == raw["reads"]
            assert totals.writes == raw["writes"]
            assert totals.erases == raw["erases"]
            assert chip.stats.of_phase(DEFAULT_PHASE).total_ops == 0
        merged = driver.stats.totals()
        assert merged.reads == sum(raw["reads"] for raw in raws)
        assert merged.writes == sum(raw["writes"] for raw in raws)
        assert merged.erases == sum(raw["erases"] for raw in raws)
        # Stall histograms merge too: one sample per logical write path
        # entry, pooled across shards.
        assert len(driver.stats.write_stall_us) == sum(
            len(chip.stats.write_stall_us) for chip in chips
        )
        assert driver.stats.gc_steps == sum(chip.stats.gc_steps for chip in chips)
    finally:
        driver.close()
