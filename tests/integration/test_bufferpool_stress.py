"""Thread-safety stress: many clients sharing one buffer pool.

Eight client threads hammer one :class:`Database` — a shared
:class:`BufferManager` over a 4-shard :class:`ShardedDriver` — on both
device backends.  Each client
owns a disjoint pid partition (the same single-writer-per-pid contract
as the driver-level stress test) and accesses pages exclusively through
``pool.pinned``.  Afterwards the pool is held to the full standard:

* every page reads back its expected per-thread deterministic image,
  from flash, after a final flush;
* ``check.py`` finds all four shards internally consistent;
* no pins leak: every resident frame ends with ``pin_count == 0``;
* the :class:`BufferStats` audit: pool misses equal the driver-level
  read count exactly (lost miss races included), and the pool's flashed
  pages (dirty evictions + flushes) equal the driver-level written-page
  count — no page write is lost or double-counted when evictions and
  flushes from eight threads interleave.

A second case holds what a pin is: pool state, counted under the pool
lock, whose last release hands the frame back to the eviction order.
Four threads each hold a pin on one of ten times the pool's pages while
fetching, pinned, from a hot set of the pool's size, so evictions keep
meeting held frames and parking them.  Afterwards no pin is left, the
policy ranks exactly the resident frames and keeps no frame parked, and
no thread met "all buffer frames are pinned" — none holds more than two
of the twelve frames.  Dropping the unpark on the last unpin fails it.

A third case holds the rule the pool's readers rest on — *a latch
orders multi-step mutations, never a single read* (``repro/storage/
page.py``): one writer stamps whole records with one ``page.write``
while reader threads ``read``, snapshot and decode the same frames with
no latch, and no reader may ever see a record half old and half new.
"""

import random
import struct
import sys
import threading

import pytest

from repro.core.check import check_driver
from repro.flash.backend import FileBackend
from repro.flash.chip import FlashChip
from repro.flash.spec import FlashSpec
from repro.ftl.gc import GcConfig
from repro.methods import make_method
from repro.storage.db import Database

SPEC = FlashSpec(n_blocks=14, pages_per_block=8, page_data_size=256, page_spare_size=16)
PAGE = SPEC.page_data_size

N_SHARDS = 4
N_CLIENTS = 8
N_PAGES = 160
BUFFER_PAGES = 48
OPS_PER_CLIENT = 120


class CountingDriver:
    """Proxy that counts driver-level reads and written pages.

    The counters are ground truth outside the stats layer, taken at the
    pool/driver seam; everything else delegates to the real parallel
    driver.
    """

    def __init__(self, inner):
        self._inner = inner
        self._lock = threading.Lock()
        self.reads = 0
        self.pages_written = 0

    def read_page(self, pid):
        with self._lock:
            self.reads += 1
        return self._inner.read_page(pid)

    def write_page(self, pid, data, update_logs=None):
        with self._lock:
            self.pages_written += 1
        self._inner.write_page(pid, data, update_logs=update_logs)

    def write_pages(self, pages, update_logs=None):
        pages = list(pages)
        with self._lock:
            self.pages_written += len(pages)
        self._inner.write_pages(pages, update_logs=update_logs)

    def group_flush(self, pages=None, update_logs=None):
        if pages is not None:
            pages = list(pages)
            with self._lock:
                self.pages_written += len(pages)
        self._inner.group_flush(pages=pages, update_logs=update_logs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def open_pool(backend, tmp_path, model, capacity=BUFFER_PAGES):
    """A pool over a counted 4-shard driver loaded with ``model``:
    ``(db, counted driver, raw driver)``."""
    chips = []
    for i in range(N_SHARDS):
        device = None
        if backend == "file":
            device = FileBackend.create(str(tmp_path / f"shard-{i}.flash"), SPEC)
        chips.append(FlashChip(SPEC, backend=device))
    raw_driver = make_method(
        f"PDL (64B) x{N_SHARDS}",
        chips,
        gc=GcConfig(incremental_steps=2, hot_cold=True),
    )
    driver = CountingDriver(raw_driver)
    raw_driver.load_pages(list(enumerate(model)))
    raw_driver.end_of_load()
    db = Database.resume(driver, capacity, len(model), buffer_policy="lru")
    return db, driver, raw_driver


def audit_quiesced_pool(db, driver):
    """After the last flush, before anything reads the driver directly:
    the BufferStats audit, no pin leaks, nothing left dirty."""
    stats = db.buffer_stats
    assert stats.misses == driver.reads, (
        f"pool misses {stats.misses} != driver reads {driver.reads}"
    )
    assert stats.flashed_pages == driver.pages_written, (
        f"pool flashed pages {stats.flashed_pages} != driver writes "
        f"{driver.pages_written}"
    )
    leaked = [page.pid for page in db.pool.pages() if page.pin_count]
    assert not leaked, f"leaked pins on pages {leaked}"
    assert db.pool.pinned_count() == 0
    assert db.pool.dirty_count == 0  # everything flushed


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_eight_clients_share_one_pool(backend, tmp_path):
    seed_rng = random.Random(20100220)
    model = [seed_rng.randbytes(PAGE) for _ in range(N_PAGES)]
    db, driver, raw_driver = open_pool(backend, tmp_path, model)
    try:
        errors = []

        def client(t):
            rng = random.Random(3000 + t)
            pids = list(range(t, N_PAGES, N_CLIENTS))
            try:
                for op in range(OPS_PER_CLIENT):
                    pid = pids[rng.randrange(len(pids))]
                    with db.pool.pinned(pid) as page:
                        # Verify against the model, then mutate it.
                        current = page.data
                        assert current == model[pid], f"client {t}: stale {pid}"
                        image = bytearray(current)
                        offset = rng.randrange(PAGE - 24)
                        image[offset : offset + 24] = rng.randbytes(24)
                        model[pid] = bytes(image)
                        page.write(offset, model[pid][offset : offset + 24])
                    if op % 40 == 39:
                        db.flush()
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(t,), name=f"pool-client-{t}")
            for t in range(N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        db.flush()

        stats = db.buffer_stats
        assert stats.hits + stats.misses == N_CLIENTS * OPS_PER_CLIENT

        # *Before* the verification reads below touch the driver
        # outside the pool.
        audit_quiesced_pool(db, driver)

        # Every client's final image survived the interleaving.
        for pid in range(N_PAGES):
            assert raw_driver.read_page(pid) == model[pid], f"pid {pid} corrupted"

        # Each shard passes the full fsck cross-validation — at a
        # consistency point: an incremental GC victim may be in flight
        # after the last flush (which write a run ends on depends on the
        # interleaving), and until it is drained its differential pages
        # have lost their vdct rows and bitmap bits while entries still
        # point at them.
        for index, shard in enumerate(raw_driver.shards):
            raw_driver.executor.run(index, shard.gc.drain_victim)
            check_driver(shard).raise_if_inconsistent()
    finally:
        db.pool.close()
        raw_driver.close()


PINNERS = 4
PINNED_POOL = 12  # > 2 pins x PINNERS: some frame is always unpinned
PINNED_PAGES = 10 * PINNED_POOL  # held pins spread over these ...
PINNED_HOT_SET = PINNED_POOL  # ... while the fetches under them hit these
PINNER_OPS = 600


def test_every_unpin_hands_the_frame_back_to_the_eviction_order(tmp_path):
    model = [bytes(PAGE)] * PINNED_PAGES
    db, driver, raw_driver = open_pool("memory", tmp_path, model, capacity=PINNED_POOL)
    pool, errors = db.pool, []

    def pinner(t):
        rng = random.Random(7000 + t)
        try:
            for op in range(PINNER_OPS):
                pid = rng.randrange(PINNED_PAGES)
                with pool.pinned(pid) as page:
                    if pid % PINNERS == t and op % 4 == 0:  # one writer per pid
                        page.write(0, op.to_bytes(4, "little"))
                    for _ in range(3):  # misses here evict around the pin
                        with pool.pinned(rng.randrange(PINNED_HOT_SET)):
                            pass
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=pinner, args=(t,), name=f"pinner-{t}")
        for t in range(PINNERS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
        assert not [thread.name for thread in threads if thread.is_alive()]
        if errors:
            raise errors[0]
        resident = {page.pid: page for page in pool.pages()}
        assert [pid for pid, page in resident.items() if page.pin_count] == []
        assert sorted(pool.policy.iter_pids()) == sorted(resident)
        offered = []  # what the next eviction scan would consider
        pool.policy.select_victim(lambda pid: offered.append(pid) and False)
        parked = [pid for pid in resident if pid not in offered]
        assert not parked, f"unpinned frames left parked: {parked}"
        assert pool.stats.pinned_skips > 0, "no eviction ever met a pin"
        db.flush()
        audit_quiesced_pool(db, driver)
    finally:
        sys.setswitchinterval(interval)
        db.pool.close()
        raw_driver.close()


RECORD_WORDS = 16
RECORD = struct.Struct(f"<{RECORD_WORDS}I")  # one sequence number, repeated
RECORDS_PER_PAGE = PAGE // RECORD.size
N_READERS = 4
SHARED_PAGES = 96  # twice the pool: readers and the writer evict each other
HOT_PAGES = 4  # ... and meet on these, where a torn write would be seen
WRITER_OPS = 2500
JOIN_TIMEOUT_S = 120.0


def stamp(seq):
    return RECORD.pack(*[seq] * RECORD_WORDS)


def pick_page(rng):
    return rng.randrange(HOT_PAGES if rng.random() < 0.75 else SHARED_PAGES)


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_latch_free_readers_never_see_a_torn_record(backend, tmp_path):
    # model[pid][slot] is the sequence number last stamped there; only
    # the writer thread touches it until every thread is joined.
    model = [[0] * RECORDS_PER_PAGE for _ in range(SHARED_PAGES)]
    db, driver, raw_driver = open_pool(
        backend, tmp_path, [stamp(0) * RECORDS_PER_PAGE] * SHARED_PAGES
    )
    errors = []
    done = threading.Event()
    reads = [0] * N_READERS

    def writer():
        rng = random.Random(41)
        try:
            for seq in range(1, WRITER_OPS + 1):
                pid, slot = pick_page(rng), rng.randrange(RECORDS_PER_PAGE)
                with db.pool.pinned(pid) as page:
                    page.write(slot * RECORD.size, stamp(seq))
                model[pid][slot] = seq
                if seq % 500 == 0:
                    db.flush()
        except BaseException as exc:
            errors.append(exc)
        finally:
            done.set()

    def reader(r):
        rng = random.Random(5000 + r)
        newest = {}  # (pid, slot) -> highest sequence number this reader saw
        try:
            while not done.is_set():
                pid = pick_page(rng)
                with db.pool.pinned(pid) as page:
                    snapshot = page.data
                    for slot in range(RECORDS_PER_PAGE):
                        at = slot * RECORD.size
                        for words in (
                            RECORD.unpack(page.read(at, RECORD.size)),
                            RECORD.unpack_from(page.view, at),
                            RECORD.unpack_from(snapshot, at),
                        ):
                            assert len(set(words)) == 1, (
                                f"reader {r}: torn record {pid}/{slot}: {words}"
                            )
                        # Read last, so no older than anything seen before:
                        # a frame admitted from a stale flash image would be.
                        seq = RECORD.unpack_from(page.view, at)[0]
                        assert seq >= newest.get((pid, slot), 0), (
                            f"reader {r}: record {pid}/{slot} went back to {seq}"
                        )
                        newest[pid, slot] = seq
                reads[r] += 1
        except BaseException as exc:
            errors.append(exc)
            done.set()

    threads = [threading.Thread(target=writer, name="stamp-writer")] + [
        threading.Thread(target=reader, args=(r,), name=f"stamp-reader-{r}")
        for r in range(N_READERS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads every few bytecodes
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
        hung = [thread.name for thread in threads if thread.is_alive()]
        done.set()
        assert not hung, f"threads still running: {hung}"
        if errors:
            raise errors[0]
        assert all(reads), f"a reader never ran: {reads}"
        db.flush()
        audit_quiesced_pool(db, driver)
        for pid, seqs in enumerate(model):
            assert raw_driver.read_page(pid) == b"".join(map(stamp, seqs)), (
                f"pid {pid} differs on flash"
            )
    finally:
        sys.setswitchinterval(interval)
        db.pool.close()
        raw_driver.close()
