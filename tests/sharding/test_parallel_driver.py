"""ParallelShardedDriver: equivalence with the serial façade + plumbing."""

import random
import sys
import threading
from contextlib import contextmanager

import pytest

from repro.core.check import check_driver
from repro.flash.backend import FileBackend
from repro.flash.chip import FlashChip
from repro.flash.spec import FlashSpec
from repro.ftl.errors import ConcurrencyError, ConfigurationError
from repro.ftl.gc import GcConfig
from repro.config import EngineConfig
from repro.methods import make_method
from repro.sharding.executor import ParallelShardedDriver, ShardExecutor
from repro.sharding.recovery import recover_all

SPEC = FlashSpec(n_blocks=12, pages_per_block=8, page_data_size=256, page_spare_size=16)
PAGE = SPEC.page_data_size
N_PAGES = 40


def _chips(n):
    return [FlashChip(SPEC) for _ in range(n)]


def _workload(driver, n_updates=300, seed=3):
    """A deterministic mixed single/batched workload; returns the model."""
    rng = random.Random(seed)
    model = {pid: rng.randbytes(PAGE) for pid in range(N_PAGES)}
    driver.load_pages(model.items())
    driver.end_of_load()
    batch = {}
    for i in range(n_updates):
        pid = rng.randrange(N_PAGES)
        image = bytearray(model[pid])
        offset = rng.randrange(PAGE - 32)
        image[offset : offset + 32] = rng.randbytes(32)
        model[pid] = bytes(image)
        # A pid already staged for the batched flush must stay batched,
        # or the eventual write_pages would overwrite newer data.
        if i % 3 == 0 or pid in batch:
            batch[pid] = model[pid]
            if len(batch) >= 8:
                driver.write_pages(list(batch.items()))
                batch.clear()
        else:
            driver.write_page(pid, model[pid])
        if i % 32 == 31:
            driver.group_flush()
    if batch:
        driver.write_pages(list(batch.items()))
    driver.group_flush()
    return model


class TestLabelPlumbing:
    def test_par_label_builds_parallel_driver(self):
        driver = make_method("PDL (64B) x2 par", _chips(2))
        try:
            assert isinstance(driver, ParallelShardedDriver)
            assert driver.name == "PDL (64B) x2 par"
        finally:
            driver.close()

    def test_name_round_trips_through_parser(self):
        driver = make_method("PDL (64B) x2 par", _chips(2))
        try:
            config = EngineConfig.parse(driver.name)
            assert config.parallel and config.n_shards == 2
            assert config.label == driver.name
        finally:
            driver.close()

    def test_par_composes_with_gc_token(self):
        driver = make_method("PDL (64B) x2 par gc=cb", _chips(2))
        try:
            assert isinstance(driver, ParallelShardedDriver)
            assert all(s.gc.config.policy == "cb" for s in driver.shards)
        finally:
            driver.close()

    def test_par_without_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            make_method("PDL (64B) par", FlashChip(SPEC))

    def test_duplicate_par_token_rejected(self):
        with pytest.raises(ConfigurationError, match="more than one parallel token"):
            EngineConfig.parse("PDL (64B) x2 par par")

    def test_mismatched_executor_rejected(self):
        chips = _chips(2)
        shards = [make_method("PDL (64B)", chip) for chip in chips]
        with ShardExecutor(3) as executor:
            with pytest.raises(ConcurrencyError):
                ParallelShardedDriver(shards, executor=executor)


def _assert_same_flash(serial_chips, parallel_chips):
    for s_chip, p_chip in zip(serial_chips, parallel_chips):
        assert s_chip.stats.totals() == p_chip.stats.totals()
        assert s_chip.clock_us == p_chip.clock_us
        for addr in range(SPEC.n_pages):
            assert s_chip.peek_data(addr) == p_chip.peek_data(addr)


def _load_singly(driver):
    rng = random.Random(5)
    for pid in range(N_PAGES):
        driver.load_page(pid, rng.randbytes(PAGE))


def _load_then_end(driver):
    rng = random.Random(5)
    driver.load_pages([(pid, rng.randbytes(PAGE)) for pid in range(N_PAGES)])
    driver.end_of_load()


def _after_workload(entry_point):
    def run(driver):
        model = _workload(driver, n_updates=120)
        return entry_point(driver, model)

    return run


def _flush_pool_batch(driver, model):
    rng = random.Random(9)
    pages = [(pid, rng.randbytes(PAGE)) for pid in sorted(model)[::3]]
    before = driver.group_flushes
    driver.group_flush(pages=pages)
    assert [driver.read_page(pid) for pid, _ in pages] == [d for _, d in pages]
    return driver.group_flushes - before


#: Entry points the update loop of ``_workload`` does not reach, each as
#: ``driver -> comparable result``.
ENTRY_POINTS = {
    "load_page": _load_singly,
    "end_of_load": _load_then_end,
    "fsck": _after_workload(lambda d, _m: d.fsck(repair=True)),
    "sync": _after_workload(lambda d, _m: d.sync()),
    "gc_report": _after_workload(lambda d, _m: d.gc_report()),
    "wear_report": _after_workload(lambda d, _m: d.wear_report()),
    "group_flush_pages": _after_workload(_flush_pool_batch),
}


class TestEquivalenceWithSerial:
    """Shards are independent devices driven in identical per-shard
    order, so the parallel driver must leave byte-identical flash."""

    def test_flash_state_and_stats_match_serial(self):
        serial_chips = _chips(4)
        serial = make_method("PDL (64B) x4 gc=cb", serial_chips)
        model = _workload(serial)

        parallel_chips = _chips(4)
        parallel = make_method("PDL (64B) x4 gc=cb par", parallel_chips)
        try:
            parallel_model = _workload(parallel)
            assert parallel_model == model
            _assert_same_flash(serial_chips, parallel_chips)
            for pid, data in model.items():
                assert parallel.read_page(pid) == data
            for shard in parallel.shards:
                check_driver(shard).raise_if_inconsistent()
        finally:
            parallel.close()

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_entry_point_matches_serial(self, name):
        serial_chips, parallel_chips = _chips(3), _chips(3)
        serial = make_method("PDL (64B) x3", serial_chips)
        parallel = make_method("PDL (64B) x3 par", parallel_chips)
        try:
            assert ENTRY_POINTS[name](parallel) == ENTRY_POINTS[name](serial)
            _assert_same_flash(serial_chips, parallel_chips)
        finally:
            parallel.close()

    def test_phase_attribution_travels_to_workers(self):
        driver = make_method("PDL (64B) x2 par", _chips(2))
        try:
            rng = random.Random(1)
            with driver.stats.phase("custom_phase"):
                driver.load_pages(
                    (pid, rng.randbytes(PAGE)) for pid in range(8)
                )
            counts = driver.stats.of_phase("custom_phase")
            # The shard drivers push their own inner "load" phase; the
            # outer custom phase must at least exist on the stack the
            # worker uses, i.e. attribution must not leak to the
            # unattributed default.
            assert driver.stats.of_phase("unattributed").total_ops == 0
            assert counts.total_ops + driver.stats.of_phase("load").total_ops > 0
        finally:
            driver.close()


#: What the façade may call on a shard driver / on its chip.
SHARD_CALLS = (
    "load_page", "load_pages", "read_page", "write_page", "write_pages",
    "flush", "end_of_load", "fsck",
)
CHIP_CALLS = ("sync", "close")


def _from_clients(n, fn):
    """Run ``fn(t)`` for t in range(n) on n client threads; re-raise."""
    errors = []

    def client(t):
        try:
            fn(t)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(t,)) for t in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive(), "client thread hung"
    if errors:
        raise errors[0]


def _spy(driver, record):
    """Wrap every shard and chip method the facade may call so that
    ``record(shard index, method name)`` brackets the original."""

    def wrap(target, name, index):
        original = getattr(target, name)

        def spied(*args, **kwargs):
            with record(index, name):
                return original(*args, **kwargs)

        setattr(target, name, spied)

    for index, shard in enumerate(driver.shards):
        for name in SHARD_CALLS:
            wrap(shard, name, index)
        for name in CHIP_CALLS:
            wrap(shard.chip, name, index)


def _every_entry_point(driver, n_clients):
    """All public entry points, from ``n_clients`` threads on disjoint pids."""
    page = bytes(PAGE)

    def load(t):
        mine = range(t, N_PAGES, n_clients)
        driver.load_page(mine[0], page)
        driver.load_pages([(pid, page) for pid in mine[1:]])
        driver.end_of_load()

    def operate(t):
        mine = range(t, N_PAGES, n_clients)
        driver.write_page(mine[0], page)
        driver.write_pages([(pid, page) for pid in mine[1:3]])
        driver.write_pages([(mine[3], page)])  # one shard: runs on the caller
        assert driver.read_page(mine[0]) == page
        driver.flush()
        driver.group_flush()
        driver.group_flush(pages=[(pid, page) for pid in mine[3:5]])
        assert driver.fsck(repair=False).clean
        driver.sync()

    try:
        _from_clients(n_clients, load)
        _from_clients(n_clients, operate)
    finally:
        driver.close()  # once: the pool stops with it


class TestGateOwnership:
    """Every shard and chip call of every public entry point happens
    while the calling thread holds that shard's gate — not only the GC
    hooks the owner guard covers — and never two threads at once."""

    def test_every_shard_and_chip_call_holds_its_gate(self):
        driver = make_method("PDL (64B) x2 par", _chips(2))
        calls = []  # (shard index, method name, gate held?, thread ident)

        @contextmanager
        def record(index, name):
            calls.append(
                (index, name, driver.executor.holds(index), threading.get_ident())
            )
            yield

        _spy(driver, record)
        _every_entry_point(driver, n_clients=2)

        assert {name for _, name, _, _ in calls} == set(SHARD_CALLS + CHIP_CALLS)
        assert {index for index, _, _, _ in calls} == {0, 1}
        strays = [(i, name) for i, name, held, _ in calls if not held]
        assert not strays, strays
        # Single-page operations are never handed off: they ran on
        # client threads, which are gone; the workers saw only fan-outs.
        workers = {t.ident for t in driver.executor._threads}
        single = {"load_page", "read_page", "write_page"}
        assert not [c for c in calls if c[1] in single and c[3] in workers]
        assert [c for c in calls if c[1] == "flush" and c[3] in workers]

    def test_never_two_threads_inside_one_shard(self):
        driver = make_method("PDL (64B) x4 par", _chips(4))
        inside = [0] * 4
        peak = [0] * 4

        @contextmanager
        def record(index, _name):
            inside[index] += 1
            peak[index] = max(peak[index], inside[index])
            try:
                yield
            finally:
                inside[index] -= 1

        _spy(driver, record)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # preempt inside the shard calls
        try:
            _every_entry_point(driver, n_clients=8)
        finally:
            sys.setswitchinterval(interval)
        # 1, not 0 or 2: every shard was entered, by one thread at a
        # time (a batched shard call entering its own write_page would
        # nest, and no shard driver does).
        assert peak == [1] * 4
        assert inside == [0] * 4

    def test_a_blocked_shard_blocks_only_its_own_clients(self):
        """Shard 0 stuck inside a chip read holds gate 0 and nothing
        else: shard 1 serves its client, shard 0's next client waits."""
        driver = make_method("PDL (64B) x2 par", _chips(2))
        try:
            _load_then_end(driver)
            on_shard = {0: [], 1: []}
            for pid in range(N_PAGES):
                on_shard[driver.shard_index(pid)].append(pid)
            entered, release = threading.Event(), threading.Event()
            chip = driver.shards[0].chip
            original = chip.read_page

            def stuck_read(addr):
                entered.set()
                assert release.wait(timeout=30)
                return original(addr)

            chip.read_page = stuck_read
            done = {name: threading.Event() for name in "abc"}

            def client(name, pid):
                driver.read_page(pid)
                done[name].set()

            threads = [threading.Thread(target=client, args=("a", on_shard[0][0]))]
            threads[0].start()
            assert entered.wait(timeout=30)  # a is inside shard 0's chip
            chip.read_page = original  # later readers do not block there
            threads.append(threading.Thread(target=client, args=("b", on_shard[1][0])))
            threads.append(threading.Thread(target=client, args=("c", on_shard[0][1])))
            for thread in threads[1:]:
                thread.start()
            assert done["b"].wait(timeout=30)
            assert not done["c"].wait(timeout=0.2)
            assert not done["a"].is_set()
            release.set()
            for thread in threads:
                thread.join(timeout=30)
            assert all(event.is_set() for event in done.values())
        finally:
            release.set()
            driver.close()


class TestUseAfterClose:
    def test_parallel_driver_refuses_every_entry_point(self):
        driver = make_method("PDL (64B) x2 par", _chips(2))
        _load_then_end(driver)
        driver.close()
        page = bytes(PAGE)
        some = [(pid, page) for pid in range(4)]
        for use in (
            lambda: driver.read_page(0),
            lambda: driver.write_page(0, page),
            lambda: driver.load_page(N_PAGES, page),
            lambda: driver.write_pages(some[:1]),  # one shard: the gate path
            lambda: driver.write_pages(some),  # fan-out: the worker path
            lambda: driver.load_pages(some),
            lambda: driver.group_flush(pages=some),
            driver.flush,
            driver.end_of_load,
            driver.fsck,
            driver.sync,
        ):
            with pytest.raises(ConcurrencyError, match="shut down"):
                use()

    def test_parallel_close_is_idempotent(self):
        driver = make_method("PDL (64B) x2 par", _chips(2))
        driver.close()
        driver.close()

    def test_serial_driver_has_no_closed_state_of_its_own(self, tmp_path):
        """Documented, not endorsed: the serial facade forwards to its
        chips, so use after close() is whatever the backend does — a
        memory chip keeps answering, a file chip raises ValueError."""
        page = bytes(PAGE)
        memory = make_method("PDL (64B) x2", _chips(2))
        memory.load_page(0, page)
        memory.close()
        memory.close()
        assert memory.read_page(0) == page

        files = make_method(
            "PDL (64B) x2",
            [
                FlashChip(SPEC, backend=FileBackend.create(tmp_path / f"s{i}.img", SPEC))
                for i in range(2)
            ],
        )
        files.load_page(0, page)
        files.close()
        files.close()
        with pytest.raises(ValueError, match="closed file"):
            files.read_page(0)


class TestOwnershipGuard:
    def test_gc_hooks_rejected_off_worker_thread(self):
        driver = make_method(
            "PDL (64B) x2 par", _chips(2), gc=GcConfig(incremental_steps=1)
        )
        try:
            with pytest.raises(ConcurrencyError, match="gate"):
                driver.shards[0].gc.on_write_begin()
            # Routed through the facade, which takes the gate, the same
            # hook is legal.
            driver.write_page(0, b"\x00" * PAGE)
        finally:
            driver.close()

    def test_direct_shard_write_bypassing_mailbox_rejected(self):
        """(Named before ownership became a gate: "the mailbox" is the
        facade, the only code that takes one.)"""
        driver = make_method("PDL (64B) x2 par", _chips(2))
        try:
            with pytest.raises(ConcurrencyError):
                driver.shards[0].write_page(0, b"\x00" * PAGE)
        finally:
            driver.close()

    def test_unbinding_restores_direct_use(self):
        driver = make_method("PDL (64B) x2 par", _chips(2))
        try:
            for shard in driver.shards:
                shard.gc.bind_owner(None)
            driver.shards[0].write_page(0, b"\x00" * PAGE)
        finally:
            driver.close()


class TestParallelRecovery:
    def test_parallel_scan_matches_serial_scan(self):
        chips = _chips(3)
        driver = make_method("PDL (64B) x3", chips)
        model = _workload(driver, n_updates=150)

        serial, serial_reports = recover_all(chips, parallel=False)
        parallel, parallel_reports = recover_all(chips, parallel=True)
        try:
            assert isinstance(parallel, ParallelShardedDriver)
            for ser, par in zip(serial_reports, parallel_reports):
                assert ser.pages_scanned == par.pages_scanned
                assert ser.base_pages_adopted == par.base_pages_adopted
                assert ser.differentials_adopted == par.differentials_adopted
                assert ser.max_timestamp == par.max_timestamp
            for pid, data in model.items():
                assert parallel.read_page(pid) == data
        finally:
            parallel.executor.shutdown()

    @pytest.mark.parametrize("bogus", ["process", "fiber", 1, None, "thread"])
    def test_unknown_parallel_value_rejected(self, bogus):
        """``parallel`` is a bool; the old "thread" spelling went with the
        process executor that made it necessary."""
        with pytest.raises(ConfigurationError, match=repr(bogus)):
            recover_all(_chips(2), parallel=bogus)

    def test_recovered_driver_usable_from_many_threads(self):
        chips = _chips(2)
        driver = make_method("PDL (64B) x2", chips)
        model = _workload(driver, n_updates=100)
        recovered, _ = recover_all(chips, parallel=True)
        try:
            errors = []

            def reader(t):
                try:
                    for pid in range(t, N_PAGES, 4):
                        assert recovered.read_page(pid) == model[pid]
                except BaseException as exc:  # surfaced after join
                    errors.append(exc)

            threads = [
                threading.Thread(target=reader, args=(t,)) for t in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
        finally:
            recovered.executor.shutdown()
