"""The sharded driver under client threads: gates, plumbing, close, recovery."""

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
from repro.sharding.driver import ShardedDriver
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
        """``par`` is accepted and ignored: every array is gated."""
        driver = make_method("PDL (64B) x2 par", _chips(2))
        try:
            assert type(driver) is ShardedDriver
            assert driver.name == "PDL (64B) x2"
        finally:
            driver.close()

    def test_name_round_trips_through_parser(self):
        driver = make_method("PDL (64B) x2 par", _chips(2))
        try:
            config = EngineConfig.parse(driver.name)
            assert config == EngineConfig.parse("PDL (64B) x2 par")
            assert config.label == driver.name
        finally:
            driver.close()

    def test_par_composes_with_gc_token(self):
        driver = make_method("PDL (64B) x2 par gc=cb", _chips(2))
        try:
            assert type(driver) is ShardedDriver
            assert all(s.gc.config.policy == "cb" for s in driver.shards)
        finally:
            driver.close()

    def test_par_without_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            make_method("PDL (64B) par", FlashChip(SPEC))

    def test_duplicate_par_token_rejected(self):
        with pytest.raises(ConfigurationError, match="more than one parallel token"):
            EngineConfig.parse("PDL (64B) x2 par par")


def _load_then_end(driver):
    rng = random.Random(5)
    driver.load_pages([(pid, rng.randbytes(PAGE)) for pid in range(N_PAGES)])
    driver.end_of_load()


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
        driver.write_pages([(mine[3], page)])  # one shard
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
        driver.close()  # once: the gates shut with it


class TestGateOwnership:
    """Every shard and chip call of every public entry point happens
    while the calling thread holds that shard's gate — not only the GC
    hooks the owner guard covers — and never two threads at once."""

    def test_every_shard_and_chip_call_holds_its_gate(self):
        driver = make_method("PDL (64B) x2", _chips(2))
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

    def test_four_clients_leave_every_shard_consistent(self):
        driver = make_method("PDL (64B) x4", _chips(4), gc=GcConfig(incremental_steps=1))
        _load_then_end(driver)
        models = [{} for _ in range(4)]

        def client(t):
            rng = random.Random(t)
            for i in range(60):
                pid = rng.randrange(t, N_PAGES, 4)
                models[t][pid] = rng.randbytes(PAGE)
                if i % 5 == 4:
                    driver.write_pages(list(models[t].items()))
                    driver.group_flush()
                else:
                    driver.write_page(pid, models[t][pid])

        try:
            _from_clients(4, client)
            for index, shard in enumerate(driver.shards):
                driver.executor.run(index, shard.gc.drain_victim)
                check_driver(shard).raise_if_inconsistent()
            for model in models:
                for pid, data in model.items():
                    assert driver.read_page(pid) == data
        finally:
            driver.close()

    def test_never_two_threads_inside_one_shard(self):
        driver = make_method("PDL (64B) x4", _chips(4))
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
        driver = make_method("PDL (64B) x2", _chips(2))
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
        driver = make_method("PDL (64B) x2", _chips(2))
        _load_then_end(driver)
        driver.close()
        page = bytes(PAGE)
        some = [(pid, page) for pid in range(4)]
        for use in (
            lambda: driver.read_page(0),
            lambda: driver.write_page(0, page),
            lambda: driver.load_page(N_PAGES, page),
            lambda: driver.write_pages(some[:1]),  # one shard
            lambda: driver.write_pages(some),  # a fan-out
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
        driver = make_method("PDL (64B) x2", _chips(2))
        driver.close()
        driver.close()

    @staticmethod
    def _file_array(tmp_path):
        return make_method(
            "PDL (64B) x2",
            [
                FlashChip(SPEC, backend=FileBackend.create(tmp_path / f"s{i}.img", SPEC))
                for i in range(2)
            ],
        )

    def test_file_array_refuses_use_after_close(self, tmp_path):
        """The façade's own closed state answers, not the backend's
        ``ValueError`` ("closed file")."""
        files = self._file_array(tmp_path)
        files.load_page(0, bytes(PAGE))
        files.close()
        files.close()
        with pytest.raises(ConcurrencyError, match="shut down"):
            files.read_page(0)

    def test_a_failing_chip_close_still_closes_the_others(self, tmp_path):
        files = self._file_array(tmp_path)
        chips = files.chips

        def broken_close():
            raise OSError("chip 0 will not close")

        chips[0].close = broken_close
        with pytest.raises(OSError, match="chip 0"):
            files.close()
        with pytest.raises(ValueError, match="closed file"):
            chips[1].sync()
        del chips[0].close  # the real close again
        chips[0].close()


class TestOwnershipGuard:
    def test_gc_hooks_rejected_off_worker_thread(self):
        driver = make_method(
            "PDL (64B) x2", _chips(2), gc=GcConfig(incremental_steps=1)
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
        driver = make_method("PDL (64B) x2", _chips(2))
        try:
            with pytest.raises(ConcurrencyError):
                driver.shards[0].write_page(0, b"\x00" * PAGE)
        finally:
            driver.close()

    def test_unbinding_restores_direct_use(self):
        driver = make_method("PDL (64B) x2", _chips(2))
        try:
            for shard in driver.shards:
                shard.gc.bind_owner(None)
            driver.shards[0].write_page(0, b"\x00" * PAGE)
        finally:
            driver.close()


class TestParallelRecovery:
    @pytest.mark.parametrize("bogus", ["process", "fiber", 1, None, "thread"])
    def test_unknown_parallel_value_rejected(self, bogus):
        """``parallel`` is still accepted as a bool, and ignored; the old
        "thread" spelling went with the process executor."""
        with pytest.raises(ConfigurationError, match=repr(bogus)):
            recover_all(_chips(2), parallel=bogus)

    def test_recovered_driver_usable_from_many_threads(self):
        chips = _chips(2)
        driver = make_method("PDL (64B) x2", chips)
        model = _workload(driver, n_updates=100)
        recovered, _ = recover_all(chips, parallel=True)
        assert recovered.name == "PDL (256B) x2"
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
            recovered.close()
