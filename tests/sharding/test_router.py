"""Unit tests for shard routers (hash / range / factory)."""

import random
import sys
import threading

import pytest

from repro.sharding.router import HashRouter, RangeRouter, ShardRouter, make_router


class TestHashRouter:
    def test_in_range_and_deterministic(self):
        router = HashRouter(4)
        for pid in range(500):
            shard = router.shard_of(pid)
            assert 0 <= shard < 4
            assert router.shard_of(pid) == shard

    def test_single_shard_degenerates(self):
        router = HashRouter(1)
        assert all(router.shard_of(pid) == 0 for pid in range(100))

    def test_balance_on_sequential_pids(self):
        """The mixer must spread a sequential id space near-uniformly —
        within 25% of the ideal share on a 4-way split of 4096 pids."""
        router = HashRouter(4)
        counts = [0] * 4
        for pid in range(4096):
            counts[router.shard_of(pid)] += 1
        ideal = 4096 / 4
        for count in counts:
            assert abs(count - ideal) < ideal * 0.25

    def test_decorrelated_from_low_bits(self):
        """Strided access (every 4th page) must not collapse to one shard
        the way a bare ``pid % 4`` would."""
        router = HashRouter(4)
        hit = {router.shard_of(pid) for pid in range(0, 512, 4)}
        assert len(hit) == 4

    @pytest.mark.parametrize("n_shards", [1, 4, 7, 300])
    def test_every_pid_routes_by_the_splitmix64_finalizer(self, n_shards):
        """Routing is a stable partition — recovery re-attaches pages by
        it — so table lookups and the past-the-table path must both give
        ``splitmix64(pid) % n``, whatever order pids first arrive in."""
        mask = (1 << 64) - 1

        def splitmix64(x):
            x = (x + 0x9E3779B97F4A7C15) & mask
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
            return x ^ (x >> 31)

        pids = [9000, 0, 1, 4095, 4096, 8191, 8192, 123_457, (1 << 22) - 1]
        pids += [1 << 22, 10**12, mask, 1 << 64, (1 << 70) + 5]
        router = HashRouter(n_shards)
        for pid in pids + list(range(0, 20_000, 7)):
            assert router.shard_of(pid) == splitmix64(pid) % n_shards, pid

    def test_threads_growing_the_table_agree(self):
        """Client threads share one router; first routes that grow its
        table concurrently must all see the answers one thread would."""
        alone = HashRouter(4)
        reference = [alone.shard_of(pid) for pid in range(20_000)]
        router = HashRouter(4)
        wrong = []

        def client(seed):
            for pid in random.Random(seed).sample(range(20_000), 2_000):
                if router.shard_of(pid) != reference[pid]:
                    wrong.append(pid)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestRangeRouter:
    def test_contiguous_ranges(self):
        router = RangeRouter(3, pages_per_shard=10)
        assert [router.shard_of(p) for p in (0, 9, 10, 19, 20, 29)] == [0, 0, 1, 1, 2, 2]

    def test_tail_clamps_to_last_shard(self):
        router = RangeRouter(3, pages_per_shard=10)
        assert router.shard_of(30) == 2
        assert router.shard_of(10**9) == 2

    def test_for_database_splits_evenly(self):
        router = RangeRouter.for_database(4, 100)
        assert router.pages_per_shard == 25
        counts = [0] * 4
        for pid in range(100):
            counts[router.shard_of(pid)] += 1
        assert counts == [25, 25, 25, 25]

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            RangeRouter(2, pages_per_shard=0)
        with pytest.raises(ValueError):
            RangeRouter.for_database(2, 0)


class TestRouterContract:
    def test_shard_count_validation(self):
        with pytest.raises(ValueError):
            HashRouter(0)
        with pytest.raises(ValueError):
            RangeRouter(-1, 10)

    def test_negative_pid_rejected(self):
        for router in (HashRouter(2), RangeRouter(2, pages_per_shard=10)):
            router.shard_of(7)  # a routed pid must not let a negative one wrap
            with pytest.raises(ValueError, match="logical page id -5 must be non-negative"):
                router.shard_of(-5)

    def test_abstract_base(self):
        with pytest.raises(TypeError):
            ShardRouter(2)  # type: ignore[abstract]


class TestMakeRouter:
    def test_hash(self):
        router = make_router("hash", 3)
        assert isinstance(router, HashRouter)
        assert router.n_shards == 3

    def test_range_by_width(self):
        router = make_router("range", 2, pages_per_shard=7)
        assert isinstance(router, RangeRouter)
        assert router.pages_per_shard == 7

    def test_range_by_database(self):
        router = make_router("range", 2, database_pages=11)
        assert router.pages_per_shard == 6

    def test_errors(self):
        with pytest.raises(ValueError):
            make_router("consistent-hashing", 2)
        with pytest.raises(ValueError):
            make_router("range", 2)
        with pytest.raises(ValueError):
            make_router("hash", 2, pages_per_shard=5)
