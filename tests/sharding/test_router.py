"""Unit tests for the array's hash partition (:class:`HashRouter`)."""

import random
import sys
import threading

import pytest

from repro.sharding.router import HashRouter


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


class TestRouterContract:
    def test_shard_count_validation(self):
        with pytest.raises(ValueError):
            HashRouter(0)

    def test_negative_pid_rejected(self):
        router = HashRouter(2)
        router.shard_of(7)  # a routed pid must not let a negative one wrap
        with pytest.raises(ValueError, match="logical page id -5 must be non-negative"):
            router.shard_of(-5)
