"""Property tests for the sharded driver and its hash partition.

Two families of guarantees:

* **Read equivalence** — random operation sequences applied to a
  :class:`ShardedDriver` and to a single-chip oracle (a plain PDL driver
  plus an in-memory model) must be indistinguishable through
  ``read_page``.
* **Routing is a total, stable partition** — every non-negative pid maps
  to exactly one shard in range, the mapping never changes between
  calls, and sequential id spaces spread across all shards.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pdl import PdlDriver
from repro.flash.chip import FlashChip
from repro.flash.spec import FlashSpec
from repro.methods import make_method
from repro.sharding.recovery import recover_all
from repro.sharding.router import HashRouter

SHARD_SPEC = FlashSpec(
    n_blocks=8, pages_per_block=8, page_data_size=256, page_spare_size=16
)
ORACLE_SPEC = FlashSpec(
    n_blocks=24, pages_per_block=8, page_data_size=256, page_spare_size=16
)
N_PIDS = 10
PAGE = SHARD_SPEC.page_data_size

ops = st.lists(
    st.tuples(
        st.sampled_from(["read", "patch", "flush"]),
        st.integers(0, N_PIDS - 1),
        st.integers(0, PAGE - 8),
        st.binary(min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=50,
)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seq=ops, n_shards=st.integers(2, 4))
def test_sharded_matches_single_chip_oracle(seq, n_shards):
    chips = [FlashChip(SHARD_SPEC) for _ in range(n_shards)]
    sharded = make_method("PDL (48B) x%d" % n_shards, chips)
    oracle = PdlDriver(FlashChip(ORACLE_SPEC), max_differential_size=48)
    model = {}
    for pid in range(N_PIDS):
        image = bytes([pid]) * PAGE
        sharded.load_page(pid, image)
        oracle.load_page(pid, image)
        model[pid] = image
    for op, pid, offset, payload in seq:
        if op == "read":
            got = sharded.read_page(pid)
            assert got == oracle.read_page(pid)
            assert got == model[pid]
        elif op == "flush":
            sharded.flush()
            oracle.flush()
        else:
            image = bytearray(model[pid])
            image[offset : offset + len(payload)] = payload
            model[pid] = bytes(image)
            sharded.write_page(pid, model[pid])
            oracle.write_page(pid, model[pid])
    for pid, expected in model.items():
        assert sharded.read_page(pid) == expected
        assert oracle.read_page(pid) == expected


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seq=ops, n_shards=st.integers(2, 3))
def test_sharded_recovery_matches_flushed_state(seq, n_shards):
    """After flush + recover_all, the array reads back the full model."""
    chips = [FlashChip(SHARD_SPEC) for _ in range(n_shards)]
    sharded = make_method("PDL (48B) x%d" % n_shards, chips)
    model = {}
    for pid in range(N_PIDS):
        image = bytes([pid]) * PAGE
        sharded.load_page(pid, image)
        model[pid] = image
    for op, pid, offset, payload in seq:
        if op == "patch":
            image = bytearray(model[pid])
            image[offset : offset + len(payload)] = payload
            model[pid] = bytes(image)
            sharded.write_page(pid, model[pid])
    sharded.group_flush()
    recovered, reports = recover_all(chips, max_differential_size=48)
    assert len(reports) == n_shards
    for pid, expected in model.items():
        assert recovered.read_page(pid) == expected


class TestRouterPartitionProperties:
    @settings(max_examples=200, deadline=None)
    @given(pid=st.integers(0, 10**12), n_shards=st.integers(1, 16))
    def test_total_and_stable(self, pid, n_shards):
        router = HashRouter(n_shards)
        shard = router.shard_of(pid)
        assert 0 <= shard < n_shards  # total: every pid lands in range
        assert router.shard_of(pid) == shard  # stable: repeated calls agree

    @settings(max_examples=50, deadline=None)
    @given(n_shards=st.integers(2, 8))
    def test_hash_covers_every_shard(self, n_shards):
        router = HashRouter(n_shards)
        hit = {router.shard_of(pid) for pid in range(64 * n_shards)}
        assert hit == set(range(n_shards))

    def test_partition_is_disjoint_by_construction(self):
        """shard_of is a function: one pid, one shard — across routers of
        the same configuration too."""
        a = HashRouter(5)
        b = HashRouter(5)
        for pid in range(1000):
            assert a.shard_of(pid) == b.shard_of(pid)

    def test_negative_pid_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            HashRouter(3).shard_of(-1)
