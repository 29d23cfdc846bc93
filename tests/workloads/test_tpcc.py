"""Tests for the scaled TPC-C schema, loader, and transactions."""

import pytest

from repro.core.pdl import PdlDriver
from repro.flash.chip import FlashChip
from repro.flash.spec import FlashSpec
from repro.storage.db import Database
from repro.workloads.tpcc import (
    TEST_SCALE,
    TpccDatabase,
    TpccWorkload,
    estimate_database_pages,
    run_tpcc,
)
from repro.workloads.tpcc import schema


class TestSchema:
    def test_codec_roundtrip(self):
        rec = schema.CUSTOMER.encode(1, 2, 3, -500, 1000, 4, 5)
        assert len(rec) == schema.CUSTOMER.size == 655
        decoded = schema.CUSTOMER.decode(rec)
        assert decoded["c_w_id"] == 1
        assert decoded["c_balance"] == -500
        assert decoded["c_delivery_cnt"] == 5

    def test_all_codecs_roundtrip_zeroes(self):
        for codec in schema.ALL_CODECS:
            values = tuple(0 for _ in codec.fields)
            decoded = codec.decode(codec.encode(*values))
            assert tuple(decoded.values()) == values

    def test_codec_field_count_checked(self):
        with pytest.raises(ValueError):
            schema.ITEM.encode(1)

    def test_codec_size_checked(self):
        with pytest.raises(ValueError):
            schema.ITEM.decode(b"\x00" * 10)

    def test_keys_are_unique_and_ordered(self):
        k1 = schema.order_key(1, 1, 5)
        k2 = schema.order_key(1, 1, 6)
        k3 = schema.order_key(1, 2, 1)
        assert k1 < k2 < k3
        assert schema.order_line_key(1, 1, 5, 1) != schema.order_line_key(1, 1, 5, 2)

    def test_scale_properties(self):
        assert TEST_SCALE.customers == 1 * 2 * 30
        assert TEST_SCALE.stock_rows == 100


@pytest.fixture(scope="module")
def loaded():
    """One loaded TPC-C database shared by the read-mostly tests."""
    spec = FlashSpec(n_blocks=96, pages_per_block=16,
                     page_data_size=2048, page_spare_size=64)
    chip = FlashChip(spec)
    driver = PdlDriver(chip, max_differential_size=256)
    db = Database(driver, buffer_capacity=256)
    tpcc = TpccDatabase(db, TEST_SCALE, seed=1)
    tpcc.load()
    return chip, db, tpcc


class TestLoader:
    def test_all_tables_populated(self, loaded):
        _chip, _db, tpcc = loaded
        s = tpcc.scale
        assert len(tpcc.tables["warehouse"].heap) == s.warehouses
        assert len(tpcc.tables["district"].heap) == s.warehouses * 2
        assert len(tpcc.tables["customer"].heap) == s.customers
        assert len(tpcc.tables["item"].heap) == s.items
        assert len(tpcc.tables["stock"].heap) == s.stock_rows
        assert len(tpcc.tables["orders"].heap) == s.warehouses * 2 * 30

    def test_indexes_resolve_records(self, loaded):
        _chip, _db, tpcc = loaded
        row = schema.CUSTOMER.decode(
            tpcc.tables["customer"].read(schema.customer_key(1, 1, 1))
        )
        assert (row["c_w_id"], row["c_d_id"], row["c_id"]) == (1, 1, 1)

    def test_new_order_queue_holds_undelivered(self, loaded):
        _chip, _db, tpcc = loaded
        undelivered = len(tpcc.tables["new_order"].heap)
        assert undelivered == 2 * (30 - 21)  # 30% of 30 per district

    def test_estimate_is_sane(self, loaded):
        _chip, db, _tpcc = loaded
        estimate = estimate_database_pages(TEST_SCALE)
        assert 0.4 * estimate <= db.allocated_pages <= 2.5 * estimate


class TestTransactions:
    @pytest.fixture()
    def fresh(self):
        spec = FlashSpec(n_blocks=96, pages_per_block=16,
                         page_data_size=2048, page_spare_size=64)
        chip = FlashChip(spec)
        db = Database(PdlDriver(chip, max_differential_size=256), buffer_capacity=64)
        tpcc = TpccDatabase(db, TEST_SCALE, seed=2)
        tpcc.load()
        return TpccWorkload(tpcc, seed=3)

    def test_new_order_creates_rows(self, fresh):
        before_orders = len(fresh.tpcc.tables["orders"].heap)
        before_lines = len(fresh.tpcc.tables["order_line"].heap)
        fresh.new_order()
        assert len(fresh.tpcc.tables["orders"].heap) == before_orders + 1
        assert len(fresh.tpcc.tables["order_line"].heap) >= before_lines + 5

    def test_payment_updates_balances(self, fresh):
        t = fresh.tpcc.tables
        before = schema.WAREHOUSE.decode(t["warehouse"].read(1))["w_ytd"]
        fresh.payment()
        after = schema.WAREHOUSE.decode(t["warehouse"].read(1))["w_ytd"]
        assert after > before
        assert len(t["history"].heap) == 1

    def test_delivery_drains_new_orders(self, fresh):
        before = len(fresh.tpcc.tables["new_order"].heap)
        fresh.delivery()
        after = len(fresh.tpcc.tables["new_order"].heap)
        assert after == before - TEST_SCALE.districts_per_warehouse

    def test_order_status_and_stock_level_are_read_only(self, fresh):
        t = fresh.tpcc.tables
        counts = {name: len(tab.heap) for name, tab in t.items()}
        fresh.order_status()
        fresh.stock_level()
        assert {name: len(tab.heap) for name, tab in t.items()} == counts

    def test_mix_distribution(self, fresh):
        fresh.run(200)
        c = fresh.counts
        assert c.total == 200
        assert c.new_order > c.order_status
        assert c.payment > c.delivery
        assert all(
            getattr(c, name) > 0
            for name in ("new_order", "payment", "order_status",
                         "delivery", "stock_level")
        )


class TestHarness:
    def test_run_tpcc_end_to_end(self):
        m = run_tpcc(
            "PDL (256B)", TEST_SCALE, buffer_fraction=0.05,
            n_transactions=60, warmup_transactions=20,
        )
        assert m.transactions == 60
        assert m.io_us_per_txn > 0
        assert 0.0 < m.hit_ratio < 1.0
        assert m.buffer_pages == max(4, int(m.database_pages * 0.05))

    def test_buffer_fraction_validated(self):
        with pytest.raises(ValueError):
            run_tpcc("OPU", TEST_SCALE, buffer_fraction=0.0, n_transactions=1)

    def test_larger_buffer_less_io(self):
        small = run_tpcc("OPU", TEST_SCALE, buffer_fraction=0.01,
                         n_transactions=80, warmup_transactions=30)
        large = run_tpcc("OPU", TEST_SCALE, buffer_fraction=0.5,
                         n_transactions=80, warmup_transactions=30)
        assert large.io_us_per_txn < small.io_us_per_txn
        assert large.hit_ratio > small.hit_ratio

    @pytest.mark.parametrize(
        "label, flash_ops",
        [
            ("IPL (18KB)", (11_583, 5_558, 31)),
            ("PDL (256B)", (7_827, 1_719, 12)),
            ("OPU", (4_752, 3_967, 33)),
        ],
        ids=["ipl", "pdl", "opu"],
    )
    def test_simulated_flash_traffic_is_pinned(self, label, flash_ops):
        """(reads, writes, erases) of one seeded run, recorded before the
        storage layer went to wire-form nodes and optional update logs.
        They move only if the storage layer asks the pool for different
        pages or in a different order, writes different bytes, or — IPL —
        logs different runs or the same runs in a different order."""
        m = run_tpcc(label, TEST_SCALE, 0.05, n_transactions=100, seed=11)
        assert (m.flash_reads, m.flash_writes, m.erases) == flash_ops
