"""TPC-C database population.

Builds the nine tables as heap files with B+tree primary-key indexes
(index pages live in the same database, so index I/O is measured like
everything else, as it would be on Odysseus).  After loading, the
database is flushed so the on-flash image is the initial state the
paper's benchmark starts from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from ...storage.btree import BTree
from ...storage.db import Database
from ...storage.heap import RID, HeapFile
from . import schema
from .schema import TpccScale


@dataclass
class Table:
    """A heap file plus its primary-key index."""

    heap: HeapFile
    index: BTree

    def insert(self, key: int, record: bytes) -> None:
        rid = self.heap.insert(record)
        self.index.insert(key, _pack_rid(rid.pid, rid.slot))

    def read(self, key: int) -> bytes:
        packed = self.index.get(key)
        if packed is None:
            raise KeyError(f"key {key} not found in {self.heap.name}")
        pid, slot = _unpack_rid(packed)
        return self.heap.read(RID(pid, slot))

    def update(self, key: int, record: bytes) -> None:
        packed = self.index.get(key)
        if packed is None:
            raise KeyError(f"key {key} not found in {self.heap.name}")
        pid, slot = _unpack_rid(packed)
        new_rid = self.heap.update(RID(pid, slot), record)
        if (new_rid.pid, new_rid.slot) != (pid, slot):
            self.index.insert(key, _pack_rid(new_rid.pid, new_rid.slot))

    def delete(self, key: int) -> None:
        packed = self.index.get(key)
        if packed is None:
            raise KeyError(f"key {key} not found in {self.heap.name}")
        pid, slot = _unpack_rid(packed)
        self.heap.delete(RID(pid, slot))
        self.index.delete(key)


def _pack_rid(pid: int, slot: int) -> int:
    return (pid << 16) | slot


def _unpack_rid(packed: int) -> "tuple[int, int]":
    return packed >> 16, packed & 0xFFFF


class TpccDatabase:
    """The loaded TPC-C database: tables, indexes, and scale info."""

    TABLE_NAMES = (
        "warehouse",
        "district",
        "customer",
        "item",
        "stock",
        "orders",
        "new_order",
        "order_line",
        "history",
    )

    def __init__(self, db: Database, scale: TpccScale, seed: int = 42):
        self.db = db
        self.scale = scale
        self.rng = random.Random(seed)
        self.tables: Dict[str, Table] = {}
        for name in self.TABLE_NAMES:
            self.tables[name] = Table(
                heap=HeapFile(db, name), index=BTree(db, f"{name}_pk")
            )
        #: next order id per district (also persisted in the district row).
        self.next_o_id: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self) -> None:
        s = self.scale
        for i in range(1, s.items + 1):
            price = self.rng.randrange(100, 10_000)
            self.tables["item"].insert(
                schema.item_key(i), schema.ITEM.encode(i, price)
            )
        for w in range(1, s.warehouses + 1):
            self.tables["warehouse"].insert(
                w, schema.WAREHOUSE.encode(w, 30_000_000)
            )
            for i in range(1, s.items + 1):
                self.tables["stock"].insert(
                    schema.stock_key(w, i),
                    schema.STOCK.encode(w, i, self.rng.randrange(10, 101), 0, 0, 0),
                )
            for d in range(1, s.districts_per_warehouse + 1):
                next_o = s.initial_orders_per_district + 1
                self.tables["district"].insert(
                    schema.district_key(w, d),
                    schema.DISTRICT.encode(w, d, 3_000_000, next_o),
                )
                self.next_o_id[schema.district_key(w, d)] = next_o
                for c in range(1, s.customers_per_district + 1):
                    self.tables["customer"].insert(
                        schema.customer_key(w, d, c),
                        schema.CUSTOMER.encode(w, d, c, -1000, 1000, 1, 0),
                    )
                self._load_initial_orders(w, d)
        self.db.flush()

    def _load_initial_orders(self, w: int, d: int) -> None:
        s = self.scale
        for o in range(1, s.initial_orders_per_district + 1):
            c = self.rng.randrange(1, s.customers_per_district + 1)
            ol_cnt = self.rng.randrange(5, 16)
            delivered = o <= s.initial_orders_per_district * 7 // 10
            carrier = self.rng.randrange(1, 11) if delivered else -1
            self.tables["orders"].insert(
                schema.order_key(w, d, o),
                schema.ORDER.encode(w, d, o, c, carrier, ol_cnt, o),
            )
            if not delivered:
                self.tables["new_order"].insert(
                    schema.new_order_key(w, d, o),
                    schema.NEW_ORDER.encode(w, d, o),
                )
            for n in range(1, ol_cnt + 1):
                i = self.rng.randrange(1, s.items + 1)
                amount = 0 if delivered else self.rng.randrange(1, 999_900)
                self.tables["order_line"].insert(
                    schema.order_line_key(w, d, o, n),
                    schema.ORDER_LINE.encode(w, d, o, n, i, 5, amount, o),
                )
