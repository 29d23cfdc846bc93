"""Scaled TPC-C schema: record codecs and key packing.

The paper's Experiment 7 runs TPC-C against a ~1 GB database.  We keep
the full schema shape — all nine tables, fixed-size records padded to
spec-like sizes — but scale cardinalities down so the buffer-size sweep
(0.1 %–10 % of the database) exercises the same locality regimes on a
laptop-sized emulator (see docs/paper-map.md, "Substitutions").

Records are fixed-size ``struct`` layouts with filler padding standing in
for the textual fields; sizes approximate the TPC-C specification
(customer ≈ 655 B, stock ≈ 306 B, …) so records-per-page match reality.

Composite primary keys pack into u64 for the B+tree indexes::

    customer  (w, d, c)      -> ((w * 100 + d) * 100000) + c
    stock     (w, i)         -> w * 1000000 + i
    order     (w, d, o)      -> ((w * 100 + d) * 10**7) + o
    order_line(w, d, o, n)   -> order_key * 100 + n
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Tuple

# ----------------------------------------------------------------------
# Scale parameters
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TpccScale:
    """Cardinalities of a scaled TPC-C database.

    The defaults are roughly 1/10 of spec scale per warehouse, keeping
    relative table sizes (stock and customer dominate) while making load
    times laptop-friendly.
    """

    warehouses: int = 1
    districts_per_warehouse: int = 10
    customers_per_district: int = 300
    items: int = 2000
    initial_orders_per_district: int = 300

    @property
    def customers(self) -> int:
        return (
            self.warehouses
            * self.districts_per_warehouse
            * self.customers_per_district
        )

    @property
    def stock_rows(self) -> int:
        return self.warehouses * self.items


#: A very small scale for unit tests.
TEST_SCALE = TpccScale(
    warehouses=1,
    districts_per_warehouse=2,
    customers_per_district=30,
    items=100,
    initial_orders_per_district=30,
)


# ----------------------------------------------------------------------
# Key packing
# ----------------------------------------------------------------------

def customer_key(w: int, d: int, c: int) -> int:
    return (w * 100 + d) * 100_000 + c


def stock_key(w: int, i: int) -> int:
    return w * 1_000_000 + i


def item_key(i: int) -> int:
    return i


def order_key(w: int, d: int, o: int) -> int:
    return (w * 100 + d) * 10_000_000 + o


def order_line_key(w: int, d: int, o: int, number: int) -> int:
    return order_key(w, d, o) * 100 + number


def district_key(w: int, d: int) -> int:
    return w * 100 + d


def new_order_key(w: int, d: int, o: int) -> int:
    return order_key(w, d, o)


# ----------------------------------------------------------------------
# Record codecs
# ----------------------------------------------------------------------
#
# Each codec packs the numeric fields the transactions actually use and
# pads to the spec-like record size.  ``encode``/``decode`` are inverses
# for the numeric fields; padding is zero.


def _padded(fmt: str, size: int) -> Tuple[struct.Struct, int]:
    codec = struct.Struct(fmt)
    if codec.size > size:
        raise ValueError(f"fields of {codec.size} bytes exceed record size {size}")
    return codec, size


class RecordCodec:
    """A fixed-size record layout with zero padding."""

    def __init__(self, name: str, fmt: str, size: int, fields: Tuple[str, ...]):
        self.name = name
        self._struct, self.size = _padded(fmt, size)
        self.fields = fields

    def encode(self, *values: int) -> bytes:
        if len(values) != len(self.fields):
            raise ValueError(
                f"{self.name} expects {len(self.fields)} fields, got {len(values)}"
            )
        packed = self._struct.pack(*values)
        return packed + b"\x00" * (self.size - self._struct.size)

    def decode(self, record: bytes) -> dict:
        if len(record) != self.size:
            raise ValueError(
                f"{self.name} record must be {self.size} bytes, got {len(record)}"
            )
        values = self._struct.unpack_from(record, 0)
        return dict(zip(self.fields, values))


#: warehouse: id, ytd (cents); ~89 B in spec.
WAREHOUSE = RecordCodec("warehouse", "<Iq", 92, ("w_id", "w_ytd"))

#: district: ids, ytd, next order id; ~95 B in spec.
DISTRICT = RecordCodec(
    "district", "<IIqI", 96, ("d_w_id", "d_id", "d_ytd", "d_next_o_id")
)

#: customer: ids, balance, ytd payment, payment/delivery counts; ~655 B.
CUSTOMER = RecordCodec(
    "customer",
    "<IIIqqII",
    655,
    (
        "c_w_id",
        "c_d_id",
        "c_id",
        "c_balance",
        "c_ytd_payment",
        "c_payment_cnt",
        "c_delivery_cnt",
    ),
)

#: item: id, price; ~82 B.
ITEM = RecordCodec("item", "<Iq", 82, ("i_id", "i_price"))

#: stock: ids, quantity, ytd, order/remote counts; ~306 B.
STOCK = RecordCodec(
    "stock",
    "<IIiqII",
    306,
    ("s_w_id", "s_i_id", "s_quantity", "s_ytd", "s_order_cnt", "s_remote_cnt"),
)

#: order: ids, customer, carrier, line count, timestamp; ~24 B numeric.
ORDER = RecordCodec(
    "order",
    "<IIIIiIq",
    32,
    ("o_w_id", "o_d_id", "o_id", "o_c_id", "o_carrier_id", "o_ol_cnt", "o_entry_d"),
)

#: new_order: the undelivered-order queue entry; 8 B in spec.
NEW_ORDER = RecordCodec("new_order", "<III", 12, ("no_w_id", "no_d_id", "no_o_id"))

#: order_line: ids, item, quantity, amount, delivery date; ~54 B.
ORDER_LINE = RecordCodec(
    "order_line",
    "<IIIIIiqq",
    54,
    (
        "ol_w_id",
        "ol_d_id",
        "ol_o_id",
        "ol_number",
        "ol_i_id",
        "ol_quantity",
        "ol_amount",
        "ol_delivery_d",
    ),
)

#: history: payment log entry; ~46 B.
HISTORY = RecordCodec(
    "history", "<IIIq", 46, ("h_c_w_id", "h_c_d_id", "h_c_id", "h_amount")
)

ALL_CODECS = (
    WAREHOUSE,
    DISTRICT,
    CUSTOMER,
    ITEM,
    STOCK,
    ORDER,
    NEW_ORDER,
    ORDER_LINE,
    HISTORY,
)
