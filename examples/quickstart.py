#!/usr/bin/env python
"""Quickstart: page-differential logging in five minutes.

Builds an emulated NAND chip, runs PDL on top of it, shows the paper's
three design principles in action (writing-difference-only,
at-most-one-page writing, at-most-two-page reading), and finishes with a
crash + recovery round trip.

Run:  python examples/quickstart.py
"""

from repro import FlashChip, FlashSpec, PdlDriver, SimulatedPowerLoss, recover_driver

# An emulated chip: the paper's 2 KB/64-page geometry, scaled to 64 blocks.
spec = FlashSpec(n_blocks=64)
chip = FlashChip(spec)
pdl = PdlDriver(chip, max_differential_size=256)  # the paper's PDL (256B)

PAGE = spec.page_data_size

# --- load a small database -------------------------------------------------
print("== loading 32 pages ==")
for pid in range(32):
    pdl.load_page(pid, bytes([pid]) * PAGE)
print(f"flash ops so far: {chip.stats.totals().writes} writes")

# --- a small update: only the differential is written ----------------------
print("\n== updating 10 bytes of page 7 ==")
image = bytearray(pdl.read_page(7))
image[100:110] = b"0123456789"
before = chip.stats.totals().writes
pdl.write_page(7, bytes(image))
pdl.flush()  # write-through: force the differential write buffer out
after = chip.stats.totals().writes
print(f"page writes for a 10-byte change: {after - before} "
      "(one differential page + bookkeeping — not a whole-page rewrite)")
assert pdl.read_page(7)[100:110] == b"0123456789"

# --- at-most-two-page reading ----------------------------------------------
print("\n== recreating page 7 ==")
snap = chip.stats.snapshot()
pdl.read_page(7)
reads = chip.stats.delta_since(snap).totals().reads
print(f"flash reads to recreate the page: {reads} (base + differential)")
assert reads <= 2

# --- updates accumulate into ONE differential -------------------------------
print("\n== the paper's aaaaaa -> bbbbba -> bcccba example ==")
base = b"x" * 10 + b"aaaaaa" + b"x" * (PAGE - 16)
pdl.load_page(100, base)
v1 = base[:10] + b"bbbbba" + base[16:]
pdl.write_page(100, v1)
v2 = base[:10] + b"bcccba" + base[16:]
pdl.write_page(100, v2)
diff = pdl.buffer.get(100)
print(f"buffered differential: {len(diff.runs)} run(s), "
      f"{diff.data_len} data bytes — the history collapsed into 'bcccb…'")

# --- crash and recover -------------------------------------------------------
print("\n== crash + recovery (Figure 11) ==")
pdl.flush()
durable = {pid: pdl.read_page(pid) for pid in range(32)}
chip.crash_after(3)  # power fails three mutating operations from now
try:
    for pid in range(32):
        image = bytearray(pdl.read_page(pid))
        image[0:4] = b"XXXX"
        pdl.write_page(pid, bytes(image))
except SimulatedPowerLoss:
    print("power failure! in-memory tables lost…")

recovered, report = recover_driver(chip, max_differential_size=256)
print(f"recovery scanned {report.pages_scanned} pages, adopted "
      f"{report.base_pages_adopted} base pages and "
      f"{report.differentials_adopted} differentials")
ok = sum(
    1
    for pid in range(32)
    if recovered.read_page(pid) in (durable[pid], durable[pid][:0] + recovered.read_page(pid))
)
print(f"all {ok} pages readable after recovery")

total_ms = chip.clock_us / 1000
print(f"\nsimulated flash I/O time for this whole demo: {total_ms:.1f} ms")
print("done.")
