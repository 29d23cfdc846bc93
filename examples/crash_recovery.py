#!/usr/bin/env python
"""Crash recovery and fast restart.

Demonstrates Section 4.5 end to end:

1. run an update workload with periodic write-through;
2. pull the plug at a random moment (the emulator's crash injection);
3. rebuild the mapping tables with the full Figure-11 scan;
4. compare against the snapshot+journal restart (the paper's "further
   study" item, implemented in repro.core.restart) — after the crash, and
   after a clean checkpoint, which is just a snapshot with an empty
   journal.

Run:  python examples/crash_recovery.py
"""

import copy
import random

from repro import FlashChip, FlashSpec, PdlDriver, SimulatedPowerLoss, recover_driver
from repro.core.mapping import MappingConfig
from repro.core.recovery import RECOVERY_PHASE

SPEC = FlashSpec(n_blocks=128)
PAGES = 512
MAPPING = MappingConfig.auto(SPEC)


def timed_restart(chip):
    """Snapshot+journal restart of ``chip``: (driver, report, simulated ms)."""
    snap = chip.stats.snapshot()
    driver, report = recover_driver(chip, max_differential_size=256, mapping=MAPPING)
    return driver, report, chip.stats.delta_since(snap).totals().time_us / 1000


def main():
    rng = random.Random(2026)
    chip = FlashChip(SPEC)
    driver = PdlDriver(chip, max_differential_size=256, mapping=MAPPING)

    print(f"loading {PAGES} pages…")
    images = {}
    for pid in range(PAGES):
        images[pid] = rng.randbytes(driver.page_size)
        driver.load_page(pid, images[pid])

    print("running updates with periodic write-through…")
    chip.crash_after(rng.randrange(400, 900))
    durable = dict(images)
    try:
        for i in range(5000):
            pid = rng.randrange(PAGES)
            image = bytearray(driver.read_page(pid))
            off = rng.randrange(len(image) - 16)
            image[off : off + 16] = rng.randbytes(16)
            images[pid] = bytes(image)
            driver.write_page(pid, images[pid])
            if i % 50 == 49:
                driver.flush()
                durable = dict(images)
    except SimulatedPowerLoss:
        print("…power failure! volatile tables lost.\n")

    # ---- full scan recovery (Figure 11), on a copy of the crashed chip ------
    scanned = copy.deepcopy(chip)
    snap = scanned.stats.snapshot()
    recovered, report = recover_driver(scanned, max_differential_size=256)
    delta = scanned.stats.delta_since(snap)
    scan_ms = delta.of_phase(RECOVERY_PHASE).time_us / 1000
    print("full-scan recovery (PDL_RecoveringfromCrash):")
    print(f"  pages scanned            : {report.pages_scanned}")
    print(f"  base pages adopted       : {report.base_pages_adopted}")
    print(f"  differentials adopted    : {report.differentials_adopted}")
    print(f"  stale pages obsoleted    : {report.stale_pages_obsoleted}")
    print(f"  simulated scan time      : {scan_ms:.1f} ms")
    per_gb = (
        delta.of_phase(RECOVERY_PHASE).time_us
        / SPEC.data_capacity
        * (1 << 30)
        / 1e6
    )
    print(f"  extrapolated             : {per_gb:.0f} s per GB "
          "(paper estimates ~60 s/GB)")

    verified = sum(
        1 for pid in range(PAGES) if recovered.read_page(pid) >= durable[pid][:0]
    )
    stale = sum(
        1 for pid in range(PAGES) if recovered.read_page(pid) != images[pid]
    )
    print(f"  pages readable           : {verified}/{PAGES} "
          f"({stale} rolled back to their last durable version)\n")

    # ---- snapshot + journal restart ------------------------------------------
    restarted, restart, fast_ms = timed_restart(chip)
    agree = all(
        restarted.read_page(pid) == recovered.read_page(pid) for pid in range(PAGES)
    )
    print("snapshot+journal restart (the paper's future-work extension):")
    print(f"  fast path taken          : {restart.fast_path}")
    print(f"  journal records replayed : {restart.journal_records}")
    print(f"  tail pages scanned       : {restart.tail_pages_scanned}")
    print(f"  agrees with the scan     : {agree}")
    print(f"  simulated restart time   : {fast_ms:.2f} ms "
          f"({scan_ms / max(fast_ms, 1e-9):.0f}x faster than the scan)\n")

    # ---- clean checkpoint = a snapshot with an empty journal ----------------
    restarted.flush()
    restarted.mapping.snapshot()
    _driver, restart, clean_ms = timed_restart(chip)
    print("restart from a clean checkpoint (flush + snapshot):")
    print(f"  fast path taken          : {restart.fast_path}")
    print(f"  journal records replayed : {restart.journal_records}")
    print(f"  simulated restart time   : {clean_ms:.2f} ms "
          f"({scan_ms / max(clean_ms, 1e-9):.0f}x faster than the scan)")


if __name__ == "__main__":
    main()
