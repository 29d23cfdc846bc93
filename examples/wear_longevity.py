#!/usr/bin/env python
"""Flash longevity: erase counts under different methods and GC policies.

The paper's Experiment 6 argues PDL extends flash lifetime because fewer
writes mean fewer erases.  This example measures erases per update for
each method (Figure 17) and then shows the wear-leveling ablation: how
GC victim policies spread erases across blocks (footnote 4's orthogonal
concern; the policies live in repro.ftl.gc).

Run:  python examples/wear_longevity.py
"""

import random

from repro.flash.chip import FlashChip
from repro.flash.spec import spec_for_database
from repro.methods import make_method

DB_PAGES = 512
OPS = 6000


def run(label, utilization=0.25):
    spec = spec_for_database(DB_PAGES, utilization=utilization)
    chip = FlashChip(spec)
    driver = make_method(label, chip)
    rng = random.Random(7)
    images = {}
    for pid in range(DB_PAGES):
        images[pid] = rng.randbytes(driver.page_size)
        driver.load_page(pid, images[pid])
    from repro.ftl.base import ChangeRun

    for _ in range(OPS):
        pid = rng.randrange(DB_PAGES)
        image = bytearray(images[pid])
        off = rng.randrange(len(image) - 40)
        patch = rng.randbytes(40)
        image[off : off + 40] = patch
        images[pid] = bytes(image)
        driver.write_page(pid, images[pid], update_logs=[ChangeRun(off, patch)])
    counts = [chip.erase_count(b) for b in range(spec.n_blocks)]
    return (
        chip.stats.total_erases / OPS,
        max(counts),
        sum(1 for c in counts if c > 0),
        spec.n_blocks,
    )


def main():
    print(f"longevity measurement: {DB_PAGES}-page database, {OPS} update ops\n")
    print("— erases per update operation (Figure 17, N=1, ~2% changed) —")
    for label in ("OPU", "PDL (2KB)", "IPL (18KB)", "PDL (256B)", "IPL (64KB)"):
        erases_per_op, max_wear, touched, blocks = run(label)
        lifetime = "∞" if erases_per_op == 0 else f"{1 / erases_per_op:8.0f}"
        print(f"  {label:11s} {erases_per_op:8.4f} erases/op "
              f"(~{lifetime} updates per block-erase)")

    print("\n— GC victim policy ablation on PDL (256B) —")
    for name, label in (
        ("greedy (paper)", "PDL (256B)"),
        ("round-robin", "PDL (256B) gc=rr"),
        ("wear-aware", "PDL (256B) gc=wear"),
    ):
        # higher space utilization so GC pressure appears within the run
        erases_per_op, max_wear, touched, blocks = run(label, utilization=0.5)
        print(f"  {name:15s} erases/op={erases_per_op:.4f}  "
              f"max wear on one block={max_wear}  "
              f"blocks touched={touched}/{blocks}")
    print("\nGreedy minimizes total erases; the wear-aware policy trades a "
          "few extra\nerases for a flatter wear distribution.")


if __name__ == "__main__":
    main()
