"""Write ``tiny-v1.flash``, the committed on-flash format fixture.

A ``FileBackend`` image (format version 1) of ``TINY_SPEC`` — 16 blocks
of 8 × 256-byte pages, about 37 KB — holding a PDL database as a power
loss left it: 24 pages loaded, updated until GC had erased every block
about twice, flushed now and then, and cut off in the middle of an
update by a simulated power failure.  So the image has base pages,
differential pages, obsolete pages, erased blocks and the stale copies
the Figure-11 scan has to sort out.

``tests/flash/test_image_format.py`` recovers a copy of the committed
file and checks the outcome against recorded values, and checks that
this script still writes the same bytes.  Regenerate the file only for
an intended change of what the engine writes::

    PYTHONPATH=src python tests/flash/fixtures/make_tiny_image.py

and bump ``FileBackend.FORMAT_VERSION`` if the layout itself changed.
"""

from __future__ import annotations

import os
import random
import sys
from pathlib import Path

from repro.core.pdl import PdlDriver
from repro.flash.backend import FileBackend
from repro.flash.chip import FlashChip
from repro.flash.errors import SimulatedPowerLoss
from repro.flash.spec import TINY_SPEC

IMAGE = Path(__file__).with_name("tiny-v1.flash")
PAGES = 24
MAX_DIFFERENTIAL_SIZE = 64
SEED = 20100121
#: Mutating chip operations allowed through before the power fails.
CRASH_AFTER = 791


def write_image(path: "str | os.PathLike[str]") -> None:
    """Build the image at ``path`` (which must not exist yet)."""
    rng = random.Random(SEED)
    chip = FlashChip(TINY_SPEC, backend=FileBackend.create(path, TINY_SPEC))
    try:
        driver = PdlDriver(chip, max_differential_size=MAX_DIFFERENTIAL_SIZE)
        size = TINY_SPEC.page_data_size
        for pid in range(PAGES):
            driver.load_page(pid, rng.randbytes(size))
        chip.crash_after(CRASH_AFTER)
        try:
            while True:
                pid = rng.randrange(PAGES)
                image = bytearray(driver.read_page(pid))
                offset = rng.randrange(size - 16)
                image[offset : offset + 16] = rng.randbytes(16)
                driver.write_page(pid, bytes(image))
                if rng.random() < 0.2:
                    driver.flush()
        except SimulatedPowerLoss:
            pass
    finally:
        chip.close()


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else IMAGE
    target.unlink(missing_ok=True)
    write_image(target)
    print(f"wrote {target} ({target.stat().st_size} bytes)")
