"""The on-flash format, pinned by a committed image.

``fixtures/tiny-v1.flash`` is a ``FileBackend`` image (format version 1)
of a small PDL database cut off by a power loss, written by
``fixtures/make_tiny_image.py``.  Recovering a copy of it must give the
recorded Figure-11 report, the recorded order of its obsolete marks and
the recorded state of every physical page and every logical page: a
change to how the image is laid out, how spare areas or differential
pages are encoded, or how the scan decodes them, fails here instead of stranding images written by an earlier
build.  The script must also still write the committed bytes, so the
write side of the format is pinned as well.
"""

import hashlib
import shutil
import sys
from pathlib import Path

from repro.core.recovery import RecoveryReport, recover_driver
from repro.flash.backend import FORMAT_VERSION, FileBackend
from repro.flash.chip import FlashChip

FIXTURES = Path(__file__).with_name("fixtures")
sys.path.insert(0, str(FIXTURES))
import make_tiny_image  # noqa: E402  (the fixture's own script)

RECORDED_REPORT = RecoveryReport(
    pages_scanned=128,
    base_pages_adopted=24,
    differentials_adopted=14,
    stale_pages_obsoleted=2,
    max_timestamp=974,
    diff_pages_read=7,
    diff_read_batches=1,
)
#: The pages the scan marks obsolete, in the order it marks them.
RECORDED_OBSOLETE_MARKS = [105, 119]
#: sha256 over every physical page (data area, then raw spare area) and
#: every logical page as read back, after recovery.
RECORDED_STATE = "bce864d546d9fa022a28fa68ba24af6e6352a00f68eea56c04efd6ad3a8cb5dc"


def state_hash(chip, driver) -> str:
    digest = hashlib.sha256()
    for addr in range(chip.spec.n_pages):
        digest.update(chip.peek_data(addr))
        digest.update(chip.backend.read_spare(addr) or b"")
    for pid in range(make_tiny_image.PAGES):
        digest.update(driver.read_page(pid))
    return digest.hexdigest()


def test_committed_image_recovers_to_the_recorded_state(tmp_path):
    path = tmp_path / "chip.flash"
    shutil.copyfile(make_tiny_image.IMAGE, path)
    chip = FlashChip(backend=FileBackend.open(path))
    try:
        assert FORMAT_VERSION == 1
        marks = []
        mark_obsolete = chip.mark_obsolete

        def recording_mark_obsolete(addr):
            marks.append(addr)
            return mark_obsolete(addr)

        chip.mark_obsolete = recording_mark_obsolete
        driver, report = recover_driver(
            chip, max_differential_size=make_tiny_image.MAX_DIFFERENTIAL_SIZE
        )
        assert report == RECORDED_REPORT
        assert marks == RECORDED_OBSOLETE_MARKS
        assert state_hash(chip, driver) == RECORDED_STATE
    finally:
        chip.close()


def test_the_script_still_writes_the_committed_image(tmp_path):
    path = tmp_path / "chip.flash"
    make_tiny_image.write_image(path)
    assert path.read_bytes() == make_tiny_image.IMAGE.read_bytes()
