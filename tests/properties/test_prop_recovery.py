"""Property-based crash-recovery tests.

Hypothesis chooses a workload and a crash point; recovery must always
yield, for every page, a version that actually existed and is no older
than the last write-through.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pdl import PdlDriver
from repro.core.recovery import recover_driver
from repro.flash.chip import FlashChip
from repro.flash.errors import SimulatedPowerLoss
from repro.flash.spec import FlashSpec

SPEC = FlashSpec(
    n_blocks=12, pages_per_block=8, page_data_size=128, page_spare_size=16
)
N_PIDS = 6
PAGE = SPEC.page_data_size

workload = st.lists(
    st.tuples(
        st.integers(0, N_PIDS - 1),  # pid
        st.integers(0, PAGE - 8),  # offset
        st.binary(min_size=1, max_size=8),  # patch
        st.booleans(),  # flush afterwards?
    ),
    min_size=1,
    max_size=50,
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seq=workload, crash_at=st.integers(0, 80), max_diff=st.sampled_from([32, 120]))
def test_recovery_invariants(seq, crash_at, max_diff):
    chip = FlashChip(SPEC)
    driver = PdlDriver(chip, max_differential_size=max_diff)
    history = {}
    floor = {}
    for pid in range(N_PIDS):
        image = bytes([pid]) * PAGE
        driver.load_page(pid, image)
        history[pid] = [image]
        floor[pid] = 0
    chip.crash_after(crash_at)
    try:
        for pid, offset, patch, flush in seq:
            image = bytearray(history[pid][-1])
            image[offset : offset + len(patch)] = patch
            history[pid].append(bytes(image))
            driver.write_page(pid, bytes(image))
            if flush:
                driver.flush()
                for q in history:
                    floor[q] = len(history[q]) - 1
    except SimulatedPowerLoss:
        pass
    chip.crash_after(None)
    recovered, _report = recover_driver(chip, max_differential_size=max_diff)
    for pid, versions in history.items():
        got = recovered.read_page(pid)
        assert got in versions
        newest = max(i for i, v in enumerate(versions) if v == got)
        assert newest >= floor[pid]
