"""fsck benchmark: fault-matrix detection/repair rates and scan cost.

The integrity layer's acceptance bar, measured: inject every fault kind
(bit rot, misdirected write, torn spare program) at every page role
(live base, live differential, and — role ``checkpoint`` — the seal,
first snapshot page, first meta page and first journal page of the
mapping region), run the online ``fsck``, and record per cell whether
every injected page was *detected* and how it was *dispositioned*.  Two engineered cells with surviving redundancy
(a byte-identical base copy; an obsolete predecessor differential page)
check that fsck *repairs* when repair is possible instead of declaring
loss.  A final clean sweep over a larger chip prices the scan itself —
reads per page and simulated seconds per GB.

Hard gates (``check_fsck``): detection rate 1.0 across the matrix,
repair rate 1.0 over the repairable cells, a clean post-repair re-scan
in every cell, and mapping-region damage left untouched for the
snapshot protocol to self-heal.

Runs standalone for CI smoke checks::

    python benchmarks/bench_fsck.py --tiny

or under pytest-benchmark like the other experiments::

    REPRO_BENCH_SCALE=smoke python -m pytest benchmarks/bench_fsck.py -q
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.bench.reporting import ResultTable  # noqa: E402
from repro.core.fsck import FSCK_PHASE, fsck_driver  # noqa: E402
from repro.core.mapping import MappingConfig  # noqa: E402
from repro.core.pdl import PdlDriver  # noqa: E402
from repro.ext.journal import restart_driver  # noqa: E402
from repro.flash.backend import FaultInjector, MemoryBackend  # noqa: E402
from repro.flash.chip import FlashChip  # noqa: E402
from repro.flash.spare import PageType, SpareArea  # noqa: E402
from repro.flash.spec import FlashSpec  # noqa: E402

#: Matrix chip: small on purpose — every cell rebuilds the device from
#: scratch so injections never interact.
MATRIX_SPEC = FlashSpec(
    n_blocks=16, pages_per_block=8, page_data_size=256, page_spare_size=32
)
#: Scan-cost chip: big enough that the per-GB extrapolation is not
#: dominated by the mapping region and the erased tail.
SCAN_SPEC_FULL = FlashSpec(n_blocks=192, pages_per_block=64)
SCAN_SPEC_TINY = FlashSpec(n_blocks=48, pages_per_block=32)

FAULTS = ("bit_rot", "misdirected_write", "torn_spare")
ROLES = ("base", "differential", "checkpoint")
#: The ``checkpoint`` role's targets: one page of each kind in the mapping
#: region — the same four as tests/integration/test_fault_matrix.py.
REGION_KINDS = ("seal", "snapshot", "meta", "journal")
SEED = 3
VICTIM_PID = 6
N_PIDS = 10


def _patched(data, offset, patch):
    image = bytearray(data)
    image[offset : offset + len(patch)] = patch
    return bytes(image)


def _build(spec, n_pids=N_PIDS, seed=SEED):
    """A loaded, flushed, snapshotted device (plus a three-write journal
    tail) behind a fault injector."""
    injector = FaultInjector(MemoryBackend(spec), seed=seed)
    chip = FlashChip(spec, backend=injector)
    driver = PdlDriver(
        chip, max_differential_size=64, mapping=MappingConfig.auto(spec)
    )
    for pid in range(n_pids):
        driver.load_page(pid, bytes([pid % 255 + 1]) * spec.page_data_size)
    driver.end_of_load()
    for pid in range(n_pids):
        driver.write_page(
            pid, _patched(bytes([pid % 255 + 1]) * spec.page_data_size, 5, b"\xbb")
        )
    driver.flush()
    driver.mapping.snapshot()  # the clean checkpoint
    for pid in range(3):
        driver.write_page(pid, bytes([pid % 255 + 1]) * spec.page_data_size)
    driver.flush()
    return injector, chip, driver


def _target_addr(driver, kind, pid=VICTIM_PID):
    if kind == "base":
        return driver.ppmt.require(pid).base_addr
    if kind == "differential":
        return driver.ppmt.require(pid).diff_addr
    store = driver.mapping
    half = store.seq % 2
    return {
        "seal": store.seal_addr(half),
        "snapshot": store.half_start_page(half),
        "meta": store.half_start_page(half) + store.data_page_count,
        "journal": store.journal_page_addr(0),
    }[kind]


def _run_cell(spec, fault, role):
    """One matrix cell: build, injure, fsck, re-scan — once per target
    page of the role, each on a fresh device (single-page faults)."""
    cell = {
        "fault": fault, "role": role, "detected": True, "actions": set(),
        "repaired": 0, "lost": 0, "consistent": True, "rescan_clean": True,
    }
    for kind in REGION_KINDS if role == "checkpoint" else (role,):
        injector, chip, driver = _build(spec)
        addr = _target_addr(driver, kind)
        injector.inject(fault, addr)
        report = fsck_driver(driver)
        if role == "checkpoint":
            # fsck never touches the mapping region; the snapshot protocol
            # self-heals: restart notices what it cannot read and repairs,
            # and two more snapshots recycle both halves and the journal.
            driver, _restart = restart_driver(
                chip, max_differential_size=64, mapping=driver.mapping.config
            )
            driver.mapping.snapshot()
            driver.mapping.snapshot()
        cell["detected"] &= any(f.addr == addr for f in report.faults)
        cell["actions"] |= {f.action for f in report.faults}
        cell["repaired"] += report.repaired
        cell["lost"] += len(report.lost_pids)
        cell["consistent"] &= report.check is not None and report.check.consistent
        cell["rescan_clean"] &= fsck_driver(driver).clean
    cell["actions"] = sorted(cell["actions"])
    return cell


def _run_repairable_cells(spec):
    """Cells engineered with surviving redundancy: repair is mandatory."""
    cells = []

    # A byte-identical obsolete copy of the base (GC-crash residue).
    injector, chip, driver = _build(spec)
    entry = driver.ppmt.require(VICTIM_PID)
    copy_addr = driver.blocks.allocate(stream=driver._base_stream)
    data, _ = chip.read_page(entry.base_addr)
    chip.program_page(
        copy_addr,
        data,
        SpareArea(
            type=PageType.BASE,
            pid=VICTIM_PID,
            timestamp=entry.base_ts,
            obsolete=True,
        ),
    )
    injector.inject("bit_rot", entry.base_addr)
    report = fsck_driver(driver)
    cells.append(
        {
            "cell": "base_with_copy",
            "repaired": report.repaired_base_pages == 1 and not report.lost_pids,
            "serves": driver.read_page(VICTIM_PID)
            == _patched(bytes([VICTIM_PID + 1]) * spec.page_data_size, 5, b"\xbb"),
        }
    )

    # A surviving obsolete predecessor differential page.
    injector, _chip, driver = _build(spec)
    v1 = _patched(bytes([VICTIM_PID + 1]) * spec.page_data_size, 5, b"\xbb")
    driver.write_page(VICTIM_PID, _patched(v1, 9, b"\xcc"))
    driver.flush()  # the previous differential page goes obsolete, not erased
    injector.inject("bit_rot", driver.ppmt.require(VICTIM_PID).diff_addr)
    report = fsck_driver(driver)
    cells.append(
        {
            "cell": "differential_with_chain",
            "repaired": report.repaired_differentials == 1 and not report.lost_pids,
            "serves": driver.read_page(VICTIM_PID) == v1,  # one version back
        }
    )
    return cells


def _run_scan_cost(scan_spec):
    """Price a clean full-device sweep on a half-full larger chip."""
    _injector, chip, driver = _build(scan_spec, n_pids=scan_spec.n_pages // 4)
    snap = chip.stats.snapshot()
    report = fsck_driver(driver, repair=False)
    delta = chip.stats.delta_since(snap).of_phase(FSCK_PHASE)
    per_gb_s = delta.time_us / scan_spec.data_capacity * (1 << 30) / 1e6
    return {
        "pages": report.pages_scanned,
        "reads": report.scan_reads,
        "reads_per_page": report.scan_reads / report.pages_scanned,
        "simulated_us": delta.time_us,
        "per_gb_s": per_gb_s,
        "clean": report.clean,
    }


def run_fsck_bench(scan_spec):
    table = ResultTable(
        experiment="fsck",
        title="fsck: fault-matrix detection/repair and scan cost",
        columns=("fault", "role", "detected", "actions", "rescan_clean"),
    )
    cells = [
        _run_cell(MATRIX_SPEC, fault, role) for fault in FAULTS for role in ROLES
    ]
    for cell in cells:
        table.add_row(
            cell["fault"],
            cell["role"],
            int(cell["detected"]),
            "+".join(cell["actions"]),
            int(cell["rescan_clean"]),
        )
    repairable = _run_repairable_cells(MATRIX_SPEC)
    for cell in repairable:
        table.add_row(
            "bit_rot",
            cell["cell"],
            1,
            "repaired" if cell["repaired"] and cell["serves"] else "FAILED",
            1,
        )
    scan = _run_scan_cost(scan_spec)
    detection_rate = sum(c["detected"] for c in cells) / len(cells)
    repair_rate = sum(
        c["repaired"] and c["serves"] for c in repairable
    ) / len(repairable)
    table.note(f"detection rate {detection_rate:.2f} over {len(cells)} cells")
    table.note(f"repair rate {repair_rate:.2f} over engineered repairable cells")
    table.note(
        f"scan: {scan['reads_per_page']:.2f} reads/page, "
        f"{scan['per_gb_s']:.1f} simulated s/GB on a half-full chip"
    )
    return table, cells, repairable, scan


def check_fsck(cells, repairable, scan):
    """Acceptance: 100% detection, repair wherever redundancy survives,
    a clean re-scan everywhere, and an untouched mapping region."""
    undetected = [c for c in cells if not c["detected"]]
    assert not undetected, f"undetected cells: {undetected}"
    for cell in cells:
        assert cell["consistent"], f"inconsistent after repair: {cell}"
        assert cell["rescan_clean"], f"re-scan not clean: {cell}"
        if cell["role"] == "checkpoint":
            assert cell["actions"] == ["reported"], (
                f"checkpoint damage must only be reported: {cell}"
            )
    for cell in repairable:
        assert cell["repaired"] and cell["serves"], f"repair failed: {cell}"
    assert scan["clean"]
    # One spare read per page plus data reads for the programmed subset:
    # the sweep must stay linear, not quadratic.
    assert scan["reads_per_page"] < 3.0, scan


def test_fsck_matrix(benchmark):
    table, cells, repairable, scan = benchmark.pedantic(
        lambda: run_fsck_bench(SCAN_SPEC_TINY),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    print()
    print(table.render())
    table.save()
    check_fsck(cells, repairable, scan)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="seconds-long smoke run (CI): 48-block scan chip",
    )
    args = parser.parse_args(argv)
    scan_spec = SCAN_SPEC_TINY if args.tiny else SCAN_SPEC_FULL
    table, cells, repairable, scan = run_fsck_bench(scan_spec)
    print(table.render())
    print(f"saved: {table.save()}")
    check_fsck(cells, repairable, scan)
    print("fsck matrix check: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
