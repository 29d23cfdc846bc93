"""``EngineConfig``: one value, one validator, one assembler.

* the value round-trips through its label and through JSON (Hypothesis);
* every configuration mistake is a ``ConfigurationError`` raised when
  the config is made — not at build, replay or open time;
* durable fields are held to the manifest, retunable ones are not;
* the assembly-equivalence table: what every way of naming an engine
  built at the commit *before* ``EngineConfig`` existed (recorded there,
  as literals) is what it builds now.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bench.figures import SCALES
from repro.config import DURABLE, EngineConfig
from repro.flash.backend import BackendError, FileBackend
from repro.flash.chip import FlashChip
from repro.flash.spec import SAMSUNG_K9L8G08U0M, TINY_SPEC, FlashSpec
from repro.ftl.errors import ConfigurationError
from repro.ftl.gc import GcConfig, victim_policy_names
from repro.methods import PAPER_METHODS, make_method
from repro.sharding.driver import ShardedDriver
from repro.sharding.recovery import recover_all
from repro.storage.bufferpool import eviction_policy_names
from repro.storage.db import Database
from repro.workloads.patterns import pattern_names
from repro.workloads.runner import RunnerConfig

SPEC = FlashSpec(n_blocks=24, pages_per_block=8, page_data_size=256, page_spare_size=32)

# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
sizes = st.one_of(st.integers(1, 1023), st.integers(1, 64).map(lambda kb: kb * 1024))
shapes = st.one_of(
    st.just({}),
    st.builds(lambda n: {"n_shards": n}, st.integers(1, 16)),
)
collectors = st.sampled_from(["greedy", "cb", "wear"]).map(
    lambda name: {"gc": GcConfig(policy=name)}
)
methods = st.one_of(
    st.builds(lambda size, gc: {"max_differential_size": size, **gc}, sizes, collectors),
    st.builds(lambda size: {"method": "IPL", "log_region_bytes": size}, sizes),
    st.builds(lambda gc: {"method": "OPU", **gc}, collectors),
    st.just({"method": "IPU"}),
)
#: Every config a label can express: a method, an array shape, a policy.
label_configs = st.builds(lambda method, shape: EngineConfig(**method, **shape), methods, shapes)


@st.composite
def any_configs(draw):
    """Label-expressible configs with the remaining fields drawn too."""
    config = draw(label_configs)
    extra = {"spec": draw(st.sampled_from([None, TINY_SPEC, SPEC]))}
    if draw(st.booleans()):
        extra["buffer_capacity"] = draw(st.integers(1, 256))
        extra["buffer_policy"] = draw(st.sampled_from(["lru", "2q"]))
    if config.method == "PDL":
        extra["diff_unit"] = draw(st.sampled_from([None, 1, 16, 64]))
        if draw(st.booleans()):
            extra["mapping_cache"] = draw(st.integers(0, 64))
            extra["snapshot_interval"] = draw(st.sampled_from([None, 24, 1024]))
            extra["mapping_region"] = draw(st.sampled_from([None, (10, 2), (15, 1)]))
    if config.method in ("PDL", "OPU"):
        extra["gc"] = dataclasses.replace(
            config.gc,
            incremental_steps=draw(st.integers(0, 8)),
            hot_cold=draw(st.booleans()),
        )
    return dataclasses.replace(config, **extra)


@given(config=label_configs)
def test_label_round_trip(config):
    assert EngineConfig.parse(config.label) == config
    # Case, spacing and the order of the trailing tokens are the writer's choice.
    words = config.label.split()
    tokens = [w for w in words if w.startswith(("x", "gc="))]
    method = [w for w in words if w not in tokens]
    respelled = "  ".join(method + tokens[::-1]).lower()
    assert EngineConfig.parse(respelled) == config


@given(config=any_configs())
def test_json_round_trip(config):
    text = config.to_json()
    assert EngineConfig.from_json(text) == config
    assert json.loads(text)["method"] == config.method  # plain JSON, one object


# ----------------------------------------------------------------------
# The rejection table
# ----------------------------------------------------------------------
REJECTED = {
    "unknown method": lambda: EngineConfig.parse("LSM (4KB)"),
    "unknown method keyword": lambda: EngineConfig(method="LSM"),
    "PDL without a size": lambda: EngineConfig.parse("PDL"),
    "PDL (0B)": lambda: EngineConfig.parse("PDL (0B)"),
    "x0": lambda: EngineConfig.parse("PDL (256B) x0"),
    "par on an unsharded label": lambda: EngineConfig.parse("PDL (256B) par"),
    "two gc= tokens": lambda: EngineConfig.parse("PDL (256B) gc=cb gc=wear"),
    "two xN tokens": lambda: EngineConfig.parse("OPU x2 x4"),
    "trailing junk": lambda: EngineConfig.parse("OPU x2 fast"),
    "gc= on IPL": lambda: EngineConfig.parse("IPL (18KB) gc=cb"),
    "gc= on IPU": lambda: EngineConfig.parse("IPU gc=cb"),
    "gc on IPU by keyword": lambda: EngineConfig(method="IPU", gc=GcConfig(hot_cold=True)),
    "label and keyword both set gc": lambda: EngineConfig.parse("OPU gc=cb", gc=GcConfig()),
    "IPL without its log region": lambda: EngineConfig(method="IPL"),
    "max_differential_size on OPU": lambda: EngineConfig(method="OPU", max_differential_size=64),
    "diff_unit on OPU": lambda: EngineConfig(method="OPU", diff_unit=None),
    "mapping_cache on a non-PDL method": lambda: EngineConfig(method="OPU", mapping_cache=16),
    "snapshot_interval without mapping_cache": lambda: EngineConfig(snapshot_interval=48),
    "mapping_region without mapping_cache": lambda: EngineConfig(mapping_region=(10, 2)),
    "mapping_region that is no region": lambda: EngineConfig(
        mapping_cache=0, mapping_region=(3, 2)
    ),
    "negative mapping_cache": lambda: EngineConfig(mapping_cache=-1),
    # ``writeback`` is no field any more: every spelling is an unknown option.
    "writeback without a pool": lambda: EngineConfig.of(writeback="background"),
    "unknown writeback mode": lambda: EngineConfig.of(buffer_capacity=8, writeback="bogus"),
    "non-bool parallel": lambda: EngineConfig.of(n_shards=2, parallel="thread"),
    "truthy parallel": lambda: EngineConfig.of(n_shards=2, parallel=1),
    "unknown eviction policy": lambda: EngineConfig(buffer_capacity=8, buffer_policy="nope"),
    "unknown victim policy": lambda: EngineConfig(gc=GcConfig(policy="mystery")),
    "unknown victim policy in a label": lambda: EngineConfig.parse("OPU gc=mystery"),
    "gc that is not a GcConfig": lambda: EngineConfig(gc="cb"),
    "buffer_capacity=0": lambda: EngineConfig(buffer_capacity=0),
    "non-integer capacity": lambda: EngineConfig(buffer_capacity="8"),
    "spec that is not a FlashSpec": lambda: EngineConfig(spec={"n_blocks": 8}),
    "unknown keyword": lambda: EngineConfig.of(victim_policy=None),
    "unknown keyword beside a label": lambda: EngineConfig.parse("OPU", coalesce_gap=4),
}


@pytest.mark.parametrize("make", REJECTED.values(), ids=REJECTED.keys())
def test_rejected_when_the_config_is_made(make):
    with pytest.raises(ConfigurationError):
        make()


def test_chip_count_and_router_are_checked_before_anything_is_built(tmp_path, monkeypatch):
    chips = [FlashChip(TINY_SPEC) for _ in range(3)]
    with pytest.raises(ConfigurationError, match="takes 2 chip"):
        EngineConfig.parse("PDL (64B) x2").build(chips)
    with pytest.raises(ConfigurationError, match="did you mean 'PDL \\(64B\\) x3'"):
        EngineConfig.parse("PDL (64B)").build(chips)
    with pytest.raises(ConfigurationError, match="only PDL"):
        EngineConfig.parse("OPU x3").recover(chips)
    for chip in chips:  # nothing was programmed on the way to the error
        assert chip.stats.totals().writes == 0

    # A manifest whose router is not the hash partition (another kind, or
    # none) is refused, naming the directory and the kind, and a
    # malformed one is a BackendError: both before any image is opened.
    _create(tmp_path)
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))

    def no_image(*args, **kwargs):
        raise AssertionError("a shard image was opened before the manifest check")

    monkeypatch.setattr(FileBackend, "open", no_image)
    for router, error, named in [
        ({"kind": "range"}, ConfigurationError, "router kind 'range'"),
        (None, ConfigurationError, "router kind None"),
        ("hash", BackendError, "malformed"),
    ]:
        stored = {key: value for key, value in manifest.items() if key != "router"}
        if router is not None:
            stored["router"] = router
        manifest_path.write_text(json.dumps(stored), encoding="utf-8")
        with pytest.raises(error, match=named) as raised:
            Database.open(tmp_path)
        assert str(tmp_path) in str(raised.value)


# ----------------------------------------------------------------------
# Durable vs retunable
# ----------------------------------------------------------------------
def test_durable_is_exactly_what_the_manifest_holds():
    assert DURABLE == ("max_differential_size", "n_shards", "spec", "mapping_region")
    manifest = EngineConfig(spec=SPEC, n_shards=2, mapping_cache=4, mapping_region=(10, 2)).manifest()
    assert sorted(manifest) == ["mapping", "max_differential_size", "n_shards", "router", "spec"]


def _create(path, **fields):
    with Database.open(path, spec=SPEC, n_shards=2, max_differential_size=64, **fields) as db:
        page = db.allocate_page()
        page.write(0, b"\x5a" * db.page_size)
        db.flush()


def test_retunable_fields_may_differ_on_reopen(tmp_path):
    _create(tmp_path, mapping_cache=16, buffer_capacity=4)
    retuned = dict(
        buffer_capacity=32,
        buffer_policy="2q",
        parallel=True,  # accepted and ignored
        gc=GcConfig(policy="cb", incremental_steps=2),
        mapping_cache=0,
        snapshot_interval=24,
        diff_unit=None,
    )
    with Database.open(tmp_path, **retuned) as db:
        assert db.page(0).data == b"\x5a" * db.page_size
        assert db.pool.capacity == 32 and db.driver.name == "PDL (64B) gc=cb x2"
        for shard in db.driver.shards:
            assert shard.mapping.config.cache_entries == 0
            assert shard.mapping.config.snapshot_interval == 24
            assert shard.diff_unit is None


@pytest.mark.parametrize(
    "contradiction",
    [
        {"n_shards": 3},
        {"max_differential_size": 256},
        {"spec": SPEC.scaled(32)},
        {"spec": SPEC.with_timings(t_read_us=1.0)},
        {"mapping_cache": 16},  # the tier's presence is durable
        {"mapping_region": (10, 2), "mapping_cache": 0},
    ],
    ids=lambda fields: "+".join(fields),
)
def test_durable_fields_may_not_contradict_the_manifest(tmp_path, contradiction):
    _create(tmp_path)
    with pytest.raises(ConfigurationError, match=next(iter(contradiction)).split("_")[0]):
        Database.open(tmp_path, **contradiction)
    with Database.open(tmp_path) as db:  # and the refusal harmed nothing
        assert db.page(0).data == b"\x5a" * db.page_size


def test_durable_fields_not_passed_come_from_the_manifest(tmp_path):
    """Never compared against a default: 64 B / 2 shards / SPEC are not
    the defaults (256 B / 1 / BENCH_SPEC), and a bare reopen is fine."""
    _create(tmp_path, mapping_cache=16, snapshot_interval=48)
    with Database.open(tmp_path) as db:
        assert [s.max_differential_size for s in db.driver.shards] == [64, 64]
        assert db.driver.chips[0].spec == SPEC
        # The region geometry recorded at creation (interval 48: 9 blocks,
        # 1 of journal), not the (10, 2) the default interval would size.
        tier = db.driver.shards[0].mapping.config
        assert (tier.region_blocks, tier.journal_blocks) == (9, 1)
    # Passing the stored values again is not a contradiction either.
    with Database.open(tmp_path, spec=SPEC, n_shards=2, max_differential_size=64):
        pass


def test_the_name_tables_are_closed():
    """Every name a config, label or scenario may use; a new one is a
    reviewed entry in its table, never a runtime registration."""
    assert set(victim_policy_names()) == {"greedy", "cb", "wear", "rr"}
    assert set(eviction_policy_names()) == {"lru", "2q"}
    assert pattern_names() == [
        "scan-hot",
        "sequential",
        "strided",
        "ycsb-a",
        "ycsb-b",
        "ycsb-c",
        "ycsb-d",
        "ycsb-e",
        "ycsb-f",
        "zipf-0.6",
        "zipf-0.9",
        "zipf-0.99",
        "zipf-1.2",
    ]


# ----------------------------------------------------------------------
# The assembly-equivalence table (literals recorded at the parent commit)
# ----------------------------------------------------------------------
#: A collector's (policy, incremental steps, hot/cold).  Recorded with a
#: ``trigger_blocks`` entry (``None``) between the steps and hot/cold until
#: that field was deleted and the trigger level became a constant.
GREEDY = ("greedy", 0, False)
CB = ("cb", 0, False)


def _facts(driver):
    """(stack type, name, shards, per-shard max diff / gc / mapping)."""
    shards = driver.shards if isinstance(driver, ShardedDriver) else [driver]
    per_shard = set()
    for shard in shards:
        gc = getattr(shard, "gc_config", None)
        store = getattr(shard, "mapping", None)
        tier = getattr(store, "config", None)  # OPU/IPU's ``mapping`` is a dict
        per_shard.add(
            (
                getattr(shard, "max_differential_size", None),
                gc and (gc.policy, gc.incremental_steps, gc.hot_cold),
                tier and (tier.region_blocks, tier.journal_blocks,
                          tier.cache_entries, tier.snapshot_interval),
            )
        )
    (only,) = per_shard  # homogeneous fleets
    return (type(driver).__name__, driver.name, len(shards), *only)


PARENT_LABELS = {
    "IPL (18KB)": ("IplDriver", "IPL (18KB)", 1, None, None, None),
    "IPL (64KB)": ("IplDriver", "IPL (64KB)", 1, None, None, None),
    "PDL (2KB)": ("PdlDriver", "PDL (2KB)", 1, 2048, GREEDY, None),
    "PDL (256B)": ("PdlDriver", "PDL (256B)", 1, 256, GREEDY, None),
    "OPU": ("OpuDriver", "OPU", 1, None, GREEDY, None),
    "IPU": ("IpuDriver", "IPU", 1, None, None, None),
}

#: cell name -> facts + (backend, (pool frames, policy)).  Recorded with a
#: third, write-back entry (``None``; ``"background"`` for ``pdl-buf-2q``)
#: until the write-back daemon was deleted and that cell lost its ``-bg``.
NO_POOL = (None, "lru")
PARENT_CELLS = {
    "pdl-256": ("PdlDriver", "PDL (256B)", 1, 256, GREEDY, None, "memory", NO_POOL),
    "pdl-2k": ("PdlDriver", "PDL (2KB)", 1, 2048, GREEDY, None, "memory", NO_POOL),
    "opu": ("OpuDriver", "OPU", 1, None, GREEDY, None, "memory", NO_POOL),
    "ipu": ("IpuDriver", "IPU", 1, None, None, None, "memory", NO_POOL),
    "ipl-512": ("IplDriver", "IPL (512B)", 1, None, None, None, "memory", NO_POOL),
    "pdl-256-file": ("PdlDriver", "PDL (256B)", 1, 256, GREEDY, None, "file", NO_POOL),
    "pdl-x4": ("ShardedDriver", "PDL (256B) x4", 4, 256, GREEDY, None, "memory", NO_POOL),
    "pdl-x4-cb": ("ShardedDriver", "PDL (256B) gc=cb x4", 4, 256, CB, None, "memory", NO_POOL),
    # Recorded with the worker-threaded class and an "x2 par" label until
    # every array became gated and the cell's label lost its ``par``.
    "pdl-x2-thread": ("ShardedDriver", "PDL (256B) x2", 2, 256, GREEDY, None, "memory", NO_POOL),
    "opu-x2-file": ("ShardedDriver", "OPU x2", 2, None, GREEDY, None, "file", NO_POOL),
    "pdl-buf-lru": ("PdlDriver", "PDL (256B)", 1, 256, GREEDY, None, "memory", (12, "lru")),
    "pdl-buf-2q": ("PdlDriver", "PDL (256B)", 1, 256, GREEDY, None, "memory", (12, "2q")),
    "pdl-map-16": ("PdlDriver", "PDL (256B)", 1, 256, GREEDY, (15, 1, 16, 48), "memory", NO_POOL),
    "pdl-map-res": ("PdlDriver", "PDL (256B)", 1, 256, GREEDY, (16, 2, 0, 96), "memory", NO_POOL),
    "pdl-map-x2": (
        "ShardedDriver", "PDL (256B) x2", 2, 256, GREEDY, (10, 2, 16, 64), "memory", NO_POOL,
    ),
}
#: The tiny grid repeats default cells; only its pool is smaller.
PARENT_TINY_POOL = (10, "2q")

#: (n_shards, mapping_cache) -> first 16 hex digits of sha256(manifest.json).
PARENT_MANIFESTS = {
    (1, None): "e99983c610e449b2",
    (1, 16): "7bda2c87e2d876c2",
    (2, None): "a3c13d182beb6ee8",
    (2, 16): "094e2b4d548501ec",
    (4, None): "4e9de8f279dfadc7",
    (4, 16): "7c4557a774863c54",
}

#: ``manifest.json`` exactly as the parent commit wrote it for
#: ``Database.open(path, spec=SPEC, n_shards=2, mapping_cache=16)``.
GOLDEN_MANIFEST = """{
  "format": 1,
  "mapping": {
    "journal_blocks": 2,
    "region_blocks": 10
  },
  "max_differential_size": 256,
  "n_shards": 2,
  "router": {
    "kind": "hash"
  },
  "spec": {
    "enforce_endurance": false,
    "erase_endurance": 100000,
    "max_log_page_programs": 16,
    "max_spare_programs": 4,
    "n_blocks": 24,
    "page_data_size": 256,
    "page_spare_size": 32,
    "pages_per_block": 8,
    "t_erase_us": 1500.0,
    "t_read_us": 110.0,
    "t_write_us": 1010.0
  }
}"""


@pytest.mark.parametrize("label", PAPER_METHODS)
def test_paper_labels_assemble_as_at_the_parent(label):
    driver = make_method(label, FlashChip(SAMSUNG_K9L8G08U0M.scaled(8)))
    assert _facts(driver) == PARENT_LABELS[label]


@pytest.mark.parametrize(
    "grid, cell",
    # "default" is small's (and paper's) grid, "tiny" is smoke's.
    [("default", cell) for cell in SCALES["small"].grid.cells]
    + [("tiny", cell) for cell in SCALES["smoke"].grid.cells],
    ids=lambda value: value if isinstance(value, str) else value.name,
)
def test_grid_cells_assemble_as_at_the_parent(grid, cell):
    config = cell.config
    runner = RunnerConfig(database_pages=96, utilization=0.25, base_spec=TINY_SPEC)
    driver = config.build(runner.chips(config))
    try:
        pool = (config.buffer_capacity, config.buffer_policy)
        expected = PARENT_CELLS[cell.name]
        if grid == "tiny" and cell.name == "pdl-buf-2q":
            expected = (*expected[:-1], PARENT_TINY_POOL)
        assert (*_facts(driver), cell.backend, pool) == expected
        # ``driver.name`` is the config's label for every stack ``build``
        # returns, so a result stamped with a name re-reads as the config
        # (up to the fields a label cannot express).
        named = EngineConfig.parse(driver.name)
        assert named.label == driver.name == config.label
        for knob in ("method", "max_differential_size", "log_region_bytes",
                     "n_shards", "gc"):
            assert getattr(named, knob) == getattr(config, knob), knob
    finally:
        driver.close()


@pytest.mark.parametrize("mapping_cache", [None, 16])
@pytest.mark.parametrize("parallel", [False, True])
@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_database_open_assembles_as_at_the_parent(tmp_path, n_shards, parallel, mapping_cache):
    # One image is a *bare* PdlDriver — the pool workloads must not
    # acquire the routed façade — and ``parallel`` is accepted and ignored.
    if n_shards == 1:
        stack, name = "PdlDriver", "PDL (256B)"
    else:
        stack, name = "ShardedDriver", f"PDL (256B) x{n_shards}"
    created_tier = None if mapping_cache is None else (10, 2, 16, 64)
    reopened_tier = None if mapping_cache is None else (10, 2, 0, 64)  # cache is retunable
    fields = {} if mapping_cache is None else {"mapping_cache": mapping_cache}
    with Database.open(tmp_path, spec=SPEC, n_shards=n_shards, parallel=parallel, **fields) as db:
        assert _facts(db.driver) == (stack, name, n_shards, 256, GREEDY, created_tier)
    raw = (tmp_path / "manifest.json").read_bytes()
    assert hashlib.sha256(raw).hexdigest()[:16] == PARENT_MANIFESTS[n_shards, mapping_cache]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"] + [
        f"shard-{i:04d}.flash" for i in range(n_shards)
    ]
    with Database.open(tmp_path, parallel=parallel) as db:
        assert _facts(db.driver) == (stack, name, n_shards, 256, GREEDY, reopened_tier)


def test_x1_label_and_one_chip_recovery_still_build_the_facade():
    chip = FlashChip(TINY_SPEC)
    driver = make_method("PDL (64B) x1", [chip])
    assert _facts(driver)[:3] == ("ShardedDriver", "PDL (64B) x1", 1)
    recovered, reports = recover_all([chip], max_differential_size=64)
    assert _facts(recovered)[:3] == ("ShardedDriver", "PDL (64B) x1", 1) and len(reports) == 1


def test_golden_parent_manifest_opens_and_is_what_we_write(tmp_path):
    # A parent-written directory: its manifest, plus images (blank ones
    # — a database that was created and closed).
    (tmp_path / "old").mkdir()
    (tmp_path / "old" / "manifest.json").write_text(GOLDEN_MANIFEST, encoding="utf-8")
    for i in range(2):
        FileBackend.create(tmp_path / "old" / f"shard-{i:04d}.flash", SPEC).close()
    with Database.open(tmp_path / "old", buffer_capacity=4) as db:
        assert _facts(db.driver) == (
            "ShardedDriver", "PDL (256B) x2", 2, 256, GREEDY, (10, 2, 0, 64),
        )
        page = db.allocate_page()
        page.write(0, b"\x33" * db.page_size)
    with Database.open(tmp_path / "old", mapping_cache=16) as db:
        assert db.page(0).data == b"\x33" * db.page_size
    # And the same configuration, created here, writes those very bytes.
    with Database.open(tmp_path / "new", spec=SPEC, n_shards=2, mapping_cache=16):
        pass
    assert (tmp_path / "new" / "manifest.json").read_text(encoding="utf-8") == GOLDEN_MANIFEST
