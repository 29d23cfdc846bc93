"""Database plumbing for the demand-paged mapping tier.

``Database.open(mapping_cache=..., snapshot_interval=...)`` enables the
tiered mapping table on every shard.  The region *geometry* is durable
manifest state (a reopen must find the journal and snapshot halves where
they were written); the cache budget and snapshot cadence are runtime
tuning a caller may re-supply per open.
"""

from __future__ import annotations

import json

import pytest

from repro.core.mapping import TieredMappingTable
from repro.flash.spec import FlashSpec
from repro.ftl.errors import ConfigurationError, UnallocatedPageError
from repro.storage.db import MANIFEST_NAME, Database

SPEC = FlashSpec(
    n_blocks=20, pages_per_block=8, page_data_size=256, page_spare_size=32
)


def _populate(db, n=8):
    images = {}
    for _ in range(n):
        page = db.allocate_page()
        data = bytes([page.pid + 1]) * db.page_size
        page.write(0, data)
        images[page.pid] = data
    db.flush()
    return images


def _shards(db):
    shards = getattr(db.driver, "shards", None)
    return shards if shards is not None else [db.driver]


class TestMappingOpen:
    def test_create_reopen_roundtrip(self, tmp_path):
        with Database.open(
            tmp_path,
            spec=SPEC,
            max_differential_size=64,
            buffer_capacity=4,
            mapping_cache=16,
            snapshot_interval=48,
        ) as db:
            for shard in _shards(db):
                assert isinstance(shard.ppmt, TieredMappingTable)
                assert shard.mapping is not None
            images = _populate(db)
        # Geometry is manifest state: a plain reopen finds the region.
        with Database.open(tmp_path) as db2:
            for shard in _shards(db2):
                assert isinstance(shard.ppmt, TieredMappingTable)
            for pid, data in images.items():
                assert db2.page(pid).data == data
            with pytest.raises(UnallocatedPageError):
                db2.page(len(images))

    def test_manifest_records_region_geometry(self, tmp_path):
        with Database.open(
            tmp_path,
            spec=SPEC,
            max_differential_size=64,
            buffer_capacity=4,
            mapping_cache=0,  # resident cache, still journaled
        ) as db:
            _populate(db, n=4)
            region_blocks = db.driver.mapping.config.region_blocks
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["mapping"]["region_blocks"] == region_blocks
        assert manifest["mapping"]["journal_blocks"] >= 1

    def test_reopen_retunes_cache_without_touching_geometry(self, tmp_path):
        with Database.open(
            tmp_path,
            spec=SPEC,
            max_differential_size=64,
            buffer_capacity=4,
            mapping_cache=16,
        ) as db:
            images = _populate(db)
            stored = db.driver.mapping.config.region_blocks
        with Database.open(
            tmp_path, mapping_cache=64, snapshot_interval=200
        ) as db2:
            cfg = db2.driver.mapping.config
            assert cfg.region_blocks == stored  # geometry immutable
            assert cfg.cache_entries == 64  # tuning re-supplied
            assert cfg.snapshot_interval == 200
            for pid, data in images.items():
                assert db2.page(pid).data == data

    def test_snapshot_interval_requires_mapping_cache(self, tmp_path):
        with pytest.raises(ConfigurationError):
            Database.open(
                tmp_path,
                spec=SPEC,
                max_differential_size=64,
                buffer_capacity=4,
                snapshot_interval=100,
            )

    def test_mapping_args_on_non_mapping_database(self, tmp_path):
        with Database.open(
            tmp_path, spec=SPEC, max_differential_size=64, buffer_capacity=4
        ) as db:
            _populate(db, n=3)
        with pytest.raises(ConfigurationError):
            Database.open(tmp_path, mapping_cache=16)

    def test_raw_mapping_kwarg_is_rejected(self, tmp_path):
        from repro.core.mapping import MappingConfig

        with pytest.raises(ConfigurationError):
            Database.open(
                tmp_path,
                spec=SPEC,
                max_differential_size=64,
                buffer_capacity=4,
                mapping=MappingConfig.auto(SPEC),
            )
