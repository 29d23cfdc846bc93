"""Tests for the driver registry: labels → constructed drivers.

The label grammar itself (round trips, the rejection table) is held by
``tests/test_config.py``; these cases check what ``make_method`` builds.
"""

import pytest

from repro.config import EngineConfig
from repro.core.pdl import PdlDriver
from repro.flash.chip import FlashChip
from repro.ftl.errors import ConfigurationError
from repro.ftl.ipl import IplDriver
from repro.ftl.ipu import IpuDriver
from repro.ftl.opu import OpuDriver
from repro.methods import (
    PAPER_METHODS,
    PAPER_METHODS_NO_IPU,
    make_method,
    method_labels,
)


class TestParallelToken:
    """The ``par`` token: still accepted after ``xN``, and ignored —
    every array is thread-safe (tests/sharding/test_parallel_driver.py)."""

    def test_token_stripped_from_anywhere(self):
        want = EngineConfig(n_shards=4)
        assert EngineConfig.parse("PDL (256B) x4 par") == want
        assert EngineConfig.parse("PDL (256B) par x4") == want
        assert EngineConfig.parse("OPU x2 par").label == "OPU x2"

    def test_token_is_word_bounded(self):
        # 'par' inside another word is not the token: no such label.
        with pytest.raises(ConfigurationError, match="unknown method label"):
            EngineConfig.parse("OPU x2 parquet")
        with pytest.raises(ConfigurationError, match="unknown method label"):
            EngineConfig.parse("OPU x2par")

    def test_duplicate_token_rejected(self):
        with pytest.raises(ConfigurationError, match="more than one parallel"):
            EngineConfig.parse("OPU x2 par par")

    def test_removed_process_token_is_an_unknown_label(self, chip):
        # No special case for the token the process transport used: it
        # is just text the label grammar does not know.
        with pytest.raises(ConfigurationError, match="unknown method label"):
            make_method("PDL (256B) proc", chip)
        chips = [FlashChip(chip.spec) for _ in range(2)]
        with pytest.raises(ConfigurationError, match="unknown method label"):
            make_method("PDL (256B) x2 proc", chips)


class TestLabelParsing:
    def test_opu(self, chip):
        assert isinstance(make_method("OPU", chip), OpuDriver)

    def test_ipu(self, chip):
        assert isinstance(make_method("ipu", chip), IpuDriver)

    def test_pdl_bytes(self, chip):
        driver = make_method("PDL (64B)", chip)
        assert isinstance(driver, PdlDriver)
        assert driver.max_differential_size == 64

    def test_pdl_kilobytes(self, tiny_spec):
        from repro.flash.spec import SAMSUNG_K9L8G08U0M

        chip = FlashChip(SAMSUNG_K9L8G08U0M.scaled(8))
        driver = make_method("PDL (2KB)", chip)
        assert driver.max_differential_size == 2048

    def test_ipl(self, chip):
        driver = make_method("IPL (512B)", chip)
        assert isinstance(driver, IplDriver)
        assert driver.log_region_bytes == 512

    def test_whitespace_and_case_tolerated(self, chip):
        assert isinstance(make_method("  pdl( 64 B )".replace(" ", ""), chip), PdlDriver)
        assert isinstance(make_method("opu", chip), OpuDriver)

    def test_unknown_label(self, chip):
        with pytest.raises(ConfigurationError):
            make_method("LSM (4KB)", chip)
        with pytest.raises(ConfigurationError):
            make_method("PDL", chip)

    def test_kwargs_forwarded(self, chip):
        driver = make_method("PDL (64B)", chip, diff_unit=None)
        assert driver.diff_unit is None


class TestShardedLabels:
    """The ``xN`` suffix builds a ShardedDriver over N chips."""

    def _chips(self, n):
        from repro.flash.spec import TINY_SPEC

        return [FlashChip(TINY_SPEC) for _ in range(n)]

    def test_sharded_pdl(self):
        from repro.sharding.driver import ShardedDriver

        driver = make_method("PDL (64B) x2", self._chips(2))
        assert isinstance(driver, ShardedDriver)
        assert driver.name == "PDL (64B) x2"
        assert all(s.max_differential_size == 64 for s in driver.shards)

    def test_sharded_labels_roundtrip_to_names(self):
        for base in ("PDL (256B)", "OPU", "IPU", "IPL (512B)"):
            driver = make_method(f"{base} x2", self._chips(2))
            assert driver.name == f"{base} x2"

    def test_case_and_whitespace_tolerated(self):
        driver = make_method("  pdl (64 B)  X3 ", self._chips(3))
        assert driver.n_shards == 3

    def test_unknown_base_method_still_rejected(self):
        with pytest.raises(ConfigurationError):
            make_method("LSM (4KB) x2", self._chips(2))

    def test_sequence_of_one_chip_for_plain_label(self):
        driver = make_method("PDL (64B)", self._chips(1))
        assert isinstance(driver, PdlDriver)

    def test_many_chips_for_plain_label_rejected(self):
        from repro.ftl.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            make_method("PDL (64B)", self._chips(2))


class TestMethodLists:
    def test_paper_methods_complete(self):
        assert set(PAPER_METHODS) == {
            "IPL (18KB)", "IPL (64KB)", "PDL (2KB)", "PDL (256B)", "OPU", "IPU",
        }

    def test_no_ipu_variant(self):
        assert "IPU" not in PAPER_METHODS_NO_IPU
        assert len(PAPER_METHODS_NO_IPU) == 5

    def test_method_labels(self):
        assert method_labels() == list(PAPER_METHODS)
        assert method_labels(include_ipu=False) == list(PAPER_METHODS_NO_IPU)

    def test_labels_roundtrip_to_names(self):
        """Constructed drivers report the exact label they were made from."""
        from repro.flash.spec import SAMSUNG_K9L8G08U0M

        for label in PAPER_METHODS:
            chip = FlashChip(SAMSUNG_K9L8G08U0M.scaled(8))
            assert make_method(label, chip).name == label


class TestGcLabelToken:
    """The ``gc=<policy>`` token: per-driver GC policy from the label."""

    def _chips(self, n):
        from repro.flash.spec import TINY_SPEC

        return [FlashChip(TINY_SPEC) for _ in range(n)]

    def test_parse_gc_label(self):
        from repro.ftl.gc import GcConfig

        assert EngineConfig.parse("PDL (256B)").gc == GcConfig()
        want = EngineConfig(n_shards=4, gc=GcConfig(policy="cb"))
        assert EngineConfig.parse("PDL (256B) x4 gc=cb") == want
        assert EngineConfig.parse("PDL (256B) gc=cb x4") == want
        assert EngineConfig.parse("OPU gc=WEAR").gc.policy == "wear"
        with pytest.raises(ConfigurationError, match="more than one gc"):
            EngineConfig.parse("PDL (256B) gc=cb gc=wear")

    def test_single_driver_gets_policy(self, chip):
        from repro.ftl.gc import cost_benefit_policy

        driver = make_method("PDL (256B) gc=cb", chip)
        assert driver.gc.policy is cost_benefit_policy
        assert driver.gc.config.policy == "cb"
        assert driver.name == "PDL (256B) gc=cb"

    def test_sharded_label_builds_per_shard_configs(self):
        from repro.ftl.gc import wear_aware_policy  # noqa: F401

        driver = make_method("PDL (64B) x2 gc=wear", self._chips(2))
        for shard in driver.shards:
            assert shard.gc.config.policy == "wear"
        # Fresh policy instance per shard (stateful policies must not share).
        assert driver.shards[0].gc.policy is not driver.shards[1].gc.policy
        assert driver.name == "PDL (64B) gc=wear x2"

    def test_driver_name_roundtrips_through_the_parser(self):
        driver = make_method("PDL (64B) x2 gc=cb", self._chips(2))
        rebuilt = make_method(driver.name, self._chips(2))
        assert rebuilt.name == driver.name

    def test_opu_accepts_gc_token(self, chip):
        driver = make_method("OPU gc=cb", chip)
        assert driver.gc.config.policy == "cb"
        assert driver.name == "OPU gc=cb"

    def test_ipu_and_ipl_reject_gc_token(self, chip):
        from repro.ftl.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            make_method("IPU gc=cb", chip)
        with pytest.raises(ConfigurationError):
            make_method("IPL (18KB) gc=cb", chip)

    def test_gc_token_conflicts_with_explicit_kwargs(self, chip):
        from repro.ftl.gc import GcConfig

        with pytest.raises(ConfigurationError, match="already sets gc"):
            make_method("PDL (256B) gc=cb", chip, gc=GcConfig())
        # The callable spelling is gone: a registered name is the one way.
        with pytest.raises(ConfigurationError, match="unknown engine option 'victim_policy'"):
            make_method("PDL (256B)", chip, victim_policy=lambda blocks: None)

    def test_unknown_policy_name_rejected(self, chip):
        from repro.ftl.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown victim policy"):
            make_method("PDL (256B) gc=mystery", chip)

    def test_incremental_config_through_kwargs(self, chip):
        from repro.ftl.gc import GcConfig

        driver = make_method(
            "PDL (256B)", chip, gc=GcConfig(incremental_steps=4, hot_cold=True)
        )
        assert driver.gc.config.incremental_steps == 4
        assert driver.gc_config.hot_cold
