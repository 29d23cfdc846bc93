"""One value that says *which engine*: :class:`EngineConfig`.

The paper's claim is DBMS-independence — six configurations swapped
under one storage system (Figure 12's legend).  Here a configuration is
one frozen, JSON-round-trippable value, and everything that names an
engine is a way of writing it down: a paper-style **label**
(:meth:`EngineConfig.parse` is the only tokenizer, :attr:`~EngineConfig.label`
its inverse and what drivers report as ``name``); the **keywords** of
``make_method(label, chips, **fields)``, ``recover_all(chips, **fields)``
and ``Database.open(path, **fields)``, which are exactly the field names;
``manifest.json``, which holds the *durable* fields (:data:`DURABLE` —
burned into the flash images, so a contradicting value on reopen raises;
every other field is *retunable*, chosen afresh by each process); and a
scenario-grid cell, which is a name, a backend and an ``EngineConfig``.

The constructor is the one validator — it runs before anything touches
a device or the disk and always raises
:class:`~repro.ftl.errors.ConfigurationError` — and
:meth:`EngineConfig.build` / :meth:`EngineConfig.recover` are the one
assembler: the only places a bare or a
:class:`~repro.sharding.driver.ShardedDriver` stack is chosen.
Field table and label grammar: ``docs/architecture.md``, "Configuration".
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .core.differential import DEFAULT_DIFF_UNIT
from .core.mapping import MappingConfig, default_snapshot_interval
from .core.pdl import PdlDriver
from .core.recovery import RecoveryReport, recover_driver
from .flash.backend import BackendError
from .flash.chip import FlashChip
from .flash.spec import BENCH_SPEC, FlashSpec
from .ftl.base import PageUpdateMethod, format_size
from .ftl.errors import ConfigurationError
from .ftl.gc import GcConfig, make_victim_policy
from .ftl.ipl import IplDriver
from .ftl.ipu import IpuDriver
from .ftl.opu import OpuDriver
from .sharding.driver import ShardedDriver
from .storage.bufferpool.policy import make_eviction_policy

#: The page-update methods a config can name.
METHODS = ("PDL", "IPL", "OPU", "IPU")

# The label grammar: ``<method> [xN] [par] [gc=<policy>]``, the three
# tokens in any order, case-insensitive, whitespace-tolerant.  ``par``
# (thread-safe execution, which every array now has) is accepted and
# ignored, so old labels keep working.
_METHOD_RE = re.compile(
    r"\s*(?:(?P<plain>OPU|IPU)|(?P<sized>PDL|IPL)\s*\(\s*(?P<size>\d+)\s*(?P<unit>K?B)?\s*\))",
    re.IGNORECASE,
)
_TOKEN_RE = re.compile(
    r"\s*(?:x\s*(?P<n_shards>\d+)|(?P<parallel>par)|gc\s*=\s*(?P<gc>[a-z_][\w\-]*))(?=\s|$)",
    re.IGNORECASE,
)

#: Smallest legal value of each integer field (``None`` = unset, where allowed).
_MINIMUM = {
    "max_differential_size": 1,
    "log_region_bytes": 1,
    "n_shards": 1,
    "diff_unit": 1,
    "buffer_capacity": 1,
    "mapping_cache": 0,
    "snapshot_interval": 1,
}

_GC_KEYS = ("policy", "incremental_steps", "hot_cold")
_REGION_KEYS = ("region_blocks", "journal_blocks")

#: One chip, or the chips of an array in shard order.
Chips = Union[FlashChip, Sequence[FlashChip]]


def _knob(default: Any, *, durable: bool = False, only: Tuple[str, ...] = METHODS) -> Any:
    """A field: its default, manifest-recorded or not, the methods it applies to."""
    return field(default=default, metadata={"durable": durable, "only": only})


@dataclass(frozen=True)
class EngineConfig:
    """Which engine: method, array shape, GC, pool and mapping tier."""

    #: Page-update method, one of :data:`METHODS`.  ``Database.open``
    #: persists PDL only (the manifest does not record it).
    method: str = "PDL"
    #: PDL's Max_Differential_Size in bytes (the ``(256B)`` of a label);
    #: unset on a PDL config means the paper's 256.
    max_differential_size: Optional[int] = _knob(None, durable=True, only=("PDL",))
    #: IPL's per-block log region in bytes (the ``(18KB)`` of a label).
    log_region_bytes: Optional[int] = _knob(None, only=("IPL",))
    #: ``None`` drives one chip bare; ``N`` puts N chips behind the sharded
    #: façade (``x1`` is the façade over one chip, the baseline of
    #: shard-scaling sweeps).  For a database directory it is the number
    #: of images, and one image is driven bare.
    n_shards: Optional[int] = _knob(None, durable=True)
    #: PDL's differential granularity in bytes; ``None`` compares
    #: byte-wise (the granularity ablation).
    diff_unit: Optional[int] = _knob(DEFAULT_DIFF_UNIT, only=("PDL",))
    #: Victim policy, incremental step budget and hot/cold separation of
    #: every (per-shard) collector.  IPL merges and IPU updates in
    #: place, so neither has a collector to tune.
    gc: GcConfig = _knob(GcConfig(), only=("PDL", "OPU"))
    #: Chip geometry and timings of the images ``Database.open`` creates
    #: (default :data:`~repro.flash.spec.BENCH_SPEC`); everywhere else the
    #: caller supplies the chips and it stays unset.
    spec: Optional[FlashSpec] = _knob(None, durable=True)
    #: Buffer-pool frames.  ``None`` drives the method directly (the
    #: paper's "exclude the buffering effect" set-up); ``Database.open``
    #: uses 64 when it is not given.
    buffer_capacity: Optional[int] = None
    #: Registered eviction policy: ``lru`` (the paper-faithful default)
    #: or the scan-resistant ``2q`` (``docs/bufferpool.md``).
    buffer_policy: str = "lru"
    #: Turns on the demand-paged, journaled mapping tier on every shard
    #: and bounds its RAM to this many table entries (0 = resident);
    #: restarts then replay the journal tail instead of scanning
    #: (``docs/recovery.md``).  The size is retunable; the tier's
    #: *presence* is durable, through ``mapping_region``.
    mapping_cache: Optional[int] = _knob(None, only=("PDL",))
    #: Journal records that arm the next mapping snapshot (default
    #: :func:`~repro.core.mapping.default_snapshot_interval`).
    snapshot_interval: Optional[int] = _knob(None, only=("PDL",))
    #: ``(region_blocks, journal_blocks)`` of the tier's flash region —
    #: manifest key ``mapping``.  Unset sizes it for the spec
    #: (:meth:`MappingConfig.auto`), which is what creation records.
    mapping_region: Optional[Tuple[int, int]] = _knob(None, durable=True, only=("PDL",))

    # ------------------------------------------------------------------
    # The one validator
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigurationError(
                f"unknown method {self.method!r}; expected one of {', '.join(METHODS)}"
            )
        if self.method == "PDL" and self.max_differential_size is None:
            object.__setattr__(self, "max_differential_size", 256)
        for knob in fields(self):
            only = knob.metadata.get("only", METHODS)
            if self.method not in only and getattr(self, knob.name) != knob.default:
                raise ConfigurationError(
                    f"{knob.name} does not apply to {self.method} (only to {'/'.join(only)})"
                )
        for name, low in _MINIMUM.items():
            value = getattr(self, name)
            if value is not None and (type(value) is not int or value < low):
                raise ConfigurationError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.method == "IPL" and self.log_region_bytes is None:
            raise ConfigurationError("IPL needs log_region_bytes (the '(18KB)' of its label)")
        if not isinstance(self.gc, GcConfig):
            raise ConfigurationError(f"gc must be a GcConfig, got {self.gc!r}")
        make_victim_policy(self.gc.policy)  # raises on an unknown name
        if self.spec is not None and not isinstance(self.spec, FlashSpec):
            raise ConfigurationError(f"spec must be a FlashSpec, got {self.spec!r}")
        make_eviction_policy(self.buffer_policy, 1)  # likewise
        tier_only = (self.snapshot_interval, self.mapping_region)
        if self.mapping_cache is None and tier_only != (None, None):
            raise ConfigurationError(
                "snapshot_interval and mapping_region require the mapping tier "
                "(pass mapping_cache as well)"
            )
        if self.mapping_region is not None:
            MappingConfig(*self.mapping_region)  # validates the geometry

    @classmethod
    def of(cls, **fields_: Any) -> "EngineConfig":
        """The constructor for a caller's ``**fields``: an unknown name is a
        :class:`ConfigurationError` listing the real ones, not a ``TypeError``.
        A bool ``parallel`` (the old execution-mode switch; every array is
        now thread-safe) is accepted and ignored, so old scripts keep working."""
        parallel = fields_.pop("parallel", False)
        if not isinstance(parallel, bool):
            raise ConfigurationError(
                f"parallel={parallel!r} is not an execution mode; expected False or True"
            )
        known = [knob.name for knob in fields(cls)]
        unknown = sorted(set(fields_) - set(known))
        if unknown:
            raise ConfigurationError(
                f"unknown engine option {unknown[0]!r}; the options are {', '.join(known)}"
            )
        return cls(**fields_)

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, label: str, **fields_: Any) -> "EngineConfig":
        """The config a paper-style label names, plus keyword fields.

        ``"PDL (256B) x4 par gc=cb"``: a method (``OPU``, ``IPU``,
        ``PDL(<size>)``, ``IPL(<size>)``; sizes take ``B``/``KB``), then
        optionally ``xN`` (N chips behind the sharded façade), ``par``
        (accepted after ``xN`` and ignored) and ``gc=<policy>`` in any order.
        A field set by the label may not be passed as a keyword too.
        """
        unknown = ConfigurationError(
            f"unknown method label {label!r}; expected OPU, IPU, PDL(<size>) or "
            "IPL(<size>), optionally followed by 'xN', 'par' and/or 'gc=<policy>'"
        )
        base = _METHOD_RE.match(label)
        if base is None:
            raise unknown
        method = (base["plain"] or base["sized"]).upper()
        found: Dict[str, Any] = {"method": method}
        if base["size"] is not None:
            scale = 1024 if (base["unit"] or "").upper() == "KB" else 1
            size_field = "max_differential_size" if method == "PDL" else "log_region_bytes"
            found[size_field] = int(base["size"]) * scale
        pos = base.end()
        while label[pos:].strip():
            token = _TOKEN_RE.match(label, pos)
            if token is None or token.lastgroup is None:
                raise unknown
            if token.lastgroup in found:
                raise ConfigurationError(
                    f"label {label!r} has more than one {token.lastgroup} token"
                )
            found[token.lastgroup] = token[token.lastgroup]
            pos = token.end()
        if "parallel" in found and "n_shards" not in found:
            raise ConfigurationError(
                f"label {label!r} has 'par' but no 'xN'; 'par' only follows an array's "
                "shard count (x1 gives the one-shard array)"
            )
        if "n_shards" in found:
            found["n_shards"] = int(found["n_shards"])
        found.pop("parallel", None)
        if "gc" in found:
            found["gc"] = GcConfig(policy=found["gc"].lower())
        twice = sorted(found.keys() & fields_.keys())
        if twice:
            raise ConfigurationError(
                f"label {label!r} already sets {twice[0]}; it was also passed as a keyword"
            )
        return cls.of(**found, **fields_)

    @property
    def n_chips(self) -> int:
        """How many chips (for a database: images) the engine spans."""
        return self.n_shards or 1

    @property
    def label(self) -> str:
        """The canonical label — what the built driver reports as its
        ``name``.  ``parse(label)`` gives the config back when every
        field a label cannot express is at its default."""
        size = self.max_differential_size if self.method == "PDL" else self.log_region_bytes
        text = self.method if size is None else f"{self.method} ({format_size(size)})"
        if self.gc.policy != "greedy":
            text += f" gc={self.gc.policy}"
        if self.n_shards is not None:
            text += f" x{self.n_shards}"
        return text

    # ------------------------------------------------------------------
    # JSON and the manifest
    # ------------------------------------------------------------------
    def _as_dict(self) -> Dict[str, Any]:
        out = {knob.name: getattr(self, knob.name) for knob in fields(self)}
        out["gc"] = {key: getattr(self.gc, key) for key in _GC_KEYS}
        out["spec"] = None if self.spec is None else asdict(self.spec)
        region = out.pop("mapping_region")
        out["mapping"] = None if region is None else dict(zip(_REGION_KEYS, region))
        return out

    def to_json(self) -> str:
        """Every field, as one line of JSON (what reports stamp)."""
        return json.dumps(self._as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EngineConfig":
        return cls.of(**_decoded(json.loads(text)))

    def manifest(self) -> Dict[str, Any]:
        """The durable half, as ``manifest.json`` records it."""
        full = self._as_dict()
        kept = {key: full[key] for key in ("max_differential_size", "spec", "mapping")}
        kept.update({"n_shards": self.n_chips, "router": {"kind": "hash"}})
        return {key: value for key, value in kept.items() if value is not None}

    @classmethod
    def for_database(
        cls, stored: Optional[Mapping[str, Any]], where: str, **fields_: Any
    ) -> "EngineConfig":
        """The config ``Database.open(where, **fields_)`` runs.

        ``stored`` is the directory's manifest, ``None`` when the
        database is being created.  A durable field the caller passed
        must agree with it; one they did not pass is filled from it — on
        creation from the defaults instead (:data:`BENCH_SPEC`, one
        image, a mapping region sized for the spec).  A database that
        has the mapping tier always reopens with it (``mapping_cache``
        unset then means resident); one created without it never can.
        """
        asked = cls.of(**{"buffer_capacity": 64, **fields_})
        if asked.method != "PDL":
            raise ConfigurationError(f"Database.open persists PDL only, not {asked.method}")
        if stored is None:
            spec = asked.spec or BENCH_SPEC
            tier = asked._mapping(spec)
            durable: Dict[str, Any] = {
                "n_shards": asked.n_chips,
                "max_differential_size": asked.max_differential_size,
                "spec": spec,
                "mapping_region": tier and (tier.region_blocks, tier.journal_blocks),
            }
        else:
            durable = _durable_fields(stored, where)
            for name in DURABLE:
                value = durable[name]
                if fields_.get(name) not in (None, value):
                    raise ConfigurationError(
                        f"database at {where!r} has {name}={value!r}, "
                        f"requested {fields_[name]!r}"
                    )
            if durable["mapping_region"] is None and asked.mapping_cache is not None:
                raise ConfigurationError(
                    f"database at {where!r} was created without the mapping "
                    "tier; its region cannot be carved out after the fact"
                )
        if durable["mapping_region"] is not None and asked.mapping_cache is None:
            durable["mapping_cache"] = 0
        if durable["n_shards"] == 1:
            durable["n_shards"] = None  # one image: bare
        return replace(asked, **durable)

    # ------------------------------------------------------------------
    # The one assembler
    # ------------------------------------------------------------------
    def build(self, chips: Chips) -> PageUpdateMethod:
        """A fresh engine over empty ``chips`` (one chip, or ``n_shards``
        of them in shard order, hash-partitioned)."""
        return self._stack([self._driver(chip) for chip in self._chips(chips)])

    def recover(self, chips: Chips) -> Tuple[PageUpdateMethod, List[RecoveryReport]]:
        """The engine rebuilt from what ``chips`` hold after a crash or a
        shutdown, plus one report per chip in shard order.

        Each chip is recovered on its own (:func:`recover_driver`: the
        journal fast path when the mapping tier is on, else the
        Figure-11 scan); the array routes by the same hash as before.
        """
        if self.method != "PDL":
            raise ConfigurationError(f"only PDL engines recover from flash, not {self.method}")
        recovered = [
            recover_driver(chip, **self._pdl_options(chip.spec)) for chip in self._chips(chips)
        ]
        shards, reports = zip(*recovered)
        return self._stack(list(shards)), list(reports)

    def _chips(self, chips: Chips) -> List[FlashChip]:
        fleet = [chips] if isinstance(chips, FlashChip) else list(chips)
        if len(fleet) != self.n_chips:
            hint = f"; did you mean '{self.label} x{len(fleet)}'?" if self.n_shards is None else ""
            raise ConfigurationError(
                f"{self.label!r} takes {self.n_chips} chip(s), got {len(fleet)}{hint}"
            )
        return fleet

    def _mapping(self, spec: FlashSpec) -> Optional[MappingConfig]:
        if self.mapping_cache is None:
            return None
        if self.mapping_region is None:
            return MappingConfig.auto(spec, self.mapping_cache, self.snapshot_interval)
        interval = self.snapshot_interval or default_snapshot_interval(spec)
        return MappingConfig(*self.mapping_region, self.mapping_cache, interval)

    def _pdl_options(self, spec: FlashSpec) -> Dict[str, Any]:
        return {
            "max_differential_size": self.max_differential_size,
            "diff_unit": self.diff_unit,
            "gc_config": self.gc,
            "mapping": self._mapping(spec),
        }

    def _driver(self, chip: FlashChip) -> PageUpdateMethod:
        if self.method == "PDL":
            return PdlDriver(chip, **self._pdl_options(chip.spec))
        if self.method == "IPL":
            assert self.log_region_bytes is not None
            return IplDriver(chip, self.log_region_bytes)
        if self.method == "OPU":
            return OpuDriver(chip, gc_config=self.gc)
        return IpuDriver(chip)

    def _stack(self, shards: List[PageUpdateMethod]) -> PageUpdateMethod:
        if self.n_shards is None:
            return shards[0]
        return ShardedDriver(shards)


#: The durable fields — the manifest's keys (``mapping_region`` as ``mapping``).
DURABLE = tuple(knob.name for knob in fields(EngineConfig) if knob.metadata.get("durable"))


def _decoded(data: Mapping[str, Any]) -> Dict[str, Any]:
    """JSON-shaped ``gc`` / ``spec`` / ``mapping`` entries as field values."""
    out = dict(data)
    if "gc" in out:
        out["gc"] = GcConfig(**out["gc"])
    if out.get("spec") is not None:
        out["spec"] = FlashSpec(**out["spec"])
    region = out.pop("mapping", None)
    out["mapping_region"] = region and tuple(region[key] for key in _REGION_KEYS)
    return out


def _durable_fields(stored: Mapping[str, Any], where: str) -> Dict[str, Any]:
    """The durable fields a manifest records; a missing or malformed
    entry is a :class:`BackendError` naming the database and the key."""
    try:
        decoded = _decoded(stored)
        durable = {name: decoded[name] for name in DURABLE}
        kind = stored.get("router", {}).get("kind")
    except KeyError as exc:
        raise BackendError(f"manifest of {where!r} has no {exc.args[0]!r} entry") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise BackendError(f"manifest of {where!r} is malformed: {exc}") from exc
    if kind != "hash":
        # Routing is deployment config the reopen must honour; silently
        # defaulting would send pids to the wrong shards.
        raise ConfigurationError(
            f"database at {where!r} uses router kind {kind!r}; Database.open only "
            "supports 'hash', the one partition an array routes by"
        )
    return durable
