"""The page-differential: computation, serialization, and merging.

The paper defines the *differential* of a logical page as the difference
between the original (base) page in flash and the up-to-date page in
memory (Section 4.1).  Unlike a log-based method's update-log history, a
differential stores each changed region once — the paper's
``aaaaaa → bbbbba → bcccba`` example yields the single region ``bcccb``
rather than the two logs ``bbbbb`` and ``ccc``.

Wire format (Section 4.2 gives the logical structure
``<pid, timestamp, [offset, length, changed data]+>``; the concrete byte
layout is ours, little-endian)::

    entry  := u32 pid | u64 timestamp | u16 n_runs | u16 data_len
              | n_runs × (u16 offset, u16 length) | run data…
    page   := u16 magic 0xD1FF | u16 count | count × entry

``data_len`` is redundant (the sum of run lengths) and validates decoding.
The differential's *size* — what Max_Differential_Size compares against —
is its full encoded length including all metadata, which is why a heavily
updated page can exceed one page and trigger the paper's Case 3.

Diffing is numpy-accelerated; changed regions separated by fewer
unchanged bytes than a run header costs are coalesced (configurable
``coalesce_gap``), trading a few unchanged bytes for less metadata.

The encoded entry is the one representation of a differential:
:meth:`Differential.from_pages` goes from two page images to entry bytes
in one pass, :meth:`Differential.apply` patches a page straight from them,
and everything between moves those bytes (docs/architecture.md).  Pages
are read through one entry walk (:func:`_walk_entries`), one per-entry
validator (:func:`_entry_runs`) and one run copy (:func:`_copy_runs`):
the decoders validate every entry the walk passes, and
:func:`merge_from_page` — the read path, which patches the base page
straight from the differential page's bytes — validates and copies only
the entry stamped with the mapping row's ``(pid, timestamp)``.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..ftl.base import ChangeRun

_ENTRY_HEADER = struct.Struct("<IQHH")
_RUN_HEADER = struct.Struct("<HH")
_PAGE_HEADER = struct.Struct("<HH")

ENTRY_HEADER_SIZE = _ENTRY_HEADER.size  # 16 bytes
RUN_HEADER_SIZE = _RUN_HEADER.size  # 4 bytes
PAGE_HEADER_SIZE = _PAGE_HEADER.size  # 4 bytes

#: Magic tag of a differential page's data area.
DIFF_PAGE_MAGIC = 0xD1FF

#: Default coalescing distance: merging two runs separated by a gap of up
#: to one run header's worth of unchanged bytes never grows the encoding.
DEFAULT_COALESCE_GAP = RUN_HEADER_SIZE

#: Default comparison granularity for PDL differentials.  The paper's
#: differential "contains not only the changed data but also the meta
#: data such as offsets and lengths", and footnote 16 observes the
#: differential growing from 0 to one page and resetting through Case 3,
#: averaging about half a page.  That sawtooth requires the encoded size
#: to exceed one page *before* literally every byte has changed — i.e. a
#: unit-granular encoder that emits one entry per changed unit.  16 bytes
#: reproduces the paper's steady state; see docs/paper-map.md, "Substitutions".
DEFAULT_DIFF_UNIT = 16


class DifferentialError(ValueError):
    """Raised when encoded differential data cannot be decoded."""


_RUN_HEADER_STRUCTS: Dict[int, struct.Struct] = {}


def _run_header_struct(n_runs: int) -> struct.Struct:
    """A cached ``Struct`` packing ``n_runs`` (offset, length) pairs."""
    cached = _RUN_HEADER_STRUCTS.get(n_runs)
    if cached is None:
        cached = _RUN_HEADER_STRUCTS[n_runs] = struct.Struct(f"<{2 * n_runs}H")
    return cached


def compute_runs(
    base: bytes, new: bytes, coalesce_gap: int = DEFAULT_COALESCE_GAP
) -> Tuple[ChangeRun, ...]:
    """Byte-wise difference of two equal-length pages as change runs.

    Returns maximal runs of changed bytes; runs whose separating gap of
    unchanged bytes is at most ``coalesce_gap`` are merged (the merged run
    then carries those unchanged bytes, which is harmless on apply).
    """
    if len(base) != len(new):
        raise ValueError(
            f"page images differ in size: {len(base)} vs {len(new)} bytes"
        )
    if base == new:
        return ()
    a = np.frombuffer(base, dtype=np.uint8)
    b = np.frombuffer(new, dtype=np.uint8)
    changed = np.flatnonzero(a != b)
    # Consecutive changed offsets whose distance exceeds gap+1 start a new run.
    splits = np.flatnonzero(np.diff(changed) > coalesce_gap + 1)
    starts = np.concatenate(([0], splits + 1))
    ends = np.concatenate((splits, [len(changed) - 1]))
    return tuple(
        ChangeRun(int(changed[s]), new[int(changed[s]) : int(changed[e]) + 1])
        for s, e in zip(starts, ends)
    )


_WORD = np.dtype("<u8")
_BYTE = np.dtype(np.uint8)
#: Integer types as wide as one unit's comparison verdicts.
_VERDICTS_AS_INT = {k: np.dtype(f"<u{k}") for k in (1, 2, 4, 8)}


#: Per ``(unit, n_full)``: every full unit's packed run header
#: ``(offset, unit)`` as one opaque numpy element, and the numpy type one
#: unit of page bytes is — what :meth:`Differential.from_pages` gathers a
#: page's changed units from.
_UNIT_LAYOUTS: Dict[Tuple[int, int], Tuple[np.ndarray, np.dtype]] = {}


def _unit_layout(unit: int, n_full: int) -> Tuple[np.ndarray, np.dtype]:
    packed = b"".join(_RUN_HEADER.pack(offset, unit) for offset in range(0, n_full * unit, unit))
    layout = (np.frombuffer(packed, f"V{RUN_HEADER_SIZE}"), np.dtype(f"V{unit}"))
    _UNIT_LAYOUTS[unit, n_full] = layout
    return layout


def compute_unit_runs(base: bytes, new: bytes, unit: int = DEFAULT_DIFF_UNIT) -> Tuple[ChangeRun, ...]:
    """Unit-granular difference: one run per changed ``unit``-byte chunk.

    Pages are compared in fixed-size units; every unit containing at
    least one changed byte is emitted as its own run carrying the unit's
    full new contents.  Adjacent changed units are deliberately *not*
    coalesced — per-unit entries keep the metadata overhead proportional
    to coverage, which is what makes a heavily-updated page's
    differential exceed one page and trigger PDL_Writing's Case 3 (the
    sawtooth of the paper's footnote 16).
    """
    return Differential.from_pages(0, 0, base, new, unit=unit).runs


def _pack_entry(
    pid: int, timestamp: int, offsets: Sequence[int], chunks: Sequence[bytes]
) -> bytes:
    """One wire entry from run offsets and their data, in three C calls."""
    n_runs = len(offsets)
    lengths = list(map(len, chunks))
    flat = [0] * (2 * n_runs)
    flat[::2] = offsets
    flat[1::2] = lengths
    header = _ENTRY_HEADER.pack(pid, timestamp, n_runs, sum(lengths))
    return b"".join([header, _run_header_struct(n_runs).pack(*flat), *chunks])


class Differential:
    """The differential of one logical page (Section 4.2).

    ``timestamp`` is the creation time stamp recovery uses to identify the
    most recent differential among surviving copies.  ``wire`` is the
    encoded entry and ``size`` its length — the quantity compared against
    Max_Differential_Size in PDL_Writing's three cases; ``runs`` and
    ``data_len`` are views decoded from it on demand.
    """

    __slots__ = ("pid", "timestamp", "wire", "size")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def __init__(self, pid: int, timestamp: int, runs: Iterable[ChangeRun]) -> None:
        runs = tuple(runs)
        offsets, chunks = zip(*runs) if runs else ((), ())  # ChangeRun is (offset, data)
        self._set(pid, timestamp, _pack_entry(pid, timestamp, offsets, chunks))

    def _set(self, pid: int, timestamp: int, wire: bytes) -> "Differential":
        self.pid = pid
        self.timestamp = timestamp
        self.wire = wire
        self.size = len(wire)
        return self

    @classmethod
    def from_pages(
        cls,
        pid: int,
        timestamp: int,
        base: bytes,
        new: bytes,
        coalesce_gap: int = DEFAULT_COALESCE_GAP,
        unit: Optional[int] = DEFAULT_DIFF_UNIT,
    ) -> "Differential":
        """Create the differential between a base page and its new image.

        With ``unit`` set (the default), the unit-granular encoder is used;
        ``unit=None`` selects byte-wise maximal runs with gap coalescing
        (the ablation configuration).

        The unit path is one pass with no Python loop: numpy finds the
        changed units, one fancy index gathers their run headers and
        another their data, and one ``b"".join`` makes the entry.
        """
        if unit is None:
            return cls(pid, timestamp, compute_runs(base, new, coalesce_gap))
        size = len(new)
        if len(base) != size:
            raise ValueError(f"page images differ in size: {len(base)} vs {size} bytes")
        if unit <= 0:
            raise ValueError("unit must be positive")
        if base == new:
            return cls.__new__(cls)._set(pid, timestamp, _ENTRY_HEADER.pack(pid, timestamp, 0, 0))
        n_full = size // unit
        # Compare 8 bytes per element where the unit allows: same answer,
        # an eighth of the elements numpy has to touch on every page diff.
        dtype, per_unit = (_WORD, unit // 8) if unit % 8 == 0 else (_BYTE, unit)
        count = n_full * per_unit
        differs = np.frombuffer(base, dtype, count) != np.frombuffer(new, dtype, count)
        as_int = _VERDICTS_AS_INT.get(per_unit)
        if as_int is not None:
            # One unit's verdicts read as one integer: non-zero iff changed.
            differs = differs.view(as_int)
        else:
            differs = differs.reshape(n_full, per_unit).any(axis=1)
        changed = differs.nonzero()[0]
        headers, unit_type = _UNIT_LAYOUTS.get((unit, n_full)) or _unit_layout(unit, n_full)
        run_headers = headers[changed].tobytes()
        data = np.frombuffer(new, unit_type, n_full)[changed].tobytes()
        n_runs = len(changed)
        data_len = n_runs * unit
        tail_start = n_full * unit
        if tail_start < size and base[tail_start:] != new[tail_start:]:
            # The short tail unit: its own run, as long as the tail is.
            tail = new[tail_start:]
            run_headers += _RUN_HEADER.pack(tail_start, len(tail))
            data += tail
            n_runs += 1
            data_len += len(tail)
        wire = b"".join((_ENTRY_HEADER.pack(pid, timestamp, n_runs, data_len), run_headers, data))
        return cls.__new__(cls)._set(pid, timestamp, wire)

    # ------------------------------------------------------------------
    # Views of the wire form
    # ------------------------------------------------------------------
    def _run_headers(self) -> Tuple[Tuple[int, ...], int]:
        """Flat ``(offset, length, …)`` run headers and where the run data starts."""
        n_runs = _ENTRY_HEADER.unpack_from(self.wire)[2]
        data_at = ENTRY_HEADER_SIZE + RUN_HEADER_SIZE * n_runs
        return _run_header_struct(n_runs).unpack_from(self.wire, ENTRY_HEADER_SIZE), data_at

    @property
    def runs(self) -> Tuple[ChangeRun, ...]:
        flat, pos = self._run_headers()
        runs = []
        for offset, length in zip(flat[::2], flat[1::2]):
            runs.append(ChangeRun(offset, self.wire[pos : pos + length]))
            pos += length
        return tuple(runs)

    @property
    def data_len(self) -> int:
        return _ENTRY_HEADER.unpack_from(self.wire)[3]

    @property
    def is_empty(self) -> bool:
        return self.size == ENTRY_HEADER_SIZE

    def __eq__(self, other: object) -> bool:
        # The entry carries pid and timestamp, so the bytes say it all.
        return isinstance(other, Differential) and self.wire == other.wire

    def __hash__(self) -> int:
        return hash(self.wire)

    def __repr__(self) -> str:
        return f"Differential(pid={self.pid}, timestamp={self.timestamp}, runs={self.runs})"

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply(self, base: bytes) -> bytes:
        """Merge this differential with its base page (PDL_Reading Step 3)."""
        flat, pos = self._run_headers()
        return _copy_runs(base, flat, self.wire, pos)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        return self.wire

    @classmethod
    def decode_from(cls, buf: bytes, pos: int) -> Tuple["Differential", int]:
        """Decode one entry starting at ``pos``; returns it and the new pos."""
        ((pid, timestamp, _at, end, _n, _len),) = _walk_entries(buf, pos, 1)
        return cls.__new__(cls)._set(pid, timestamp, bytes(buf[pos:end])), end


# ----------------------------------------------------------------------
# Differential page codec
# ----------------------------------------------------------------------

def encode_differential_page(
    diffs: Sequence[Differential], page_data_size: int
) -> bytes:
    """Pack differentials into one differential-page data area."""
    parts = [_PAGE_HEADER.pack(DIFF_PAGE_MAGIC, len(diffs))]
    parts += [diff.encode() for diff in diffs]
    total = sum(map(len, parts))
    if total > page_data_size:
        raise DifferentialError(
            f"{len(diffs)} differentials need {total} bytes; page holds "
            f"{page_data_size}"
        )
    return b"".join(parts)


def entry_starts(diffs: Sequence[Differential]) -> List[int]:
    """Where each of ``diffs`` starts on the page
    :func:`encode_differential_page` packs them into: what a writer
    records in the mapping row so the read goes straight to the entry."""
    starts = []
    at = PAGE_HEADER_SIZE
    for diff in diffs:
        starts.append(at)
        at += diff.size
    return starts


def _entry_count(data: bytes) -> int:
    """Validate a differential page's header; returns its entry count."""
    if len(data) < PAGE_HEADER_SIZE:
        raise DifferentialError("differential page smaller than its header")
    magic, count = _PAGE_HEADER.unpack_from(data, 0)
    if magic != DIFF_PAGE_MAGIC:
        raise DifferentialError(f"not a differential page (magic 0x{magic:04X})")
    return count


def _walk_entries(
    buf: bytes,
    pos: int,
    count: int,
    pid: Optional[int] = None,
    timestamp: Optional[int] = None,
) -> Iterator[Tuple[int, int, int, int, int, int]]:
    """The one walk over an entry chain: ``count`` entries from ``pos``,
    each yielded as ``(pid, timestamp, at, end, n_runs, data_len)`` (``at``
    its start, ``end`` the next one's).  Each header must fit in ``buf``;
    the walk advances by the lengths it declares.  Without ``pid`` every
    entry is validated (:func:`_entry_runs`) and yielded; with ``pid``,
    only the entries stamped ``(pid, timestamp)`` (any stamp when
    ``timestamp`` is ``None``), unvalidated, so a passed entry costs one
    header unpack.  Either way an entry a caller sees is checked before
    the walk steps past it: every caller fails alike on the same bytes.
    """
    size = len(buf)
    unpack = _ENTRY_HEADER.unpack_from
    for _ in range(count):
        if pos + ENTRY_HEADER_SIZE > size:
            raise DifferentialError("truncated differential entry header")
        entry_pid, entry_ts, n_runs, data_len = unpack(buf, pos)
        end = pos + ENTRY_HEADER_SIZE + RUN_HEADER_SIZE * n_runs + data_len
        if pid is None:
            _entry_runs(buf, pos, entry_pid, n_runs, data_len)
            yield entry_pid, entry_ts, pos, end, n_runs, data_len
        elif entry_pid == pid and (timestamp is None or entry_ts == timestamp):
            yield entry_pid, entry_ts, pos, end, n_runs, data_len
        if end > size:
            raise DifferentialError("truncated differential run data")
        pos = end


def _entry_runs(
    buf: bytes, at: int, pid: int, n_runs: int, data_len: int
) -> Tuple[Tuple[int, ...], int]:
    """Validate the entry at ``at`` whose header reads ``(pid, _, n_runs,
    data_len)``: its run headers and its run data must fit in ``buf``,
    and the run lengths must sum to ``data_len``, checked in that order.
    Returns its flat ``(offset, length, …)`` run headers, unpacked by one
    struct call, and where its run data starts."""
    runs_at = at + ENTRY_HEADER_SIZE
    data_at = runs_at + RUN_HEADER_SIZE * n_runs
    size = len(buf)
    if data_at > size:
        raise DifferentialError("truncated differential run header")
    flat = (_RUN_HEADER_STRUCTS.get(n_runs) or _run_header_struct(n_runs)).unpack_from(buf, runs_at)
    carried = sum(flat[1::2])
    if data_at + carried > size:
        raise DifferentialError("truncated differential run data")
    if carried != data_len:
        raise DifferentialError(
            f"differential for pid {pid} declares {data_len} data bytes "
            f"but carries {carried}"
        )
    return flat, data_at


def _copy_runs(base: bytes, flat: Sequence[int], src: bytes, pos: int) -> bytes:
    """``base`` with the runs of the flat ``(offset, length, …)`` headers
    copied in from ``src``, whose run data starts at ``pos``; ``base``
    itself when there are none.  Every run is checked against the page
    bounds."""
    if not flat:
        return base
    image = bytearray(base)
    size = len(image)
    for offset, length in zip(flat[::2], flat[1::2]):
        end = offset + length
        if end > size:
            raise DifferentialError(f"run [{offset}, {end}) outside page of {size} bytes")
        image[offset:end] = src[pos : pos + length]
        pos += length
    return bytes(image)


def decode_differential_page(data: bytes) -> List[Differential]:
    """Parse a differential page's data area into its entries."""
    return [
        Differential.__new__(Differential)._set(pid, timestamp, bytes(data[at:end]))
        for pid, timestamp, at, end, _n, _len in _walk_entries(
            data, PAGE_HEADER_SIZE, _entry_count(data)
        )
    ]


def differential_page_stamps(data: bytes) -> List[Tuple[int, int]]:
    """Each entry's ``(pid, timestamp)`` of a differential page, in order.

    Equal — results and errors — to ``[(d.pid, d.timestamp) for d in
    decode_differential_page(data)]``, without a slice or a
    :class:`Differential` per entry: what the recovery scans need to
    rebuild the tables (Figure 11), and all they need.
    """
    return [
        (pid, timestamp)
        for pid, timestamp, _at, _end, _n, _len in _walk_entries(
            data, PAGE_HEADER_SIZE, _entry_count(data)
        )
    ]


def _record_type(layout: struct.Struct, *names: str) -> np.dtype:
    """The numpy record type ``layout`` packs: one field per format code,
    at the byte offset the struct puts it."""
    order = layout.format[0]
    return np.dtype([(name, order + code) for name, code in zip(names, layout.format[1:])])


_PAGE_HEADER_DTYPE = _record_type(_PAGE_HEADER, "magic", "count")
_ENTRY_FIELDS = _record_type(_ENTRY_HEADER, "pid", "timestamp", "n_runs", "data_len").fields
#: Each header field the batch walk reads, as ``(numpy type, byte offset)``.
_PID, _PID_AT = _ENTRY_FIELDS["pid"]
_TIMESTAMP, _TIMESTAMP_AT = _ENTRY_FIELDS["timestamp"]
_N_RUNS, _N_RUNS_AT = _ENTRY_FIELDS["n_runs"]
_DATA_LEN, _DATA_LEN_AT = _ENTRY_FIELDS["data_len"]
_LENGTH, _LENGTH_AT = _record_type(_RUN_HEADER, "offset", "length").fields["length"]


def _at_every_byte(data: bytes, dtype: np.dtype) -> np.ndarray:
    """A view of ``data`` whose element ``i`` is the ``dtype`` value
    stored at byte ``i``: a gather of values at any offsets is then one
    fancy index."""
    return np.ndarray((max(len(data) - dtype.itemsize + 1, 0),), dtype, data, strides=(1,))


class PageStamps:
    """What :func:`differential_page_stamps_batch` read: ``stamps[k]`` is
    page k's ``(pid, timestamp, at)`` list (``at``: where the entry
    starts in its page), or ``None`` when page k is rejected.  The
    stamps are kept as arrays and a page's list is made when it is
    asked for, so a chunk's stamps are never all Python objects at
    once."""

    __slots__ = ("_valid", "_bounds", "_pids", "_timestamps", "_starts")

    def __init__(
        self,
        valid: List[bool],
        bounds: List[int],
        pids: np.ndarray,
        timestamps: np.ndarray,
        starts: np.ndarray,
    ) -> None:
        self._valid = valid
        self._bounds = bounds
        self._pids = pids
        self._timestamps = timestamps
        self._starts = starts

    def __getitem__(self, page: int) -> Optional[List[Tuple[int, int, int]]]:
        if not self._valid[page]:
            return None
        lo, hi = self._bounds[page], self._bounds[page + 1]
        return list(
            zip(
                self._pids[lo:hi].tolist(),
                self._timestamps[lo:hi].tolist(),
                self._starts[lo:hi].tolist(),
            )
        )


def differential_page_stamps_batch(data: bytes, page_size: int) -> PageStamps:
    """:func:`differential_page_stamps` of every ``page_size`` bytes of
    ``data`` in one walk, with where in its page each entry starts: each
    page's ``(pid, timestamp, at)`` list, or ``None`` for a page on
    which that function raises :class:`DifferentialError`.

    The Figure-11 scan reads a chunk's differential pages this way.  The
    pages are walked side by side, one entry of each per step, with
    array operations.  An entry is taken at face value (the next one
    starts ``data_len`` bytes past its run headers) and rejected with
    its page when its header, run headers or run data would pass the
    page's end, or its run lengths do not sum to ``data_len`` (checked
    for all entries at once after the walk).  Up to a page's first bad
    entry that is exactly the scalar walk's position, and the scalar
    walk fails at that entry too; past it the walk reads only bytes
    inside the page, and the page is rejected whatever they hold.  Why
    a page is rejected is not said: :func:`differential_page_stamps`
    stays the validator that names the damage.  (Array methods and
    ufuncs only: numpy's Python-level helpers would cost calls per step.)
    """
    n = len(data) // page_size
    none = (np.zeros(0, _PID), np.zeros(0, _TIMESTAMP), np.zeros(0, np.int64))
    if page_size < PAGE_HEADER_SIZE:
        return PageStamps([False] * n, [0] * (n + 1), *none)
    headers = np.ndarray((n,), _PAGE_HEADER_DTYPE, data, strides=(page_size,))
    valid = headers["magic"] == DIFF_PAGE_MAGIC
    if page_size < PAGE_HEADER_SIZE + ENTRY_HEADER_SIZE:  # no entry fits a page
        valid &= headers["count"] == 0
        return PageStamps(valid.tolist(), [0] * (n + 1), *none)
    n_runs_of = _at_every_byte(data, _N_RUNS)
    data_len_of = _at_every_byte(data, _DATA_LEN)
    # The walk's state, one element per page (arrays keep their size, so
    # numpy's cache of small blocks sees few sizes): where the page's
    # next entry starts, where the page ends, how many entries are left.
    at = np.arange(n, dtype=np.int64) * page_size + PAGE_HEADER_SIZE
    end = at + (page_size - PAGE_HEADER_SIZE)
    left = headers["count"] * valid
    # A header read starts at most here, inside the data; a page whose
    # header would pass its end reads a stray one, and is cut anyway: its
    # next entry would start at least a header past ``at``.
    last = len(data) - ENTRY_HEADER_SIZE
    walking = left > 0
    # Per step, where each page's entry was and which pages took one; a
    # first step that takes nothing keeps the stacks two-dimensional.
    steps_at, steps_taken = [at], [walking & False]
    while np.logical_or.reduce(walking):
        probe = np.minimum(at, last)
        nxt = at + ENTRY_HEADER_SIZE
        nxt += RUN_HEADER_SIZE * n_runs_of[probe + _N_RUNS_AT].astype(np.int64)
        nxt += data_len_of[probe + _DATA_LEN_AT]
        cut = walking & (nxt > end)
        if np.logical_or.reduce(cut):
            valid[cut] = False
            walking &= ~cut
        steps_at.append(at)
        steps_taken.append(walking)
        left = left - walking
        at = nxt
        walking = walking & (left > 0)
    # Steps by pages, read page by page: each page's entries in order.
    taken = np.array(steps_taken).T
    at = np.array(steps_at).T[taken]
    bounds = np.zeros(n + 1, np.int64)
    np.add.reduce(taken, axis=1).cumsum(out=bounds[1:])
    # Every walked entry's run lengths come off its data_len one run
    # header at a time: what an entry still owes at the end is a
    # data_len its runs do not carry.
    n_runs = n_runs_of[at + _N_RUNS_AT]
    owing = data_len_of[at + _DATA_LEN_AT].astype(np.int64)
    length_of = _at_every_byte(data, _LENGTH)
    length_at = at + (ENTRY_HEADER_SIZE + _LENGTH_AT)
    for run in range(int(np.maximum.reduce(n_runs)) if len(n_runs) else 0):
        # An entry with no run left reads a stray length, weighted 0.
        owing -= length_of[np.minimum(length_at, len(length_of) - 1)] * (n_runs > run)
        length_at += RUN_HEADER_SIZE
    page_of = np.arange(n).repeat(bounds[1:] - bounds[:-1])
    valid[page_of[owing.nonzero()[0]]] = False
    return PageStamps(
        valid.tolist(),
        bounds.tolist(),
        _at_every_byte(data, _PID)[at + _PID_AT],
        _at_every_byte(data, _TIMESTAMP)[at + _TIMESTAMP_AT],
        at - page_of * page_size,
    )


def find_differential(data: bytes, pid: int) -> Optional[Differential]:
    """Locate ``pid``'s entry in a differential page (PDL_Reading Step 2).

    Entry headers carry ``n_runs`` and ``data_len``, so every
    non-matching entry is skipped in O(1) without looking at its runs —
    only the matching entry (if any) is validated and sliced out.
    Structural damage along the skip path (truncated headers, entries
    running off the page) still raises :class:`DifferentialError`
    exactly as a full decode would.

    No production code calls this any more: the read path uses
    :func:`merge_from_page`, which is this lookup and
    :meth:`Differential.apply` in one pass.  It stays as the two-step
    reference that function is property-tested against
    (``tests/properties/test_prop_differential.py``), and because the
    end-to-end tracer's layer table resolves it by name.
    """
    size = len(data)
    pos = PAGE_HEADER_SIZE
    for _ in range(_entry_count(data)):
        if pos + ENTRY_HEADER_SIZE > size:
            raise DifferentialError("truncated differential entry header")
        entry_pid, _ts, n_runs, data_len = _ENTRY_HEADER.unpack_from(data, pos)
        if entry_pid == pid:
            return Differential.decode_from(data, pos)[0]
        pos += ENTRY_HEADER_SIZE + RUN_HEADER_SIZE * n_runs + data_len
        if pos > size:
            raise DifferentialError("truncated differential run data")
    return None


def merge_from_page(
    data: bytes,
    pid: int,
    base: bytes,
    at: Optional[int] = None,
    timestamp: Optional[int] = None,
) -> Optional[bytes]:
    """PDL_Reading Steps 2–3 in one pass over a differential page:
    ``base`` with the entry stamped ``(pid, timestamp)`` — the mapping
    row's ``diff_ts`` — merged in, or ``None`` when the page holds no such
    entry; an entry of ``pid`` with another stamp (an older differential)
    is never merged.  With ``timestamp=None`` any entry of ``pid`` is, and
    the result equals — results and errors — ``find_differential(data,
    pid).apply(base)``, without the entry slice, the :class:`Differential`
    and the second unpack of the run headers.

    ``at`` is a hint, the row's ``diff_at``: when the entry header there
    reads exactly ``(pid, timestamp)`` it is merged without looking at
    the entries in front of it; any other hint, or none, takes
    :func:`_walk_entries` from the first entry, which applies the same
    test.  On a page as the writer laid it out (a read that verified its
    checksum) both find the same entry, so the hint changes neither the
    result nor the error.
    """
    pos = -1
    # A hint is taken only on a page whose header the walk would accept.
    if (
        at is not None
        and PAGE_HEADER_SIZE <= at <= len(data) - ENTRY_HEADER_SIZE
        and _PAGE_HEADER.unpack_from(data)[0] == DIFF_PAGE_MAGIC
    ):
        entry_pid, entry_ts, n_runs, data_len = _ENTRY_HEADER.unpack_from(data, at)
        if entry_pid == pid and entry_ts == timestamp:
            pos = at
    if pos < 0:
        match = next(_walk_entries(data, PAGE_HEADER_SIZE, _entry_count(data), pid, timestamp), None)
        if match is None:
            return None
        _pid, _ts, pos, _end, n_runs, data_len = match
    flat, data_at = _entry_runs(data, pos, pid, n_runs, data_len)
    return _copy_runs(base, flat, data, data_at)
