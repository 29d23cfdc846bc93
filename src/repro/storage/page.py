"""Buffered logical pages, with update-log recording where a driver wants it.

:class:`Page` is the in-memory image of one logical page held by the
buffer pool.  All mutations go through :meth:`Page.write` or
:meth:`Page.write_delta`; a *logged* page also records each one as a
:class:`ChangeRun` — the *update log* that the storage manager of a DBMS
maintains internally.  This is precisely the coupling seam of the paper's
Figure 10: the tightly-coupled log-based method (IPL) consumes these logs
at eviction time, while loosely-coupled methods (PDL, OPU, IPU) never
look at them — so the pool logs its frames only over a tightly-coupled
driver.  To keep logs minimal (and the comparison fair),
:meth:`write_delta` records only the genuinely changed byte runs; on an
unlogged page it is one compare and one assignment.

Concurrency: many client threads share one pool, so each page carries
a small re-entrant latch.  **A latch orders multi-step
mutations, never a single read**: writes, log clearing, the pool's
write-backs and ``detach`` take it, so version, dirty flag and change
log move together; :meth:`Page.read`, :attr:`Page.data` and decodes from
:attr:`Page.view` take nothing.  That rests on the global interpreter
lock — a read is one C-level copy or unpack, a store one C-level slice
assignment, and the GIL runs each whole — so a free-threaded
interpreter voids it (``tests/storage/test_page.py`` fails there by
name).  A pin is pool state: on an attached frame :meth:`pin` and
:meth:`unpin` are the pool's, under its lock.  The latch sits in the
order ``pool lock → page latch → driver lock / shard gate``
(``docs/bufferpool.md``): nothing holding it calls up into the pool,
and only the pool-lock holder ever holds several latches at once.

Pinning marks a page as in use so the pool will not evict it.  Prefer
the :meth:`pinned` context manager (or
:meth:`~repro.storage.bufferpool.manager.BufferManager.pinned`, which
also makes the lookup-and-pin atomic) over bare :meth:`pin`/
:meth:`unpin` pairs: an exception between the two leaks the pin and
silently shrinks the pool until it hits :class:`BufferError`.  An
*unpinned* handle is good only until the next call that can admit a page
(``Database.page`` / ``allocate_page``) and so evict this one: re-fetch
by pid afterwards.  Writing through or pinning the handle of an evicted
frame raises :class:`BufferError`.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from typing import Iterator, List, Optional

from ..core.differential import compute_runs
from ..ftl.base import ChangeRun


class BufferError(RuntimeError):
    """Raised on pool misuse (all frames pinned, use of an evicted frame)."""


class Page:
    """One logical page held in the buffer pool."""

    __slots__ = (
        "pid",
        "_data",
        "dirty",
        "logged",
        "change_log",
        "pin_count",
        "latch",
        "version",
        "_observer",
        "_evicted",
        "_view",
        "memo",
    )

    def __init__(self, pid: int, data: bytes, logged: bool = True):
        self.pid = pid
        self._data = bytearray(data)
        self.dirty = False
        #: Whether writes are recorded in :attr:`change_log`.
        self.logged = logged
        #: Update logs since the page was last clean (none if unlogged).
        self.change_log: List[ChangeRun] = []
        #: Guarded by the owning pool's lock while attached, else the latch.
        self.pin_count = 0
        #: Serializes writes, log clearing and the pool's write-backs
        #: (never a read).  Re-entrant: :meth:`write_delta` and the
        #: pool's write-back call other latched methods holding it.
        self.latch = threading.RLock()
        #: Bumped on every effective write: a cheap "has this frame
        #: changed since" stamp.  :attr:`memo` is checked against it.
        self.version = 0
        #: A weak reference to the owning pool (it counts this frame's
        #: pins), if any.  Weak, because the pool owns its frames: a
        #: dropped pool is freed at once, and its frames then behave as
        #: detached.
        self._observer: "Optional[weakref.ref]" = None
        #: The owning pool dropped this frame (never true of a page that
        #: was never attached, as unit tests build them).
        self._evicted = False
        self._view: Optional[memoryview] = None
        #: A decoder's last decode of this frame, stamped with the
        #: :attr:`version` it read *before* decoding, so a write that
        #: lands mid-decode leaves it stale, never wrong; reused only
        #: while the stamp matches.  The B+tree keeps its node decode
        #: here (``BTree._decode``).  It holds no reference to the page,
        #: so an evicted frame is still freed by refcount.  Every frame
        #: starts with none: a pool admits a page as a new ``Page``.
        self.memo: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._data)

    @property
    def data(self) -> bytes:
        """An immutable snapshot of the page contents."""
        return bytes(self._data)

    @property
    def view(self) -> memoryview:
        """The live image, read-only and uncopied: what decoders
        ``unpack_from``.  One per frame, made on first use.  It bounds
        reads past the page end but not a negative offset (``struct``
        counts that from the end), so a decoder whose offsets come from
        page content checks them itself."""
        view = self._view
        if view is None:
            view = self._view = memoryview(self._data).toreadonly()
        return view

    def read(self, offset: int, length: int) -> bytes:
        if offset < 0 or length < 0 or offset + length > len(self._data):
            raise ValueError(
                f"read [{offset}, {offset + length}) outside page of "
                f"{len(self._data)} bytes"
            )
        return bytes(self._data[offset : offset + length])

    # ------------------------------------------------------------------
    # Mutation (logged when the page is)
    # ------------------------------------------------------------------
    def write(self, offset: int, data: bytes) -> None:
        """Overwrite bytes at ``offset``."""
        with self.latch:
            if offset < 0 or offset + len(data) > len(self._data):
                raise ValueError(
                    f"write [{offset}, {offset + len(data)}) outside page of "
                    f"{len(self._data)} bytes"
                )
            if data:
                self._store(offset, data)
                if self.logged:
                    self.change_log.append(ChangeRun(offset, bytes(data)))

    def write_delta(self, offset: int, data: bytes) -> None:
        """Like :meth:`write`, but a no-op when nothing differs, and a
        logged page records only the byte runs that do.

        Node-level writers (the B+tree) re-serialize whole regions; this
        keeps the resulting update logs proportional to the real change.
        The latch is held across the comparison *and* the assignment, so
        the runs are consistent even under concurrent writers.
        """
        with self.latch:
            current = self.read(offset, len(data))
            if current != data:
                self._store(offset, data)
                if self.logged:
                    self.change_log.extend(
                        ChangeRun(offset + run.offset, run.data)
                        for run in compute_runs(current, bytes(data))
                    )

    def _store(self, offset: int, data: bytes) -> None:
        """Assign bounds-checked, non-empty ``data`` (latch held)."""
        observer = self._observer
        if self._evicted or (observer is not None and observer() is None):
            raise self._stale("write to")
        self._data[offset : offset + len(data)] = data
        self.version += 1
        self.dirty = True

    def clear_log(self) -> None:
        """Called by the buffer pool after a successful write-back."""
        with self.latch:
            self.change_log = []
            self.dirty = False

    # ------------------------------------------------------------------
    # Pool attachment
    # ------------------------------------------------------------------
    def attach(self, observer) -> None:
        """Bind the owning pool (weakly).  No latch: the pool lock that
        publishes the frame is still held."""
        self._observer = weakref.ref(observer)

    def detach(self) -> None:
        """The owning pool dropped this frame: later writes and pins fail."""
        with self.latch:
            self._observer = None
            self._evicted = True

    # ------------------------------------------------------------------
    # Pinning
    # ------------------------------------------------------------------
    def pin(self) -> None:
        observer = self._observer
        pool = None if observer is None else observer()
        if pool is None or not pool._pin(self):
            with self.latch:
                if self._evicted or (observer is not None and pool is None):
                    raise self._stale("pin")
                self.pin_count += 1

    def unpin(self) -> None:
        observer = self._observer
        pool = None if observer is None else observer()
        if pool is not None:
            return pool._unpin(self)
        with self.latch:
            if self.pin_count <= 0:
                raise RuntimeError(f"page {self.pid} unpinned more than pinned")
            self.pin_count -= 1

    def _stale(self, action: str) -> BufferError:
        return BufferError(
            f"{action} page {self.pid} through the handle of an evicted "
            "frame: re-fetch (or pin) after any call that can admit a page"
        )

    @contextmanager
    def pinned(self) -> Iterator["Page"]:
        """Pin for the duration of a ``with`` block (exception-safe).

        ``with page.pinned():`` can never leak a pin the way a bare
        :meth:`pin`/:meth:`unpin` pair around a raising operation does.
        """
        self.pin()
        try:
            yield self
        finally:
            self.unpin()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "dirty" if self.dirty else "clean"
        return f"<Page {self.pid} {state} pins={self.pin_count}>"
