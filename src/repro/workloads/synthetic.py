"""The paper's synthetic workload (Section 5.1).

An *update operation* consists of (1) reading the addressed page,
(2) changing ``%ChangedByOneU_Op`` percent of its data at a randomly
selected position, and (3) writing the updated page — executed directly
against the driver "to exclude the buffering effect in the DBMS".

``N_updates_till_write`` is the number of update operations applied to a
page in memory between recreating it from flash and reflecting it back:
one measured cycle performs one read step, ``N`` in-memory changes (each
a fresh random region of the page), and one write step.  Figures 12–17
report time per such cycle; OPU's flatness across N in Figure 13 is the
tell-tale that this is the paper's normalization.

The workload keeps a shadow copy of every page and verifies each read
against it, so every benchmark run is simultaneously an end-to-end
correctness check of the driver under test (disable with
``verify=False`` for speed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..ftl.base import ChangeRun, PageUpdateMethod


class VerificationError(AssertionError):
    """A driver returned page contents different from the shadow copy."""


@dataclass
class SyntheticConfig:
    """Parameters of Table 3's experiments."""

    database_pages: int
    pct_changed: float = 2.0  # %ChangedByOneU_Op
    n_updates_till_write: int = 1  # N_updates_till_write
    seed: int = 20100121  # the paper's arXiv date, for reproducibility
    verify: bool = True

    def __post_init__(self) -> None:
        if self.database_pages <= 0:
            raise ValueError("database_pages must be positive")
        if not 0.0 < self.pct_changed <= 100.0:
            raise ValueError("pct_changed must be in (0, 100]")
        if self.n_updates_till_write < 1:
            raise ValueError("n_updates_till_write must be at least 1")


class SyntheticWorkload:
    """Drives one page-update method with the paper's update operations."""

    def __init__(self, driver: PageUpdateMethod, config: SyntheticConfig):
        self.driver = driver
        self.config = config
        self.rng = random.Random(config.seed)
        self._shadow: List[bytes] = []
        self.update_cycles = 0
        self.read_ops = 0
        page = driver.page_size
        self.change_size = max(1, round(page * config.pct_changed / 100.0))

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self) -> None:
        """Populate the database with random page images.

        Loading goes through the driver's batched :meth:`load_pages`
        path — the bulk-load hot path the file backend amortizes into a
        few large writes per allocation block.
        """
        page_size = self.driver.page_size
        pages = []
        for pid in range(self.config.database_pages):
            data = self.rng.randbytes(page_size)
            pages.append((pid, data))
            self._shadow.append(data)
        self.driver.load_pages(pages)
        self.driver.end_of_load()

    @property
    def shadow(self) -> List[bytes]:
        return self._shadow

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def update_cycle(
        self, pid: Optional[int] = None, n_updates: Optional[int] = None
    ) -> None:
        """One read-modify-write cycle with N in-memory updates.

        ``n_updates`` overrides the configured ``N_updates_till_write``
        (used by the steady-state aging pass, which collapses a page's
        accumulated update history into one reflection).
        """
        if pid is None:
            pid = self.rng.randrange(self.config.database_pages)
        if n_updates is None:
            n_updates = self.config.n_updates_till_write
        data = self.driver.read_page(pid)
        self._verify(pid, data)
        image = bytearray(data)
        logs: List[ChangeRun] = []
        for _ in range(n_updates):
            logs.append(self._mutate(image))
        new_data = bytes(image)
        self._shadow[pid] = new_data
        self.driver.write_page(pid, new_data, update_logs=logs)
        self.update_cycles += 1

    def read_only_op(self, pid: Optional[int] = None) -> bytes:
        """A read-only operation (Experiment 4's mixes)."""
        if pid is None:
            pid = self.rng.randrange(self.config.database_pages)
        data = self.driver.read_page(pid)
        self._verify(pid, data)
        self.read_ops += 1
        return data

    def _mutate(self, image: bytearray) -> ChangeRun:
        """Change ``%ChangedByOneU_Op`` of the page at a random offset."""
        rng = self.rng
        page_size = len(image)
        size = min(self.change_size, page_size)
        offset = rng.randrange(page_size - size + 1)
        new_bytes = rng.randbytes(size)
        image[offset : offset + size] = new_bytes
        return ChangeRun(offset, new_bytes)

    # ------------------------------------------------------------------
    # Batch helpers
    # ------------------------------------------------------------------
    def run_updates(self, n_cycles: int) -> None:
        for _ in range(n_cycles):
            self.update_cycle()

    def run_mix(self, n_ops: int, pct_update: float) -> None:
        """Execute a read-only/update mix (``%UpdateOps`` of Table 3)."""
        if not 0.0 <= pct_update <= 100.0:
            raise ValueError("pct_update must be within [0, 100]")
        for _ in range(n_ops):
            if self.rng.uniform(0.0, 100.0) < pct_update:
                self.update_cycle()
            else:
                self.read_only_op()

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def _verify(self, pid: int, data: bytes) -> None:
        if self.config.verify and data != self._shadow[pid]:
            raise VerificationError(
                f"{self.driver.name} returned wrong contents for page {pid}"
            )

    def verify_all(self) -> None:
        """Full database consistency check against the shadow copy."""
        for pid in range(self.config.database_pages):
            data = self.driver.read_page(pid)
            if data != self._shadow[pid]:
                raise VerificationError(
                    f"{self.driver.name} corrupted page {pid}"
                )
