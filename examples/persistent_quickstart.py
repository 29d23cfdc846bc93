"""Persistent quickstart: a database that survives the process.

Creates a sharded PDL database on disk, writes and flushes a few pages,
closes it, then reopens the directory the way a *new* process would —
recovering every shard from its flash image alone via the paper's
Figure-11 spare-area scan — and verifies the data came back bit-exact.

Run from the repository root::

    PYTHONPATH=src python examples/persistent_quickstart.py
"""

import random
import shutil
import tempfile

from repro import FlashSpec
from repro.storage.db import Database

SPEC = FlashSpec(n_blocks=32, pages_per_block=16, page_data_size=512, page_spare_size=16)

path = tempfile.mkdtemp(prefix="pdl-db-")
print(f"database directory: {path}")

# ----------------------------------------------------------------------
# Session 1: create, write, flush, close.
# ----------------------------------------------------------------------
rng = random.Random(2010)
images = {}
with Database.open(
    path, spec=SPEC, n_shards=2, max_differential_size=128, buffer_capacity=8
) as db:
    for _ in range(12):
        page = db.allocate_page()
        data = rng.randbytes(db.page_size)
        page.write(0, data)
        images[page.pid] = data
    db.flush()
    # Update a few pages so differentials (not just bases) are on flash.
    for pid in (1, 5, 9):
        page = db.page(pid)
        patch = rng.randbytes(24)
        page.write(100, patch)
        img = bytearray(images[pid])
        img[100:124] = patch
        images[pid] = bytes(img)
    db.flush()
    print(f"session 1: wrote and flushed {len(images)} pages on 2 shards")

# ----------------------------------------------------------------------
# Session 2: reopen from the images alone (Figure-11 recovery per shard).
# The durable fields (spec, shard count, Max_Differential_Size) come
# from the manifest; retunable ones (pool size, GC, ...) are
# this session's to choose — see repro.config.EngineConfig.
# ----------------------------------------------------------------------
with Database.open(path, buffer_capacity=32) as db:
    assert db.allocated_pages == len(images)
    for pid, expected in images.items():
        assert db.page(pid).data == expected, f"page {pid} corrupted"
    print(
        f"session 2: recovered {db.allocated_pages} pages bit-exact "
        f"({db.driver.name})"
    )

shutil.rmtree(path)
print("ok")
