"""Mini-DBMS storage substrate (docs/paper-map.md, "Substitutions").

A page-based storage engine standing in for the Odysseus ORDBMS storage
layer the paper used: a buffer-pool subsystem with pluggable eviction
policies (:mod:`.bufferpool`),
change-log recording (the tightly-coupled hook), slotted pages, heap
files, and a paged B+tree.
"""

from .btree import BTree, BTreeError
from .bufferpool import (
    BufferError,
    BufferManager,
    BufferStats,
    EvictionPolicy,
    eviction_policy_names,
    make_eviction_policy,
    register_eviction_policy,
)
from .db import Database
from .heap import RID, HeapFile
from .page import Page
from .slotted import SlottedPage, SlottedPageError

__all__ = [
    "BTree",
    "BTreeError",
    "BufferError",
    "BufferManager",
    "BufferStats",
    "Database",
    "EvictionPolicy",
    "HeapFile",
    "Page",
    "RID",
    "SlottedPage",
    "SlottedPageError",
    "eviction_policy_names",
    "make_eviction_policy",
    "register_eviction_policy",
]
