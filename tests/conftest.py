"""Shared fixtures and helpers for the test suite.

Tests run on tiny chip geometries (16 blocks × 8 pages × 256 bytes by
default) so whole-chip scans and GC cycles stay fast; nothing in the
code depends on absolute sizes.
"""

from __future__ import annotations

import gc
import random
import sys
from pathlib import Path

import pytest

# Allow running the tests without installing the package.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.flash.chip import FlashChip  # noqa: E402
from repro.flash.spec import TINY_SPEC, FlashSpec  # noqa: E402


@pytest.fixture
def tiny_spec() -> FlashSpec:
    """16 blocks × 8 pages × 256-byte data areas."""
    return TINY_SPEC


@pytest.fixture
def chip(tiny_spec: FlashSpec) -> FlashChip:
    return FlashChip(tiny_spec)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def random_page(rng: random.Random, size: int) -> bytes:
    """A random page image of exactly ``size`` bytes."""
    return rng.randbytes(size)


def mutate(rng: random.Random, data: bytes, n_bytes: int) -> bytes:
    """Return ``data`` with ``n_bytes`` random contiguous bytes changed."""
    size = min(n_bytes, len(data))
    offset = rng.randrange(len(data) - size + 1)
    image = bytearray(data)
    image[offset : offset + size] = rng.randbytes(size)
    return bytes(image)


def _count_profile_events(fn, counted) -> int:
    """Run ``fn()`` under ``sys.setprofile``; count the events for which
    ``counted(event, arg)`` is true.

    The cyclic garbage collector is held off while ``fn`` runs: a
    collection that happens to land inside it runs code that is not
    ``fn``'s — ``gc.callbacks`` (hypothesis installs one) and the
    finalizers of earlier tests' garbage — and whether one lands depends
    on everything the process allocated before, not on ``fn``."""
    n = 0

    def on_event(_frame, event, arg):
        nonlocal n
        if counted(event, arg):
            n += 1

    was_enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(on_event)
    try:
        fn()
    finally:
        sys.setprofile(previous)
        if was_enabled:
            gc.enable()
    return n


@pytest.fixture
def count_python_calls():
    """``count(fn)`` runs ``fn()`` and returns how many Python-level calls
    it made (``sys.setprofile`` "call" events, ``fn`` itself included) —
    the deterministic stand-in for a stopwatch the call-budget tests use."""
    return lambda fn: _count_profile_events(fn, lambda event, _arg: event == "call")


@pytest.fixture
def count_lock_releases():
    """``count(fn)`` runs ``fn()`` and returns how many times it released a
    ``threading`` lock or re-entrant lock — a ``with`` block's ``__exit__``
    or a bare ``release`` ("c_call" events).  Every release pairs with an
    acquisition, so this is what ``fn`` spent on locking, without a clock."""

    def is_release(event, arg) -> bool:
        return (
            event == "c_call"
            and arg.__name__ in ("__exit__", "release")
            and type(getattr(arg, "__self__", None)).__name__ in ("RLock", "lock")
        )

    return lambda fn: _count_profile_events(fn, is_release)
