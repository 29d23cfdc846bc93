"""The e2e tracer's patch table names attributes that really exist.

``benchmarks/e2e/trace.py`` patches ``vars(owner)[attr]`` for every
entry point in its ``LAYERS`` table, so a method that is renamed — or
merely *inherited* where it used to be defined — is first noticed as a
``KeyError`` a minute into the traced benchmark pass.  This is the same
lookup, done in tier-1.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACE_PY = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "trace.py"


def _load_trace():
    spec = importlib.util.spec_from_file_location("_e2e_trace_under_test", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_engine_target_resolves_in_its_owner_namespace():
    trace = _load_trace()
    targets = [
        target
        for layer_targets in trace.LAYERS.values()
        for target in layer_targets
        if target.module.startswith("repro.")
    ]
    assert targets
    missing = []
    for target in targets:
        owner = importlib.import_module(target.module)
        *path, attr = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        if attr not in vars(owner):
            missing.append(f"{target.module}:{target.qualname}")
    assert not missing, missing


def test_ext_journal_alias_is_the_core_objects():
    """The frozen benchmark names ``repro.ext.journal`` and the tracer
    patches by identity: the alias must be the objects the engine runs, and
    the store's traced methods must sit in its own class body."""
    import repro.ext.journal as alias
    from repro.core import mapping_store, restart

    assert alias.MappingStore is mapping_store.MappingStore
    assert alias.restart_driver is restart.restart_driver
    for name in ("record", "commit", "snapshot", "load_data_page"):
        assert name in vars(mapping_store.MappingStore), name
