"""Project rules.  Importing this package registers every rule.

Each module holds one rule; the catalogue with examples lives in
``docs/static-analysis.md``.
"""


def path_matches(rel: str, patterns) -> bool:
    """True when the module path ends with any of the given patterns.

    Rules use path suffixes ("repro/core/fsck.py") rather than exact
    paths so the same allowlists work whether the scan root is the repo
    root, ``src/`` or a fixture tree copy.
    """
    return any(rel == p or rel.endswith("/" + p) for p in patterns)


# Import after path_matches is defined: rule modules import it from here.
from . import (  # noqa: E402, F401  (import-for-side-effect registration)
    checksum_bypass,
    error_handling,
    journal_commit,
    lock_order,
    phase_discipline,
    pin_discipline,
    resource_lifecycle,
    single_writer,
)

__all__ = [
    "checksum_bypass",
    "error_handling",
    "journal_commit",
    "lock_order",
    "path_matches",
    "phase_discipline",
    "pin_discipline",
    "resource_lifecycle",
    "single_writer",
]
