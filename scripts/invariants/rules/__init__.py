"""Project rules: one module per rule, all listed in :data:`RULES`.

The catalogue with examples lives in ``docs/static-analysis.md``.
"""


def path_matches(rel: str, patterns) -> bool:
    """True when the module path ends with any of the given patterns.

    Rules use path suffixes ("repro/core/fsck.py") rather than exact
    paths so the same allowlists work whether the scan root is the repo
    root, ``src/`` or a fixture tree copy.
    """
    return any(rel == p or rel.endswith("/" + p) for p in patterns)


# Import after path_matches is defined: rule modules import it from here.
from .checksum_bypass import ChecksumBypassRule  # noqa: E402
from .error_handling import BareExceptRule  # noqa: E402
from .journal_commit import JournalFlushBeforeAckRule  # noqa: E402
from .lock_order import LockOrderRule  # noqa: E402
from .phase_discipline import PhaseDisciplineRule  # noqa: E402
from .pin_discipline import PinDisciplineRule  # noqa: E402
from .resource_lifecycle import ResourceLifecycleRule  # noqa: E402
from .single_writer import SingleWriterRule  # noqa: E402

#: Every rule, in id order.
RULES = (
    BareExceptRule(),
    ChecksumBypassRule(),
    JournalFlushBeforeAckRule(),
    LockOrderRule(),
    PhaseDisciplineRule(),
    PinDisciplineRule(),
    ResourceLifecycleRule(),
    SingleWriterRule(),
)

__all__ = ["RULES", "path_matches"]
