"""Extensions (S11 in DESIGN.md): the paper's future-work items.

* :mod:`repro.ext.journal` — the one mapping-persistence path: ping-pong
  snapshots plus a group-committed journal, so restarts avoid the full
  Figure-11 scan (Section 4.5's "further study").  Imported by name, not
  re-exported here: :mod:`repro.core.pdl` loads it lazily.
* :mod:`repro.ext.wear_leveling` — alternative GC victim policies
  (footnote 4's orthogonal wear-leveling).
"""

from .wear_leveling import round_robin_policy, wear_aware_policy

__all__ = [
    "round_robin_policy",
    "wear_aware_policy",
]
