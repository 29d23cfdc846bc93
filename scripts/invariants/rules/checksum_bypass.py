"""checksum-bypass: ``verify=False`` reads outside fsck/recovery.

Spare-area checksums only protect readers who check them.
``FlashChip.read_page(..., verify=False)`` exists for exactly one
consumer: the repair path, which must be able to *look at* a corrupt
page to heal it (``core/fsck.py`` reads whole blocks unverified and
re-verifies per-page to localise damage).  Anywhere else, skipping
verification turns a detectable single-page failure into silent data
corruption — the failure mode the paper's Section 6 durability argument
assumes away.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .. import astutil
from ..findings import Finding, Rule
from . import path_matches

READ_CALLS = {"read_page", "read_pages"}

ALLOWED_PATHS = (
    "repro/core/fsck.py",
    "repro/core/recovery.py",
)


class ChecksumBypassRule(Rule):
    id = "checksum-bypass"
    summary = "verify=False flash reads outside the fsck/recovery modules"
    hint = (
        "read with verify=True (the default) and let IntegrityError surface, "
        "or move the unverified read into core/fsck.py / core/recovery.py"
    )

    def run(self, project) -> Iterator[Finding]:
        for mod in project.modules:
            if path_matches(mod.rel, ALLOWED_PATHS):
                continue
            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = astutil.call_func_name(node)
                if name not in READ_CALLS:
                    continue
                verify = astutil.keyword_arg(node, "verify")
                if verify is not None and astutil.is_false(verify):
                    yield self.finding(
                        mod,
                        node,
                        f"{name}(..., verify=False) bypasses spare-area "
                        "checksum verification outside the repair modules",
                    )
