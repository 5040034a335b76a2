"""Common attack interface."""

from __future__ import annotations

import time

from ..split.metrics import AttackResult, collect_extra
from ..split.split import SplitLayout


class Attack:
    """Base class: subclasses implement :meth:`select`."""

    name = "base"

    def attack(self, split: SplitLayout) -> AttackResult:
        """Run the attack and time it (the paper reports wall-clock)."""
        with collect_extra() as extra:
            start = time.perf_counter()
            assignment = self.select(split)
            elapsed = time.perf_counter() - start
        return AttackResult(
            design=split.name,
            split_layer=split.split_layer,
            assignment=assignment,
            runtime_s=elapsed,
            attack_name=self.name,
            extra=extra,
        )

    def select(self, split: SplitLayout) -> dict[int, int]:
        """Map each sink fragment id to a chosen source fragment id."""
        raise NotImplementedError
