"""Storage formats SF<f, c> and consumption formats CF<f> (Section 3.1).

A *consumption format* is the fidelity of the raw frame sequence supplied to
an operator.  A *storage format* pairs a fidelity with a coding option and
describes one on-disk version of an ingested stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.video.coding import Coding, RAW
from repro.video.fidelity import Fidelity


@dataclass(frozen=True)
class ConsumptionFormat:
    """CF<f> — the fidelity of frames handed to a consumer."""

    fidelity: Fidelity

    @property
    def label(self) -> str:
        return self.fidelity.label

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"CF<{self.label}>"


@dataclass(frozen=True)
class StorageFormat:
    """SF<f, c> — one stored video version (fidelity plus coding)."""

    fidelity: Fidelity
    coding: Coding

    def __post_init__(self) -> None:
        # Hash once: the field-tuple hash a frozen dataclass would compute.
        object.__setattr__(self, "_hash", hash((self.fidelity, self.coding)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__ so an unpickled copy recomputes its hash
        # (and drops any per-object caches, such as the segment-store key).
        return (self.__class__, (self.fidelity, self.coding))

    @property
    def is_raw(self) -> bool:
        """True when this version stores raw frames (coding bypass)."""
        return self.coding.raw

    @property
    def label(self) -> str:
        return f"{self.fidelity.label} {self.coding.label}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"SF<{self.label}>"

    def can_supply(self, cf: ConsumptionFormat) -> bool:
        """Requirement R1: this SF can feed ``cf`` iff its fidelity is
        richer than or equal to the consumption fidelity."""
        return self.fidelity.richer_equal(cf.fidelity)

    def with_coding(self, coding: Coding) -> "StorageFormat":
        """A copy of this format using a different coding option."""
        return StorageFormat(fidelity=self.fidelity, coding=coding)


def raw_format(fidelity: Fidelity) -> StorageFormat:
    """A storage format keeping ``fidelity`` as raw frames on disk."""
    return StorageFormat(fidelity=fidelity, coding=RAW)
