"""Coding knobs (Table 1): speed step, keyframe interval, coding bypass.

Coding knobs trade off ingestion (encode) cost, storage size and retrieval
(decode) cost without affecting consumer behaviour (Section 2.3).  A coding
option is either

* an encoded option ``Coding(speed_step, keyframe_interval)``, or
* the bypass option :data:`RAW`, storing raw YUV420 frames on disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import KnobError

#: Encoder speed steps, slowest first, with the equivalent x264 preset.
SPEED_STEPS: Tuple[str, ...] = ("slowest", "slow", "med", "fast", "fastest")
SPEED_PRESET: Dict[str, str] = {
    "slowest": "veryslow",
    "slow": "medium",
    "med": "veryfast",
    "fast": "superfast",
    "fastest": "ultrafast",
}

#: Keyframe intervals in frames (the GOP length).
KEYFRAME_INTERVALS: Tuple[int, ...] = (5, 10, 50, 100, 250)


@dataclass(frozen=True)
class Coding:
    """One coding option.

    ``raw`` selects the coding-bypass path; the other two knobs are then
    meaningless and must be ``None``.
    """

    speed_step: Optional[str] = None
    keyframe_interval: Optional[int] = None
    raw: bool = False

    def __post_init__(self) -> None:
        if self.raw:
            if self.speed_step is not None or self.keyframe_interval is not None:
                raise KnobError("raw coding takes no speed step / keyframe interval")
        elif self.speed_step not in SPEED_STEPS:
            raise KnobError(f"illegal speed step: {self.speed_step!r}")
        elif self.keyframe_interval not in KEYFRAME_INTERVALS:
            raise KnobError(f"illegal keyframe interval: {self.keyframe_interval!r}")
        # Hash once: the field-tuple hash a frozen dataclass would compute.
        object.__setattr__(self, "_hash", hash(
            (self.speed_step, self.keyframe_interval, self.raw)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__ so an unpickled copy recomputes its hash.
        return (self.__class__,
                (self.speed_step, self.keyframe_interval, self.raw))

    @property
    def speed_idx(self) -> int:
        """Index of the speed step, slowest (cheapest storage) first."""
        if self.raw:
            raise KnobError("raw coding has no speed step")
        return SPEED_STEPS.index(self.speed_step)

    @property
    def label(self) -> str:
        """Paper-style label, e.g. ``250-slowest`` or ``RAW``."""
        if self.raw:
            return "RAW"
        return f"{self.keyframe_interval}-{self.speed_step}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label

    @classmethod
    def parse(cls, label: str) -> "Coding":
        """Parse a label produced by :attr:`label`."""
        if label == "RAW":
            return RAW
        interval_text, _, step = label.partition("-")
        if not step:
            raise KnobError(f"malformed coding label: {label!r}")
        return cls(speed_step=step, keyframe_interval=int(interval_text))


#: The coding-bypass option: store raw YUV420 frames.
RAW = Coding(raw=True)


def coding_space(include_raw: bool = True) -> Iterator[Coding]:
    """Iterate the coding space C (25 encoded options, plus RAW)."""
    for interval, step in product(KEYFRAME_INTERVALS, SPEED_STEPS):
        yield Coding(speed_step=step, keyframe_interval=interval)
    if include_raw:
        yield RAW


def coding_space_size(include_raw: bool = True) -> int:
    """|C| — the number of coding options."""
    return len(SPEED_STEPS) * len(KEYFRAME_INTERVALS) + (1 if include_raw else 0)


def cheaper_decode_order() -> Tuple[Coding, ...]:
    """Coding options ordered from cheapest to costliest decoding.

    Used when coalescing storage formats: if the current coding cannot keep
    up with consumers, the coalescer walks this order toward cheaper decode
    (ending at RAW, whose "decoding" is a disk read).
    """
    encoded = sorted(
        (c for c in coding_space(include_raw=False)),
        key=lambda c: (-c.speed_idx, c.keyframe_interval),
    )
    return tuple(encoded) + (RAW,)
