"""The scalar profiler oracle: codec surfaces evaluated per call.

:class:`~repro.profiler.coding_profiler.CodingProfiler` answers every
size, encode-cost, retrieval-speed and storage-rank query from a shared
:class:`~repro.codec.tables.ProfileTable` built in one NumPy pass over
the knob grid.  :class:`ScalarSurfaces` answers the same three lookups
with the per-call scalar arithmetic of :mod:`repro.codec.model` and
:mod:`repro.retrieval.speed` that the table replaced, and
:class:`ScalarCodingProfiler` plugs it into the profiler's memoization
and accounting unchanged.  Plans derived through it must match the
table-backed profiler's bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from repro.clock import SimClock
from repro.codec.model import CodecModel, DEFAULT_CODEC
from repro.profiler.coding_profiler import CodingProfiler, CodingProfilerStats
from repro.retrieval.speed import retrieval_speed
from repro.storage.disk import DiskModel, DEFAULT_DISK
from repro.units import PROFILE_CLIP_SECONDS
from repro.video.coding import Coding, coding_space
from repro.video.fidelity import Fidelity
from repro.video.format import StorageFormat

__all__ = ["ScalarCodingProfiler", "ScalarSurfaces"]


class ScalarSurfaces:
    """The :class:`~repro.codec.tables.ProfileTable` lookups, per call."""

    def __init__(self, codec: CodecModel, disk: DiskModel, activity: float):
        self.codec = codec
        self.disk = disk
        self.activity = activity

    def profile_values(self, fmt: StorageFormat) -> Tuple[float, float, float]:
        """(bytes per video second, ingest cost, base retrieval speed)."""
        fidelity, coding = fmt.fidelity, fmt.coding
        return (
            self.codec.encoded_bytes_per_second(fidelity, coding,
                                                self.activity),
            self.codec.encode_seconds_per_video_second(fidelity, coding),
            retrieval_speed(fmt, None, self.codec, self.disk),
        )

    def retrieval_speed(
        self, fmt: StorageFormat, consumer_sampling: Optional[Fraction] = None
    ) -> float:
        return retrieval_speed(fmt, consumer_sampling, self.codec, self.disk)

    def storage_rank(self, fidelity: Fidelity) -> List[Coding]:
        """Encoded coding options ordered by on-disk size, cheapest first."""
        options = list(coding_space(include_raw=False))
        options.sort(
            key=lambda c: self.codec.encoded_bytes_per_second(
                fidelity, c, self.activity
            )
        )
        return options


class ScalarCodingProfiler(CodingProfiler):
    """A :class:`CodingProfiler` answering from :class:`ScalarSurfaces`.

    It sets its own fields instead of calling the parent constructor,
    which would build (and time) the shared table the oracle replaces.
    """

    def __init__(
        self,
        activity: float = 0.35,
        clip_seconds: float = PROFILE_CLIP_SECONDS,
        codec: CodecModel = DEFAULT_CODEC,
        disk: DiskModel = DEFAULT_DISK,
        clock: Optional[SimClock] = None,
    ):
        self.activity = activity
        self.clip_seconds = clip_seconds
        self.codec = codec
        self.disk = disk
        self.clock = clock or SimClock()
        self.stats = CodingProfilerStats()
        self._memo = {}
        self._speed_memo = {}
        self._table = ScalarSurfaces(codec, disk, activity)
