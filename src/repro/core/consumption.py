"""Deriving consumption formats (Section 4.2).

For each consumer <operator, target-accuracy>, find the fidelity f0 whose
accuracy meets the target at the lowest consumption cost:

1. temporarily pin image quality at its richest value (O2: quality does not
   affect consumption cost);
2. partition the remaining 3-D space along the shortest dimension — the
   crop factor — into 2-D (sampling x resolution) slices;
3. trace each slice's accuracy boundary with the monotone walk of
   :class:`~repro.core.boundary.BoundarySearch` and keep the boundary point
   with the highest consumption speed;
4. finally lower image quality as far as accuracy allows: this cannot make
   consumption cheaper, but opportunistically reduces storage/ingest costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.boundary import BoundarySearch
from repro.errors import ConfigurationError
from repro.operators.library import Consumer
from repro.profiler.profiler import OperatorProfile, OperatorProfiler
from repro.video.fidelity import (
    CROP_FACTORS,
    Fidelity,
    QUALITIES,
    RESOLUTION_ORDER,
    SAMPLING_RATES,
    fidelity_at,
    fidelity_space,
)
from repro.video.format import ConsumptionFormat


@dataclass(frozen=True)
class ConsumptionDecision:
    """The derived consumption format for one consumer."""

    consumer: Consumer
    fidelity: Fidelity
    accuracy: float
    consumption_speed: float  # x realtime

    @property
    def cf(self) -> ConsumptionFormat:
        return ConsumptionFormat(self.fidelity)


class ConsumptionPlanner:
    """Derives consumption formats for consumers of one profiled dataset."""

    def __init__(self, profiler: OperatorProfiler):
        self.profiler = profiler

    # -- search -------------------------------------------------------------

    def derive(self, consumer: Consumer) -> ConsumptionDecision:
        """Find the cheapest-to-consume fidelity meeting the target."""
        best: Optional[OperatorProfile] = None
        top_quality = len(QUALITIES) - 1

        for crop_idx in range(len(CROP_FACTORS)):
            candidate = self._search_slice(consumer, top_quality, crop_idx)
            if candidate is None:
                continue
            if best is None or self._better(candidate, best):
                best = candidate

        if best is None:
            raise ConfigurationError(
                f"no fidelity meets accuracy {consumer.accuracy} for "
                f"operator {consumer.operator}"
            )

        final = self._lower_quality(consumer, best)
        return ConsumptionDecision(
            consumer=consumer,
            fidelity=final.fidelity,
            accuracy=final.accuracy,
            consumption_speed=final.consumption_speed,
        )

    def derive_all(self, consumers: List[Consumer]) -> List[ConsumptionDecision]:
        """Derive a consumption format for every consumer."""
        return [self.derive(c) for c in consumers]

    # -- exhaustive baseline (Figure 14) ---------------------------------------

    def derive_exhaustive(self, consumer: Consumer) -> ConsumptionDecision:
        """Reference search profiling the entire fidelity space."""
        best: Optional[OperatorProfile] = None
        for fidelity in fidelity_space():
            profile = self.profiler.profile(consumer.operator, fidelity)
            if profile.accuracy < consumer.accuracy:
                continue
            if best is None or self._better(profile, best, prefer_poor_quality=True):
                best = profile
        if best is None:
            raise ConfigurationError(
                f"no fidelity meets accuracy {consumer.accuracy} for "
                f"operator {consumer.operator}"
            )
        return ConsumptionDecision(
            consumer=consumer,
            fidelity=best.fidelity,
            accuracy=best.accuracy,
            consumption_speed=best.consumption_speed,
        )

    # -- internals ----------------------------------------------------------------

    def _profile(self, consumer: Consumer, quality_idx: int, crop_idx: int,
                 sampling_idx: int, resolution_idx: int) -> OperatorProfile:
        fidelity = fidelity_at(quality_idx, resolution_idx, sampling_idx,
                               crop_idx)
        return self.profiler.profile(consumer.operator, fidelity)

    def _search_slice(
        self, consumer: Consumer, quality_idx: int, crop_idx: int
    ) -> Optional[OperatorProfile]:
        """Boundary-walk one (sampling x resolution) slice; return the
        fastest adequate boundary point, or None when the slice has none."""
        profiles: Dict[tuple, OperatorProfile] = {}

        def adequate(sampling_idx: int, resolution_idx: int) -> bool:
            profile = self._profile(consumer, quality_idx, crop_idx,
                                    sampling_idx, resolution_idx)
            profiles[(sampling_idx, resolution_idx)] = profile
            return profile.accuracy >= consumer.accuracy

        search = BoundarySearch(
            n_rows=len(SAMPLING_RATES), n_cols=len(RESOLUTION_ORDER),
            adequate=adequate,
        )
        result = search.walk()
        best: Optional[OperatorProfile] = None
        for cell in result.boundary:
            profile = profiles[cell]
            if best is None or self._better(profile, best):
                best = profile
        return best

    @staticmethod
    def _better(a: OperatorProfile, b: OperatorProfile,
                prefer_poor_quality: bool = False) -> bool:
        """Whether profile ``a`` beats ``b``: primarily higher consumption
        speed; ties break toward fewer pixels, then poorer quality (which
        the exhaustive baseline must consider explicitly)."""
        if a.consumption_speed != b.consumption_speed:
            return a.consumption_speed > b.consumption_speed
        if a.fidelity.pixels != b.fidelity.pixels:
            return a.fidelity.pixels < b.fidelity.pixels
        if prefer_poor_quality:
            return a.fidelity.quality_idx < b.fidelity.quality_idx
        return False

    def _lower_quality(self, consumer: Consumer,
                       best: OperatorProfile) -> OperatorProfile:
        """Step image quality down while accuracy stays adequate (step iv)."""
        current = best
        for quality_idx in range(len(QUALITIES) - 2, -1, -1):
            fid = current.fidelity
            fidelity = fidelity_at(quality_idx, fid.resolution_idx,
                                   fid.sampling_idx, fid.crop_idx)
            profile = self.profiler.profile(consumer.operator, fidelity)
            if profile.accuracy < consumer.accuracy:
                break
            current = profile
        return current
