"""Opflow: optical-flow tracker for object movements (OpenCV).

Optical flow matches pixels between consecutive *consumed* frames, so it is
the operator most sensitive to frame sampling: when the gap between
consumed frames grows, displacements exceed the flow search window and the
estimate degrades.  The model applies a gap-dependent confidence factor on
top of the usual signal machinery, pulling label probabilities toward
chance as the inter-sample displacement grows.
"""

from __future__ import annotations

import numpy as np

from repro.operators.base import logistic
from repro.operators.signal_op import SignalOperator
from repro.video.content import ClipTruth
from repro.video.fidelity import Fidelity


class OpflowOperator(SignalOperator):
    """Optical-flow movement tracker [OpenCV]."""

    name = "Opflow"
    platform = "cpu"

    # Cost: dense flow is expensive, superlinear in pixels.
    cost_base = 2.5e-4
    cost_per_mp = 3.8e-3
    cost_gamma = 1.0

    threshold = 0.05
    noise_floor = 5.0e-4
    quality_noise = 0.03  # gradients wash out with compression
    quality_alpha = 1.2
    detect_theta = 2.4  # needs textured pixels on the object
    detect_width = 0.55
    camera_weight = 0.9

    #: Normalized displacement between consumed frames beyond which flow
    #: matching starts to fail.
    flow_window: float = 0.035
    flow_sharpness: float = 0.012

    def gap_confidence(self, clip: ClipTruth, fidelity: Fidelity) -> float:
        """Confidence factor in [0,1]: exactly 1 at the ingest sampling rate
        (the normalization that makes ingest-fidelity accuracy 1.0), falling
        toward 0 when inter-sample displacement exceeds the flow window."""
        stride = 1.0 / float(fidelity.sampling)
        if clip.tracks:
            mean_speed = float(np.mean([t.speed for t in clip.tracks]))
        else:
            mean_speed = 0.05

        def raw(gap_seconds: float) -> float:
            displacement = mean_speed * gap_seconds
            return float(
                logistic((self.flow_window - displacement) / self.flow_sharpness)
            )

        dense = raw(1.0 / float(clip.fps))
        if dense <= 0.0:
            return 0.0
        return min(1.0, raw(stride / float(clip.fps)) / dense)

    def label_probability(self, clip: ClipTruth, fidelity: Fidelity) -> np.ndarray:
        base = super().label_probability(clip, fidelity)
        confidence = clip.view((self, "gap", fidelity.sampling_idx),
                               self.gap_confidence, clip, fidelity)
        # Low confidence pulls the label toward a coin flip.
        return 0.5 + (base - 0.5) * confidence
