"""Signal operators: binary per-frame labels from a scalar scene signal.

Diff, Motion and Opflow do not localize objects; they threshold a scalar
measure of scene change.  The measured signal at fidelity f is the true
signal with contributions attenuated for objects the fidelity can no longer
resolve, and the label is probabilistic around the threshold with a noise
scale that grows as image quality drops:

    P(label=1 | frame) = sigmoid((signal_f - threshold) / noise(f))

At the ingest fidelity the noise scale is tiny and the measured signal is
the true signal, so labels equal ground truth and F1 is 1.0.
"""

from __future__ import annotations

import numpy as np

from repro.operators.accuracy import Confusion
from repro.operators.base import Operator, QUALITY_DETAIL, logistic
from repro.video.content import ClipTruth
from repro.video.fidelity import Fidelity, RESOLUTIONS


class SignalOperator(Operator):
    """Base class for Diff/Motion/Opflow-style frame labelers."""

    #: Label threshold on the scalar signal.
    threshold: float = 0.06
    #: Noise scale at best quality (keeps ingest-fidelity labels crisp).
    noise_floor: float = 5.0e-4
    #: Additional noise at the poorest quality.
    quality_noise: float = 0.02
    #: Sensitivity of the noise to lost detail (exponent).
    quality_alpha: float = 1.0
    #: Noise per unit of resolution shrink: a 60x60 frame quantizes the
    #: measured signal far more coarsely than the 720p original.
    res_noise: float = 1.0e-3
    #: Working point (log2 px of object height) below which an object stops
    #: contributing to the measured signal.
    detect_theta: float = 2.0
    detect_width: float = 0.6
    #: Weight of camera-induced activity in the signal.
    camera_weight: float = 1.0
    #: Decay rate (per second of hold gap) of a held label's confidence:
    #: the scene keeps evolving after the sample, so a stale label drifts
    #: toward a coin flip.  This is where sparse sampling costs accuracy.
    hold_decay: float = 0.3

    # -- signal model -------------------------------------------------------------

    def object_contribution(self, clip: ClipTruth) -> np.ndarray:
        """Per-track signal contribution when fully resolved (nt,)."""
        if not clip.tracks:
            return np.zeros(0)
        return np.array(
            [t.size * min(1.0, t.speed / 0.05) for t in clip.tracks]
        )

    def resolve_weight(self, clip: ClipTruth, fidelity: Fidelity) -> np.ndarray:
        """How well each track is resolved at ``fidelity`` (nt,), in [0, 1],
        normalized to 1 at the ingest fidelity."""
        if not clip.tracks:
            return np.zeros(0)

        def weight(res_name: str, quality: str) -> np.ndarray:
            res_h = RESOLUTIONS[res_name][1]
            detail = QUALITY_DETAIL[quality] ** (self.quality_alpha * 0.5)
            sizes = np.array([t.size for t in clip.tracks])
            eff = np.maximum(sizes * res_h * detail, 1e-6)
            return logistic((np.log2(eff) - self.detect_theta) / self.detect_width)

        full = weight("720p", "best")
        now = weight(fidelity.resolution, fidelity.quality)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(full > 0, np.minimum(1.0, now / full), 0.0)

    def signal(self, clip: ClipTruth, fidelity: Fidelity) -> np.ndarray:
        """Measured per-frame signal at ``fidelity`` (n,)."""
        base = self.camera_weight * clip.view("camera", _camera_activity,
                                              clip)
        if not clip.tracks:
            return base
        contribution = clip.view((self, "contribution"),
                                 self.object_contribution, clip)
        weights = clip.view(
            (self, "resolve", fidelity.quality_idx, fidelity.resolution_idx),
            self.resolve_weight, clip, fidelity)
        # Only objects that are both inside the cropped view and in the
        # moving phase of their duty cycle change pixels frame to frame.
        per_frame = (contribution * weights)[:, None] \
            * clip.moving_in_crop(fidelity)
        return base + per_frame.sum(axis=0)

    def true_signal(self, clip: ClipTruth) -> np.ndarray:
        """The signal at the ingest fidelity (full crop, full detail)."""
        return self.signal(clip, self.ingest_fidelity)

    def noise_scale(self, fidelity: Fidelity) -> float:
        lost = 1.0 - QUALITY_DETAIL[fidelity.quality]
        res_h = RESOLUTIONS[fidelity.resolution][1]
        return (
            self.noise_floor
            + self.quality_noise * lost**self.quality_alpha
            + self.res_noise * (720.0 / res_h - 1.0)
        )

    def label_probability(self, clip: ClipTruth, fidelity: Fidelity) -> np.ndarray:
        """P(positive label) per frame at ``fidelity`` (n,)."""
        sig = self.signal(clip, fidelity)
        return logistic((sig - self.threshold) / self.noise_scale(fidelity))

    # -- scoring --------------------------------------------------------------------

    def _held_probability(self, clip: ClipTruth,
                          fidelity: Fidelity) -> np.ndarray:
        """Per-frame positive-label probability after label hold: the
        covering sample's label, decayed toward 0.5 with the hold gap."""
        p = self.label_probability(clip, fidelity)
        confidence = clip.view(
            ("hold", self.hold_decay, fidelity.sampling_idx),
            lambda: np.exp(-clip.hold_gaps(fidelity) * self.hold_decay))
        return 0.5 + (p[clip.covering(fidelity)] - 0.5) * confidence

    def _true_labels(self, clip: ClipTruth) -> np.ndarray:
        """(n,) bool: the operator's own label at the ingest fidelity."""
        return clip.view((self, "labels"),
                         lambda: self.true_signal(clip) > self.threshold)

    def expected_confusion(self, clip: ClipTruth, fidelity: Fidelity) -> Confusion:
        truth = self._true_labels(clip)
        p_held = self._held_probability(clip, fidelity)
        tp = float(p_held[truth].sum())
        fn = float((1.0 - p_held[truth]).sum())
        fp = float(p_held[~truth].sum())
        return Confusion(tp, fp, fn)

    def expected_positive_fraction(self, clip: ClipTruth,
                                   fidelity: Fidelity) -> float:
        """Fraction of frames labeled positive (cascade selectivity)."""
        return float(np.mean(self._held_probability(clip, fidelity)))

    # -- stochastic execution ----------------------------------------------------------

    def run(self, clip: ClipTruth, fidelity: Fidelity,
            rng: np.random.Generator) -> np.ndarray:
        """Sample concrete binary labels for the consumed frames."""
        consumed = clip.consumed_index(fidelity)
        p = self.label_probability(clip, fidelity)[consumed]
        return rng.random(len(consumed)) < p


def _camera_activity(clip: ClipTruth) -> np.ndarray:
    """Camera-induced component of the clip's per-frame activity."""
    if not clip.tracks:
        return clip.activity.copy()
    boost = (
        np.array([t.size**2 * t.speed * 25.0 for t in clip.tracks])[:, None]
        * clip.moving
    ).sum(axis=0)
    return np.maximum(0.0, clip.activity - boost)
