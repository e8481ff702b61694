"""Detector operators: per-object detection with logistic size response.

A detector fires on objects whose *effective apparent size* — pixel height
scaled down by lost image detail — clears the operator's working point:

    p_detect(track, f) = sigmoid((log2(size_eff) - theta) / width)

where ``size_eff = track.size · res_height · feature_scale ·
detail(quality)^quality_alpha · contrast^0.5``.  This single expression
yields the three behaviours Section 2.4 documents:

* monotone accuracy in resolution and quality (O1);
* the quality/resolution interaction: at rich resolutions the logistic is
  saturated and quality barely matters, at poor resolutions a quality step
  moves accuracy a lot;
* per-operator differences: shallow specialized NNs (large theta, large
  quality_alpha) degrade much sooner than a full NN.

Scoring is frame-wise with label propagation, against the operator's own
output at the ingest fidelity: ground-truth positives are (track, frame)
pairs the operator detects at full fidelity; cropping removes objects from
view; sparse sampling misreads event boundaries; low quality adds excess
false positives.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.operators.accuracy import Confusion
from repro.operators.base import Operator, QUALITY_DETAIL, logistic
from repro.video.content import ClipTruth, Track
from repro.video.fidelity import Fidelity, RESOLUTIONS


class DetectorOperator(Operator):
    """Base class for per-object detectors (S-NN, NN, License, OCR, ...)."""

    #: Track kinds this operator looks for (e.g. only cars for S-NN).
    target_kinds: Tuple[str, ...] = ("car",)
    #: Only tracks with a readable plate are targets (License, OCR).
    requires_plate: bool = False
    #: Fraction of the object's height occupied by the detected feature
    #: (1.0 = the whole object; ~0.25 for a license plate).
    feature_scale: float = 1.0
    #: Logistic working point in log2(pixels) of effective feature height.
    theta: float = 3.0
    #: Logistic width; smaller = sharper accuracy cliff.
    width: float = 0.45
    #: Sensitivity to lost image detail (exponent on QUALITY_DETAIL).
    quality_alpha: float = 1.0
    #: Excess false positives per ingest frame at the poorest quality.
    fp_base: float = 0.03

    # -- detection model ---------------------------------------------------------

    def is_target(self, track: Track) -> bool:
        """Whether a track is the kind of object this operator looks for."""
        if track.kind not in self.target_kinds:
            return False
        if self.requires_plate and track.plate is None:
            return False
        return True

    def detection_prob(self, tracks: Sequence[Track],
                       fidelity: Fidelity) -> np.ndarray:
        """Per-track persistent detection probability at ``fidelity``."""
        if not tracks:
            return np.zeros(0)
        res_h = RESOLUTIONS[fidelity.resolution][1]
        detail = QUALITY_DETAIL[fidelity.quality] ** self.quality_alpha
        sizes = np.array([t.size for t in tracks])
        contrast = np.array([t.contrast for t in tracks])
        eff = sizes * res_h * self.feature_scale * detail * np.sqrt(contrast)
        p = logistic((np.log2(np.maximum(eff, 1e-6)) - self.theta) / self.width)
        targets = np.array([self.is_target(t) for t in tracks])
        return np.where(targets, p, 0.0)

    def fp_rate(self, fidelity: Fidelity) -> float:
        """Excess false positives per ingest frame (zero at best quality)."""
        lost_detail = 1.0 - QUALITY_DETAIL[fidelity.quality]
        return self.fp_base * lost_detail**1.5

    # -- scoring -------------------------------------------------------------------

    #: Displacement tolerance for a held (propagated) detection to still
    #: match the ground-truth box, relative to the object's own extent
    #: (boxes overlap until the object has moved a couple of widths).
    hold_match_scale: float = 3.0

    def _prediction_probs(
        self, clip: ClipTruth, fidelity: Fidelity
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(truth, p_pred, match) per (track, frame):

        * ``truth`` — the operator's ingest-fidelity output (presence);
        * ``p_pred`` — probability the operator claims the track present at
          the frame (detected at the covering sample, label held since);
        * ``match`` — probability the held detection still *matches* the
          ground-truth box: objects drift away from a stale box, so the
          match decays with (speed x hold gap) relative to object size.
          This is where sparse sampling costs detector accuracy.

        Only ``p_pred`` is combined per call; the rest are knob views of
        the clip.
        """
        truth = clip.view((self, "truth"), self._truth, clip)
        p_rel = clip.view(
            (self, "p_rel", fidelity.quality_idx, fidelity.resolution_idx),
            self._relative_detection, clip, fidelity)
        # Probability the operator reports the track present at frame j:
        # it must be in the cropped view at the covering sample, and detected.
        p_pred = p_rel[:, None] * clip.present_at_sample(fidelity)
        match = clip.view(
            ("match", self.hold_match_scale, fidelity.sampling_idx,
             fidelity.crop_idx),
            self._match, clip, fidelity)
        return truth, p_pred, match

    def _ingest_detection(self, clip: ClipTruth) -> np.ndarray:
        """Per-track detection probability at the ingest fidelity."""
        return clip.view((self, "ingest"), self.detection_prob, clip.tracks,
                         self.ingest_fidelity)

    def _truth(self, clip: ClipTruth) -> np.ndarray:
        """(nt, n) bool: presence in the operator's ingest-fidelity output."""
        return clip.visible & (self._ingest_detection(clip) >= 0.5)[:, None]

    def _relative_detection(self, clip: ClipTruth,
                            fidelity: Fidelity) -> np.ndarray:
        """(nt,) detection probability relative to the ingest fidelity's:
        1 at ingest fidelity by definition, 0 for undetectable tracks."""
        p_full = self._ingest_detection(clip)
        detectable = p_full >= 0.5
        p_now = self.detection_prob(clip.tracks, fidelity)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(detectable, np.minimum(1.0, p_now / p_full), 0.0)

    def _match(self, clip: ClipTruth, fidelity: Fidelity) -> np.ndarray:
        """(nt, n) probability a held box still matches the object."""
        if not clip.tracks:
            return np.ones((0, clip.n_frames))
        drift = np.array([
            tr.speed * tr.duty / (self.hold_match_scale * tr.size + 0.1)
            for tr in clip.tracks
        ])
        match = np.exp(-drift[:, None] * clip.hold_gaps(fidelity)[None, :])
        # A held box cannot match once the object has left the cropped
        # view; the stale claim is then a miss plus a spurious box.
        return match * clip.crop_mask(fidelity)

    def expected_confusion(self, clip: ClipTruth, fidelity: Fidelity) -> Confusion:
        n = clip.n_frames
        if not clip.tracks:
            return Confusion(0.0, self.fp_rate(fidelity) * n, 0.0)
        truth, p_pred, match = self._prediction_probs(clip, fidelity)
        hit = p_pred * match
        tp = float((hit * truth).sum())
        fn = float(((1.0 - hit) * truth).sum())
        # A drifted held box both misses the object (FN above) and claims a
        # detection where there is none (FP here); claims on frames where
        # the truth says absent are plain false positives.
        fp = (
            float((p_pred * ~truth).sum())
            + float((p_pred * (1.0 - match) * truth).sum())
            + self.fp_rate(fidelity) * n
        )
        return Confusion(tp, fp, fn)

    def expected_positive_fraction(self, clip: ClipTruth,
                                   fidelity: Fidelity) -> float:
        """Fraction of frames with at least one (possibly false) detection."""
        noise = min(1.0, self.fp_rate(fidelity))
        if not clip.tracks:
            return noise
        _, p_pred, _ = self._prediction_probs(clip, fidelity)
        p_any = 1.0 - np.prod(1.0 - p_pred, axis=0)  # (n,)
        combined = 1.0 - (1.0 - p_any) * (1.0 - noise)
        return float(np.mean(combined))

    # -- stochastic execution (examples, integration tests) ------------------------

    def run(self, clip: ClipTruth, fidelity: Fidelity,
            rng: np.random.Generator) -> np.ndarray:
        """Sample concrete per-frame detections: (n_consumed, n_tracks) bool."""
        consumed = clip.consumed_index(fidelity)
        if not clip.tracks:
            return np.zeros((len(consumed), 0), dtype=bool)
        p = self.detection_prob(clip.tracks, fidelity)
        persistent = rng.random(len(clip.tracks)) < p
        vis = clip.crop_mask(fidelity)[:, consumed]
        return (vis & persistent[:, None]).T
