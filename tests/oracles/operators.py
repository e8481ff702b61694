"""The per-call operator scoring oracle.

Production operators score a probe by combining a clip's memoized knob
views (:meth:`repro.video.content.ClipTruth.view`): the crop mask of a
crop factor, the propagation map of a sampling rate, per-track detection
vectors per (resolution, quality), and so on.  This module keeps the
scoring code those views replaced, which rebuilds every array on every
call from the clip's raw ground truth and the operator's model
parameters.  Every confusion count, F1 score, selectivity and signal it
returns must equal the production answer bit for bit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.operators.accuracy import Confusion
from repro.operators.base import Operator, logistic
from repro.operators.detector import DetectorOperator
from repro.operators.opflow import OpflowOperator
from repro.operators.signal_op import SignalOperator
from repro.video.content import ClipTruth, propagation_map
from repro.video.fidelity import Fidelity

__all__ = [
    "accuracy",
    "consumed_index",
    "expected_confusion",
    "expected_positive_fraction",
    "signal",
]


def consumed_index(clip: ClipTruth, fidelity: Fidelity) -> np.ndarray:
    """Indices of the ingest frames a consumer at ``fidelity`` receives."""
    s = float(fidelity.sampling)
    if s >= 1.0:
        return np.arange(clip.n_frames)
    n_consumed = int(np.ceil(clip.n_frames * s))
    idx = np.unique(np.floor(np.arange(n_consumed) / s).astype(int))
    return idx[idx < clip.n_frames]


def accuracy(op: Operator, clip: ClipTruth, fidelity: Fidelity) -> float:
    """F1 score of ``op`` on ``clip`` at ``fidelity``."""
    return expected_confusion(op, clip, fidelity).f1


def expected_confusion(op: Operator, clip: ClipTruth,
                       fidelity: Fidelity) -> Confusion:
    if isinstance(op, DetectorOperator):
        return _detector_confusion(op, clip, fidelity)
    if isinstance(op, SignalOperator):
        return _signal_confusion(op, clip, fidelity)
    raise TypeError(f"no oracle for {type(op).__name__}")


def expected_positive_fraction(op: Operator, clip: ClipTruth,
                               fidelity: Fidelity) -> float:
    if isinstance(op, DetectorOperator):
        return _detector_positive_fraction(op, clip, fidelity)
    if isinstance(op, SignalOperator):
        return float(np.mean(_held_probability(op, clip, fidelity)))
    raise TypeError(f"no oracle for {type(op).__name__}")


# -- detectors ---------------------------------------------------------------


def _prediction_probs(
    op: DetectorOperator, clip: ClipTruth, fidelity: Fidelity
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(truth, p_pred, match) per (track, frame), built from scratch."""
    p_full = op.detection_prob(clip.tracks, op.ingest_fidelity)
    detectable = p_full >= 0.5
    p_now = op.detection_prob(clip.tracks, fidelity)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_rel = np.where(detectable, np.minimum(1.0, p_now / p_full), 0.0)

    truth = clip.visible & detectable[:, None]
    consumed = consumed_index(clip, fidelity)
    covering = propagation_map(clip.n_frames, consumed)
    vis_crop = clip.in_crop(fidelity.crop)
    present_at_sample = vis_crop[:, covering]
    p_pred = p_rel[:, None] * present_at_sample

    gaps = (np.arange(clip.n_frames) - covering) / float(clip.fps)
    if clip.tracks:
        drift = np.array([
            tr.speed * tr.duty / (op.hold_match_scale * tr.size + 0.1)
            for tr in clip.tracks
        ])
        match = np.exp(-drift[:, None] * gaps[None, :])
        match = match * vis_crop
    else:
        match = np.ones((0, clip.n_frames))
    return truth, p_pred, match


def _detector_confusion(op: DetectorOperator, clip: ClipTruth,
                        fidelity: Fidelity) -> Confusion:
    n = clip.n_frames
    if not clip.tracks:
        return Confusion(0.0, op.fp_rate(fidelity) * n, 0.0)
    truth, p_pred, match = _prediction_probs(op, clip, fidelity)
    hit = p_pred * match
    tp = float((hit * truth).sum())
    fn = float(((1.0 - hit) * truth).sum())
    fp = (
        float((p_pred * ~truth).sum())
        + float((p_pred * (1.0 - match) * truth).sum())
        + op.fp_rate(fidelity) * n
    )
    return Confusion(tp, fp, fn)


def _detector_positive_fraction(op: DetectorOperator, clip: ClipTruth,
                                fidelity: Fidelity) -> float:
    noise = min(1.0, op.fp_rate(fidelity))
    if not clip.tracks:
        return noise
    _, p_pred, _ = _prediction_probs(op, clip, fidelity)
    p_any = 1.0 - np.prod(1.0 - p_pred, axis=0)
    combined = 1.0 - (1.0 - p_any) * (1.0 - noise)
    return float(np.mean(combined))


# -- signal operators --------------------------------------------------------


def _camera_activity(clip: ClipTruth) -> np.ndarray:
    if not clip.tracks:
        return clip.activity.copy()
    boost = (
        np.array([t.size**2 * t.speed * 25.0 for t in clip.tracks])[:, None]
        * clip.moving
    ).sum(axis=0)
    return np.maximum(0.0, clip.activity - boost)


def signal(op: SignalOperator, clip: ClipTruth,
           fidelity: Fidelity) -> np.ndarray:
    """Measured per-frame signal of ``op`` at ``fidelity``."""
    base = op.camera_weight * _camera_activity(clip)
    if not clip.tracks:
        return base
    contribution = op.object_contribution(clip)
    weights = op.resolve_weight(clip, fidelity)
    active = clip.in_crop(fidelity.crop) & clip.moving
    per_frame = (contribution * weights)[:, None] * active
    return base + per_frame.sum(axis=0)


def _label_probability(op: SignalOperator, clip: ClipTruth,
                       fidelity: Fidelity) -> np.ndarray:
    sig = signal(op, clip, fidelity)
    p = logistic((sig - op.threshold) / op.noise_scale(fidelity))
    if isinstance(op, OpflowOperator):
        p = 0.5 + (p - 0.5) * op.gap_confidence(clip, fidelity)
    return p


def _held_probability(op: SignalOperator, clip: ClipTruth,
                      fidelity: Fidelity) -> np.ndarray:
    p = _label_probability(op, clip, fidelity)
    consumed = consumed_index(clip, fidelity)
    covering = propagation_map(clip.n_frames, consumed)
    gaps = (np.arange(clip.n_frames) - covering) / float(clip.fps)
    confidence = np.exp(-gaps * op.hold_decay)
    return 0.5 + (p[covering] - 0.5) * confidence


def _signal_confusion(op: SignalOperator, clip: ClipTruth,
                      fidelity: Fidelity) -> Confusion:
    truth = signal(op, clip, op.ingest_fidelity) > op.threshold
    p_held = _held_probability(op, clip, fidelity)
    tp = float(p_held[truth].sum())
    fn = float((1.0 - p_held[truth]).sum())
    fp = float(p_held[~truth].sum())
    return Confusion(tp, fp, fn)
