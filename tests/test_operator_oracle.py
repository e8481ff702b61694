"""Operator scoring from knob views equals per-call scoring, bit for bit.

Operators score a probe by combining the clip's memoized knob views, so
what a probe returns could depend on which probes ran before it on the
same clip.  These properties probe fresh clips at random fidelities in a
random order (repeats included) and hold every answer to the per-call
oracle in :mod:`oracles.operators`, compared through ``float.hex``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.operators.library import TABLE2_ORDER, default_library
from repro.operators.signal_op import SignalOperator
from repro.profiler.profiler import select_profile_clip
from repro.units import PROFILE_CLIP_SECONDS
from repro.video.content import ClipTruth, ContentModel
from repro.video.datasets import get_dataset
from repro.video.fidelity import INGEST_FPS, fidelity_space

from oracles import operators as oracle

LIBRARY = default_library()
FIDELITIES = list(fidelity_space())


def _profiling_model(dataset: str):
    """The dataset's content model and the t0 of its profiling clip."""
    return (get_dataset(dataset).content(),
            select_profile_clip(dataset).t0)


def _empty_model():
    """A scene nothing ever enters: its clips have no tracks."""
    params = replace(get_dataset("jackson").params, arrival_rate=0.0)
    return ContentModel("empty", params), 0.0


CLIPS = {
    "jackson": _profiling_model("jackson"),
    "dashcam": _profiling_model("dashcam"),
    "empty": _empty_model(),
}


def _fresh_clip(name: str) -> ClipTruth:
    """A newly built clip, so no knob view survives from another example."""
    model, t0 = CLIPS[name]
    return ClipTruth.build(model, t0, PROFILE_CLIP_SECONDS, INGEST_FPS)


def _hex(value: float) -> str:
    return float(value).hex()


def test_the_empty_clip_has_no_tracks_and_the_others_do():
    assert not _fresh_clip("empty").tracks
    assert _fresh_clip("jackson").tracks and _fresh_clip("dashcam").tracks


@settings(max_examples=25, deadline=None)
@given(
    clip_name=st.sampled_from(sorted(CLIPS)),
    probes=st.lists(
        st.tuples(st.integers(0, len(FIDELITIES) - 1),
                  st.sampled_from(("confusion", "fraction", "signal"))),
        min_size=1, max_size=12,
    ),
)
def test_views_score_like_the_per_call_oracle(clip_name, probes):
    clip = _fresh_clip(clip_name)
    for name in TABLE2_ORDER:
        op = LIBRARY.get(name)
        for index, kind in probes:
            fid = FIDELITIES[index]
            if kind == "confusion":
                got = op.expected_confusion(clip, fid)
                want = oracle.expected_confusion(op, clip, fid)
                assert [_hex(got.tp), _hex(got.fp), _hex(got.fn)] == [
                    _hex(want.tp), _hex(want.fp), _hex(want.fn)], (name, fid)
                assert _hex(op.accuracy(clip, fid)) == _hex(
                    oracle.accuracy(op, clip, fid)), (name, fid)
            elif kind == "fraction":
                assert _hex(op.expected_positive_fraction(clip, fid)) == _hex(
                    oracle.expected_positive_fraction(op, clip, fid)), (
                        name, fid)
            elif isinstance(op, SignalOperator):
                got = op.signal(clip, fid)
                want = oracle.signal(op, clip, fid)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (name, fid)


@pytest.mark.parametrize("clip_name", sorted(CLIPS))
def test_consumed_frames_match_the_oracle_at_every_sampling_rate(clip_name):
    clip = _fresh_clip(clip_name)
    for fid in FIDELITIES[::3]:
        got = clip.consumed_index(fid)
        assert np.array_equal(got, oracle.consumed_index(clip, fid))
        assert not got.flags.writeable
