"""The per-store clip memo is invisible to everything built on top of it.

A :class:`~repro.video.content.ContentModel` keeps a bounded LRU of the
clips it built; a :class:`~repro.core.store.VStore` owns one model per
dataset and hands it to its ingest pipelines and query engines.  These
tests pin that memoized clips equal fresh ones bit for bit, cannot be
mutated, stay within the bound, are never shared between stores, and
that an aliased fleet ingests and plans exactly as with fresh models.
"""

import os
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.video.content as content_module
from repro.core.store import VStore
from repro.operators.library import default_library
from repro.query.cascade import QUERY_A
from repro.video.content import CLIP_MEMO_ENTRIES, ClipTruth
from repro.video.datasets import DATASETS, get_dataset

_ARRAYS = ("times", "visible", "xs", "ys", "moving", "activity")


def _assert_same_clip(a: ClipTruth, b: ClipTruth) -> None:
    assert (a.dataset, a.t0, a.fps, a.tracks) == (b.dataset, b.t0, b.fps,
                                                  b.tracks)
    for name in _ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes(), name


@settings(max_examples=40, deadline=None)
@given(
    dataset=st.sampled_from(sorted(DATASETS)),
    t0=st.floats(0.0, 900.0, allow_nan=False),
    duration=st.floats(0.05, 12.0, allow_nan=False),
    fps=st.sampled_from((2, 10, 30)),
)
def test_memoized_clip_is_bit_equal_to_a_fresh_build(dataset, t0, duration,
                                                     fps):
    model = get_dataset(dataset).content()
    first = model.clip(t0, duration, fps)
    again = model.clip(t0, duration, fps)
    assert again is first  # served from the memo
    fresh = ClipTruth.build(get_dataset(dataset).content(), t0, duration,
                            fps)
    _assert_same_clip(again, fresh)


def test_clip_arrays_and_tracks_are_read_only():
    clip = get_dataset("jackson").content().clip(0.0, 8.0)
    assert clip.tracks, "the window should hold some tracks"
    for name in _ARRAYS:
        array = getattr(clip, name)
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0
    assert isinstance(clip.tracks, tuple)
    # Derived masks are fresh arrays, never views a caller could use to
    # write through into the memoized clip.
    assert not np.shares_memory(clip.in_crop(0.5), clip.visible)


@settings(max_examples=30, deadline=None)
@given(requests=st.lists(st.integers(0, 9), min_size=1, max_size=60))
def test_lru_never_exceeds_its_bound_and_evicts_least_recent(requests):
    model = get_dataset("park").content()
    reference: "OrderedDict[tuple, None]" = OrderedDict()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(content_module, "CLIP_MEMO_ENTRIES", 4)
        for i in requests:
            key = (4.0 * i, 4.0, 2)
            model.clip(*key)
            reference[key] = None
            reference.move_to_end(key)
            if len(reference) > 4:
                reference.popitem(last=False)
            assert len(model._clips) <= 4
            assert list(model._clips) == list(reference)


def test_memo_holds_exactly_the_module_bound():
    model = get_dataset("airport").content()
    for i in range(CLIP_MEMO_ENTRIES + 9):
        model.clip(2.0 * i, 2.0, 2)
    assert len(model._clips) == CLIP_MEMO_ENTRIES
    # The oldest clips went first.
    assert min(key[0] for key in model._clips) == 2.0 * 9


LIBRARY = default_library(names=("Diff", "S-NN", "NN"))
STREAMS = tuple(f"cam{i:02d}" for i in range(4))
SEGMENTS = 6


@pytest.fixture(scope="module")
def configuration():
    with VStore(library=LIBRARY) as store:
        return store.configure()


def _fleet_store(workdir, configuration) -> VStore:
    store = VStore(workdir=workdir, library=LIBRARY, shards=2,
                   replication=2)
    store.adopt(configuration)
    for stream in STREAMS:
        store.ingest("jackson", SEGMENTS, stream=stream)
    return store


def test_stores_never_share_content_models(tmp_path, configuration):
    a = _fleet_store(str(tmp_path / "a"), configuration)
    b = VStore(workdir=str(tmp_path / "b"), library=LIBRARY)
    b.adopt(configuration)
    with a, b:
        model = a.content("jackson")
        assert model is a.content("jackson")
        assert model is not b.content("jackson")
        # Every pipeline and engine of a store uses the store's model ...
        assert all(p.content is model for p in a._pipelines.values())
        assert a.engine("jackson")._content is model
        executor = a.executor()
        assert executor._engine("jackson")._content is model
        # ... and none of b's does.
        b.ingest("jackson", 1)
        assert b._pipeline("jackson").content is b.content("jackson")
        assert b.engine("jackson")._content is not model
        assert b.executor()._engine("jackson")._content is not model


def test_aliased_fleet_is_byte_identical_to_fresh_models(tmp_path,
                                                         configuration,
                                                         monkeypatch):
    shared_dir, fresh_dir = str(tmp_path / "shared"), str(tmp_path / "fresh")
    builds = []
    original_build = ClipTruth.build.__func__

    def counting_build(cls, model, t0, duration, fps):
        builds.append((t0, duration, fps))
        return original_build(cls, model, t0, duration, fps)

    monkeypatch.setattr(ClipTruth, "build", classmethod(counting_build))
    with _fleet_store(shared_dir, configuration) as shared:
        engine = shared.engine("jackson")
        shared_plans = [engine.plan(QUERY_A, 0.9, shared.segments, 0.0,
                                    4.0 * SEGMENTS, stream=s)
                        for s in STREAMS]
        shared.flush()
    shared_builds = len(builds)

    # The pre-memo behaviour: every pipeline and engine gets a fresh model.
    monkeypatch.setattr(VStore, "content",
                        lambda self, dataset: get_dataset(dataset).content())
    builds.clear()
    with _fleet_store(fresh_dir, configuration) as fresh:
        engine = fresh.engine("jackson")
        fresh_plans = [engine.plan(QUERY_A, 0.9, fresh.segments, 0.0,
                                   4.0 * SEGMENTS, stream=s)
                       for s in STREAMS]
        fresh.flush()
        fresh_keys = sorted(fresh._kv.keys())
        fresh_values = [fresh._kv.get(k) for k in fresh_keys]
    # The aliased cameras re-used each other's clips.
    assert shared_builds < len(builds)

    with open(os.path.join(shared_dir, "segments.vstore"), "rb") as f:
        shared_log = f.read()
    with open(os.path.join(fresh_dir, "segments.vstore"), "rb") as f:
        fresh_log = f.read()
    assert shared_log == fresh_log
    with VStore(workdir=shared_dir, library=LIBRARY) as reopened:
        keys = sorted(reopened._kv.keys())
        assert keys == fresh_keys and len(keys) > 0
        assert [reopened._kv.get(k) for k in keys] == fresh_values
    assert repr(shared_plans) == repr(fresh_plans)
