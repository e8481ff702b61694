"""Hash-once value objects keep plain frozen-dataclass semantics.

``Fidelity``, ``Coding``, ``StorageFormat`` and ``Demand`` compute their
hash (and ``Fidelity`` its knob indices, fps and label) once at
construction.  These tests pin that the cached values are exactly what a
plain frozen dataclass computes, over the whole 600-fidelity x 26-coding
space, so no set or dict ordering and no equality verdict can change.
"""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from urllib.parse import quote

import pytest
from hypothesis import given, strategies as st

import repro
from repro.core.coalesce import Demand
from repro.errors import KnobError
from repro.operators.library import Consumer
from repro.storage.segment_store import _fmt_key, _parse_fmt
from repro.video.coding import RAW, Coding, coding_space
from repro.video.fidelity import (
    CROP_FACTORS,
    INGEST_FPS,
    QUALITIES,
    RESOLUTION_ORDER,
    SAMPLING_RATES,
    Fidelity,
    fidelity_at,
    fidelity_space,
    knobwise_max,
    richest_fidelity,
)
from repro.video.format import StorageFormat

FIDELITIES = list(fidelity_space())
CODINGS = list(coding_space())


def _fields(f: Fidelity):
    return (f.quality, f.resolution, f.sampling, f.crop)


def test_space_sizes():
    assert len(FIDELITIES) == 600
    assert len(CODINGS) == 26


def test_fidelity_hash_eq_and_derived_values_match_fields():
    for f in FIDELITIES:
        assert hash(f) == hash(_fields(f))
        assert f.fps == float(INGEST_FPS * f.sampling)
        assert f.label == (f"{f.quality}-{f.resolution}-{f.sampling}"
                           f"-{int(f.crop * 100)}%")
        assert (f.quality_idx, f.resolution_idx, f.sampling_idx,
                f.crop_idx) == (QUALITIES.index(f.quality),
                                RESOLUTION_ORDER.index(f.resolution),
                                SAMPLING_RATES.index(f.sampling),
                                CROP_FACTORS.index(f.crop))
        parsed = Fidelity.parse(f.label)
        assert parsed == f and hash(parsed) == hash(f)
        assert _fields(parsed) == _fields(f)


def test_fidelity_equality_agrees_with_field_equality_pairwise():
    keyed = [(f, _fields(f)) for f in FIDELITIES]
    for a, fa in keyed:
        for b, fb in keyed:
            assert (a == b) is (fa == fb)
            assert (a != b) is (fa != fb)


def test_coding_and_storage_format_over_the_full_space():
    for c in CODINGS:
        assert hash(c) == hash((c.speed_step, c.keyframe_interval, c.raw))
        parsed = Coding.parse(c.label)
        assert parsed == c and hash(parsed) == hash(c)
    for c in CODINGS:
        for d in CODINGS:
            assert (c == d) is ((c.speed_step, c.keyframe_interval, c.raw)
                                == (d.speed_step, d.keyframe_interval, d.raw))
    for f in FIDELITIES:
        for c in CODINGS:
            fmt = StorageFormat(f, c)
            assert hash(fmt) == hash((f, c))
            assert fmt == StorageFormat(Fidelity.parse(f.label),
                                        Coding.parse(c.label))
            fresh = f"{quote(f.label, safe='')} {quote(c.label, safe='')}"
            assert _fmt_key(fmt) == fresh
            assert _fmt_key(fmt) == fresh  # the cached copy, second call
            parsed = _parse_fmt(_fmt_key(fmt))
            assert parsed == fmt and hash(parsed) == hash(fmt)


def test_set_and_dict_order_is_the_field_tuple_order():
    # Equal hashes on the field tuples make iteration order identical.
    assert [_fields(f) for f in set(FIDELITIES)] == list(
        set(_fields(f) for f in FIDELITIES))
    fmts = [StorageFormat(f, c) for f in FIDELITIES[::7] for c in CODINGS]
    assert [(_fields(s.fidelity), s.coding.label) for s in set(fmts)] == [
        (_fields(f), c.label) for f, c in set(
            (s.fidelity, s.coding) for s in fmts)]


# Numerically equal spellings of knob values: crop=1 vs 1.0, float and
# int sampling vs Fraction.
_CROPS = {1.0: (1, 1.0, Fraction(1)), 0.5: (0.5, Fraction(1, 2)),
          0.75: (0.75, Fraction(3, 4))}
_SAMPLINGS = {s: (s, float(s)) + ((1,) if s == 1 else ())
              for s in SAMPLING_RATES if float(s) == s}


@given(
    fid=st.sampled_from(FIDELITIES),
    crop_pick=st.integers(0, 2),
    sampling_pick=st.integers(0, 2),
)
def test_equal_spellings_are_equal_with_one_hash(fid, crop_pick,
                                                 sampling_pick):
    crops = _CROPS[fid.crop]
    samplings = _SAMPLINGS.get(fid.sampling, (fid.sampling,))
    crop = crops[crop_pick % len(crops)]
    sampling = samplings[sampling_pick % len(samplings)]
    other = Fidelity(fid.quality, fid.resolution, sampling, crop)
    assert other == fid and hash(other) == hash(fid)
    assert hash(other) == hash(_fields(other))
    assert other.richer_equal(fid) and fid.richer_equal(other)
    parsed = Fidelity.parse(other.label)
    assert parsed == other and hash(parsed) == hash(other)


def test_flyweight_lookups_share_one_object_per_knob_index():
    for f in FIDELITIES:
        idx = (f.quality_idx, f.resolution_idx, f.sampling_idx, f.crop_idx)
        shared = fidelity_at(*idx)
        assert fidelity_at(*idx) is shared
        assert shared is f  # fidelity_space enumerates the flyweights
        spelled = Fidelity(QUALITIES[idx[0]], RESOLUTION_ORDER[idx[1]],
                           SAMPLING_RATES[idx[2]], CROP_FACTORS[idx[3]])
        assert spelled is not shared
        assert spelled == shared and hash(spelled) == hash(shared)
        assert _fields(spelled) == _fields(shared)
        assert {spelled: 1}[shared] == 1


def test_space_helpers_return_flyweights():
    richest = richest_fidelity()
    assert richest is richest_fidelity() is FIDELITIES[-1]
    assert richest.label == "best-720p-1-100%"
    a = Fidelity.parse("good-200p-1/6-100%")
    b = Fidelity.parse("bad-540p-1/30-50%")
    joined = knobwise_max([a, b])
    assert joined == Fidelity.parse("good-540p-1/6-100%")
    assert joined is fidelity_at(joined.quality_idx, joined.resolution_idx,
                                 joined.sampling_idx, joined.crop_idx)


@pytest.mark.parametrize("idx", [
    (4, 0, 0, 0), (0, 10, 0, 0), (0, 0, 5, 0), (0, 0, 0, 3),
    (-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1),
])
def test_flyweight_lookup_rejects_out_of_range_indices(idx):
    with pytest.raises(KnobError):
        fidelity_at(*idx)


def test_pickled_flyweight_equals_the_shared_object():
    for f in FIDELITIES[::41]:
        loaded = pickle.loads(pickle.dumps(f))
        assert loaded == f and hash(loaded) == hash(f)
        assert loaded is not f


def test_demand_hash_is_its_field_tuple_hash():
    consumer = Consumer("NN", 0.9)
    for f in FIDELITIES[::37]:
        for legacy in (False, True):
            d = Demand(consumer, f, 12.5, legacy)
            assert hash(d) == hash((consumer, f, 12.5, legacy))
            assert d == Demand(Consumer("NN", 0.9), Fidelity.parse(f.label),
                               12.5, legacy)
            assert d != Demand(consumer, f, 12.5, not legacy)


@pytest.mark.parametrize("kwargs", [
    dict(quality="ok", resolution="720p", sampling=Fraction(1), crop=1.0),
    dict(quality="best", resolution="1080p", sampling=Fraction(1), crop=1.0),
    dict(quality="best", resolution="720p", sampling=Fraction(1, 3),
         crop=1.0),
    dict(quality="best", resolution="720p", sampling=Fraction(1), crop=0.6),
    dict(quality="best", resolution="720p", sampling=Fraction(1), crop="1"),
    dict(quality="best", resolution="720p", sampling=[1], crop=1.0),
])
def test_invalid_fidelity_knobs_still_raise(kwargs):
    with pytest.raises(KnobError):
        Fidelity(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(speed_step="warp", keyframe_interval=5),
    dict(speed_step="fast", keyframe_interval=7),
    dict(speed_step=None, keyframe_interval=None),
    dict(speed_step="fast", keyframe_interval=None, raw=True),
    dict(speed_step=None, keyframe_interval=5, raw=True),
])
def test_invalid_coding_knobs_still_raise(kwargs):
    with pytest.raises(KnobError):
        Coding(**kwargs)


def test_copies_recompute_their_hash_in_another_process():
    # String hashes are salted per process; a pickled value must rebuild
    # its cached hash (and drop its cached store key) when loaded.
    script = (
        "import pickle, sys\n"
        "from repro.video.fidelity import fidelity_space\n"
        "from repro.video.coding import RAW\n"
        "from repro.video.format import StorageFormat\n"
        "from repro.storage.segment_store import _fmt_key\n"
        "fmt = StorageFormat(next(iter(fidelity_space())), RAW)\n"
        "_fmt_key(fmt)\n"
        "sys.stdout.buffer.write(pickle.dumps(fmt))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=src)
    blob = subprocess.run([sys.executable, "-c", script], env=env,
                          check=True, capture_output=True).stdout
    loaded = pickle.loads(blob)
    fresh = StorageFormat(FIDELITIES[0], RAW)
    assert loaded == fresh
    assert hash(loaded) == hash(fresh) == hash((fresh.fidelity, RAW))
    assert hash(loaded.fidelity) == hash(_fields(fresh.fidelity))
    assert "_segment_key" not in vars(loaded)
    assert {loaded: 1}[fresh] == 1
