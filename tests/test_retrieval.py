"""Retrieval: speed estimates (R2) and the streaming reader."""

from fractions import Fraction

import pytest

from repro.clock import SimClock
from repro.codec.encoder import Encoder
from repro.errors import StorageError
from repro.retrieval.reader import SegmentReader
from repro.retrieval.speed import retrieval_speed
from repro.storage.kvstore import KVStore
from repro.storage.segment_store import SegmentStore
from repro.storage.sharding import ShardedDiskArray
from repro.video.coding import Coding, RAW
from repro.video.fidelity import Fidelity
from repro.video.format import StorageFormat
from repro.video.segment import Segment

ENCODED = StorageFormat(Fidelity.parse("good-540p-1-100%"), Coding("fast", 10))
RAW_FMT = StorageFormat(Fidelity.parse("best-200p-1-100%"), RAW)


class TestSpeedEstimates:
    def test_encoded_is_decode_bound(self):
        # Decoding tens of MB/s vs a GB/s disk: the decoder dictates speed.
        from repro.codec.model import DEFAULT_CODEC
        speed = retrieval_speed(ENCODED)
        assert speed == pytest.approx(
            DEFAULT_CODEC.decode_speed(ENCODED.fidelity, ENCODED.coding)
        )

    def test_raw_is_disk_bound(self):
        speed = retrieval_speed(RAW_FMT)
        assert speed > 300  # bandwidth-bound, far beyond decoder speeds

    def test_sparse_consumer_speeds_up_both_paths(self):
        for fmt in (ENCODED, RAW_FMT):
            dense = retrieval_speed(fmt, Fraction(1))
            sparse = retrieval_speed(fmt, Fraction(1, 30))
            assert sparse > dense

    def test_raw_range_matches_table3(self):
        """Table 3b: raw formats span a huge retrieval range because
        sampled frames are read individually."""
        dense = retrieval_speed(RAW_FMT, Fraction(1))
        sparse = retrieval_speed(RAW_FMT, Fraction(1, 30))
        assert sparse / dense > 5


class TestReader:
    @pytest.fixture()
    def store(self, tmp_path):
        kv = KVStore(str(tmp_path / "seg.log"))
        store = SegmentStore(kv, ShardedDiskArray(1, clock=SimClock()))
        enc = Encoder(clock=SimClock())
        for fmt in (ENCODED, RAW_FMT):
            for i in range(3):
                store.put(enc.encode(Segment("cam", i), fmt, 0.4))
        yield store
        kv.close()

    def test_rejects_unsupplyable_fidelity(self, store):
        rich = Fidelity.parse("best-720p-1-100%")
        with pytest.raises(StorageError):
            SegmentReader(store, ENCODED, rich)

    def test_encoded_read_charges_decode(self, store):
        clock = SimClock()
        reader = SegmentReader(store, ENCODED,
                               Fidelity.parse("good-540p-1-100%"),
                               clock=clock)
        out = reader.read("cam", 0)
        assert out.n_frames == 240  # 8 s at 30 fps
        assert clock.spent("decode") == pytest.approx(out.retrieval_seconds)

    def test_encoded_sparse_read_skips_chunks(self, store):
        clock = SimClock()
        dense = SegmentReader(store, ENCODED,
                              Fidelity.parse("good-540p-1-100%"),
                              clock=SimClock()).read("cam", 0)
        sparse = SegmentReader(store, ENCODED,
                               Fidelity.parse("good-540p-1/30-100%"),
                               clock=clock).read("cam", 0)
        assert sparse.n_frames == 8
        assert sparse.retrieval_seconds < dense.retrieval_seconds / 3

    def test_raw_read_charges_disk(self, store):
        clock = SimClock()
        reader = SegmentReader(store, RAW_FMT,
                               Fidelity.parse("best-200p-1-100%"),
                               clock=clock)
        out = reader.read("cam", 1)
        assert clock.spent("disk") == pytest.approx(out.retrieval_seconds)
        assert out.n_frames == 240

    def test_raw_sparse_read_is_cheap(self, store):
        dense = SegmentReader(store, RAW_FMT,
                              Fidelity.parse("best-200p-1-100%"),
                              clock=SimClock()).read("cam", 0)
        sparse = SegmentReader(store, RAW_FMT,
                               Fidelity.parse("best-200p-1/30-100%"),
                               clock=SimClock()).read("cam", 0)
        assert sparse.retrieval_seconds < dense.retrieval_seconds

    def test_read_range_streams_in_order(self, store):
        reader = SegmentReader(store, ENCODED,
                               Fidelity.parse("good-540p-1/6-100%"),
                               clock=SimClock())
        out = list(reader.read_range("cam", [0, 1, 2]))
        assert [o.stored.index for o in out] == [0, 1, 2]

    def test_missing_segment_raises(self, store):
        reader = SegmentReader(store, ENCODED,
                               Fidelity.parse("good-540p-1-100%"),
                               clock=SimClock())
        with pytest.raises(StorageError):
            reader.read("cam", 99)


class TestBatchAssessParity:
    """The vectorized batch pass must be *bit-identical* to per-segment
    assess — the planner's costs (and therefore the golden traces) ride
    on it."""

    @pytest.fixture()
    def store(self, tmp_path):
        kv = KVStore(str(tmp_path / "seg.log"))
        store = SegmentStore(kv, ShardedDiskArray(1, clock=SimClock()))
        enc = Encoder(clock=SimClock())
        for fmt in (ENCODED, RAW_FMT):
            for i in range(5):
                store.put(enc.encode(Segment("cam", i), fmt, 0.4))
        yield store
        kv.close()

    @pytest.mark.parametrize("fmt,consumer", [
        (ENCODED, "good-540p-1-100%"),
        (ENCODED, "good-540p-1/6-100%"),
        (ENCODED, "good-540p-1/30-100%"),
        (RAW_FMT, "best-200p-1-100%"),
        (RAW_FMT, "best-200p-1/30-100%"),
    ])
    def test_assess_many_matches_scalar(self, store, fmt, consumer):
        reader = SegmentReader(store, fmt, Fidelity.parse(consumer),
                               clock=SimClock())
        indices = [0, 1, 2, 3, 4]
        batch = reader.assess_many("cam", indices)
        for index, clip in zip(indices, batch):
            one = reader.assess("cam", index)
            assert clip.n_frames == one.n_frames
            # bit-identical, not approx: the executor schedules on these
            assert clip.retrieval_seconds == one.retrieval_seconds
            assert clip.stored.index == one.stored.index

    def test_assess_many_empty(self, store):
        reader = SegmentReader(store, ENCODED,
                               Fidelity.parse("good-540p-1-100%"),
                               clock=SimClock())
        assert reader.assess_many("cam", []) == []

    def test_assess_cached_many_matches_scalar(self, store):
        from repro.cache.plane import CachePlane

        reader = SegmentReader(store, RAW_FMT,
                               Fidelity.parse("best-200p-1/30-100%"),
                               clock=SimClock(), cache=CachePlane())
        indices = [0, 1, 2]
        batch = reader.assess_cached_many("cam", indices)
        for index, (clip, access) in zip(indices, batch):
            one_clip, one_access = reader.assess_cached("cam", index)
            assert clip.retrieval_seconds == one_clip.retrieval_seconds
            assert access.key == one_access.key
            assert access.hit == one_access.hit
            assert access.full_seconds == one_access.full_seconds
            assert access.hit_seconds == one_access.hit_seconds
            assert access.nbytes == one_access.nbytes
