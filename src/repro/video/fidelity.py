"""Fidelity knobs (Table 1) and the richer-than partial order (Section 2.3).

A *fidelity option* is a combination of four knob values:

* ``quality`` — image quality, the loss due to compression
  (``worst/bad/good/best``, the paper's CRF 50/40/23/0);
* ``crop`` — crop factor, the fraction of the frame's linear dimensions
  kept around the center (50%, 75%, 100%);
* ``resolution`` — named resolution ("60p" ... "720p", ten values);
* ``sampling`` — frame sampling rate as a fraction of the ingest frame
  rate (1/30, 1/6, 1/2, 2/3, 1).

Between two options the paper defines a *richer-than* partial order:
X is richer than Y iff X is at least as rich on every knob and strictly
richer on at least one.  Video can only be degraded along this order (R1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import FidelityError, KnobError

#: Image-quality levels, poorest first, with the equivalent x264 CRF value.
QUALITIES: Tuple[str, ...] = ("worst", "bad", "good", "best")
QUALITY_CRF: Dict[str, int] = {"worst": 50, "bad": 40, "good": 23, "best": 0}

#: Crop factors: fraction of each linear dimension kept around the center.
CROP_FACTORS: Tuple[float, ...] = (0.50, 0.75, 1.00)

#: Named resolutions and their pixel dimensions (width, height).  The small
#: resolutions are square analysis frames as in the paper's Figure 8; 720p is
#: the 16:9 ingest resolution.  Heights are strictly increasing and so are
#: pixel counts, which keeps the richer-than order consistent with cost.
RESOLUTIONS: Dict[str, Tuple[int, int]] = {
    "60p": (60, 60),
    "100p": (100, 100),
    "144p": (144, 144),
    "180p": (180, 180),
    "200p": (200, 200),
    "360p": (360, 360),
    "400p": (400, 400),
    "540p": (540, 540),
    "600p": (600, 600),
    "720p": (1280, 720),
}

#: Resolution names ordered poorest to richest.
RESOLUTION_ORDER: Tuple[str, ...] = tuple(RESOLUTIONS)

#: Frame sampling rates, sparsest first (fractions of the ingest frame rate).
SAMPLING_RATES: Tuple[Fraction, ...] = (
    Fraction(1, 30),
    Fraction(1, 6),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(1, 1),
)

#: Frame rate of every ingested stream (720p at 30 fps, Section 6.1).
INGEST_FPS = 30


def _index(seq: Tuple, value, knob: str) -> int:
    try:
        return seq.index(value)
    except ValueError:
        raise KnobError(f"illegal value {value!r} for knob {knob!r}") from None


def sampling_from_str(text: str) -> Fraction:
    """Parse a sampling rate written as in the paper, e.g. ``"1/30"`` or ``"1"``."""
    return Fraction(text)


@dataclass(frozen=True, eq=False)
class Fidelity:
    """One fidelity option: a value for each of the four fidelity knobs.

    Fidelities are hot dictionary keys during configuration, so the knob
    indices, the hash, ``fps`` and ``label`` are computed once here.  The
    cached hash is the hash of the field tuple (what a plain frozen
    dataclass computes), so set and dict ordering are unchanged; equality
    compares the knob indices, which is equivalent to comparing fields
    because every field must equal one value of its knob's domain.
    """

    quality: str
    resolution: str
    sampling: Fraction
    crop: float

    def __post_init__(self) -> None:
        idx = (
            _index(QUALITIES, self.quality, "quality"),
            _index(RESOLUTION_ORDER, self.resolution, "resolution"),
            _index(SAMPLING_RATES, self.sampling, "sampling"),
            _index(CROP_FACTORS, self.crop, "crop"),
        )
        put = object.__setattr__  # the dataclass is frozen
        put(self, "_idx", idx)
        put(self, "_hash",
            hash((self.quality, self.resolution, self.sampling, self.crop)))
        put(self, "_fps", float(INGEST_FPS * self.sampling))
        put(self, "_label", f"{self.quality}-{self.resolution}-"
                            f"{self.sampling}-{int(self.crop * 100)}%")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._idx == other._idx

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__ so an unpickled copy recomputes its
        # hash (string hashes differ between interpreter processes).
        return (self.__class__,
                (self.quality, self.resolution, self.sampling, self.crop))

    # -- knob index helpers (poorest value has index 0) --------------------

    @property
    def quality_idx(self) -> int:
        return self._idx[0]

    @property
    def resolution_idx(self) -> int:
        return self._idx[1]

    @property
    def sampling_idx(self) -> int:
        return self._idx[2]

    @property
    def crop_idx(self) -> int:
        return self._idx[3]

    # -- derived quantities -------------------------------------------------

    @property
    def dimensions(self) -> Tuple[int, int]:
        """Pixel dimensions (width, height) after resizing and cropping."""
        w, h = RESOLUTIONS[self.resolution]
        return (int(round(w * self.crop)), int(round(h * self.crop)))

    @property
    def pixels(self) -> int:
        """Pixels per frame after resolution and crop are applied."""
        w, h = self.dimensions
        return w * h

    @property
    def fps(self) -> float:
        """Frames per second after sampling the 30 fps ingest stream."""
        return self._fps

    @property
    def crf(self) -> int:
        """The x264 CRF equivalent of this option's image quality."""
        return QUALITY_CRF[self.quality]

    # -- partial order -------------------------------------------------------

    def richer_equal(self, other: "Fidelity") -> bool:
        """True iff self is richer than or equal to ``other`` on every knob."""
        return all(a >= b for a, b in zip(self._idx, other._idx))

    def richer_than(self, other: "Fidelity") -> bool:
        """Strict richer-than: richer-or-equal everywhere, strictly on one knob."""
        return self.richer_equal(other) and self != other

    def comparable(self, other: "Fidelity") -> bool:
        """True iff the two options are ordered by richer-than (either way)."""
        return self.richer_equal(other) or other.richer_equal(self)

    def degrade_to(self, other: "Fidelity") -> "Fidelity":
        """Check that ``other`` is reachable by degradation and return it.

        Degradation (resize, crop, drop frames, re-quantize) can only move
        *down* the richer-than order; anything else raises
        :class:`~repro.errors.FidelityError` (requirement R1).
        """
        if not self.richer_equal(other):
            raise FidelityError(f"cannot degrade {self} to non-poorer {other}")
        return other

    # -- presentation --------------------------------------------------------

    @property
    def label(self) -> str:
        """Paper-style label, e.g. ``best-720p-1-100%``."""
        return self._label

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label

    @classmethod
    def parse(cls, label: str) -> "Fidelity":
        """Parse a label produced by :attr:`label`."""
        parts = label.split("-")
        if len(parts) != 4:
            raise KnobError(f"malformed fidelity label: {label!r}")
        quality, resolution, sampling, crop = parts
        if not crop.endswith("%"):
            raise KnobError(f"malformed crop in fidelity label: {label!r}")
        return cls(
            quality=quality,
            resolution=resolution,
            sampling=Fraction(sampling),
            crop=float(crop[:-1]) / 100.0,
        )


#: Knob-index flyweights: one shared :class:`Fidelity` per combination of
#: knob indices, at the position :func:`fidelity_space` enumerates it,
#: built on first lookup.
_FLYWEIGHTS: List[Optional[Fidelity]] = [None] * (
    len(QUALITIES) * len(RESOLUTION_ORDER) * len(SAMPLING_RATES)
    * len(CROP_FACTORS))


def fidelity_at(quality_idx: int, resolution_idx: int, sampling_idx: int,
                crop_idx: int) -> Fidelity:
    """The shared fidelity with these knob indices (poorest value is 0).

    Equal to (and hashing like) ``Fidelity(...)`` spelled with the knob
    values; repeated lookups return the very same object, so hot loops
    that move through the space by index never build a fidelity twice.
    """
    if not (0 <= quality_idx < len(QUALITIES)
            and 0 <= resolution_idx < len(RESOLUTION_ORDER)
            and 0 <= sampling_idx < len(SAMPLING_RATES)
            and 0 <= crop_idx < len(CROP_FACTORS)):
        raise KnobError(
            f"knob indices out of range: quality={quality_idx}, "
            f"resolution={resolution_idx}, sampling={sampling_idx}, "
            f"crop={crop_idx}")
    pos = ((quality_idx * len(RESOLUTION_ORDER) + resolution_idx)
           * len(SAMPLING_RATES) + sampling_idx) * len(CROP_FACTORS) + crop_idx
    fid = _FLYWEIGHTS[pos]
    if fid is None:
        fid = _FLYWEIGHTS[pos] = Fidelity(
            QUALITIES[quality_idx], RESOLUTION_ORDER[resolution_idx],
            SAMPLING_RATES[sampling_idx], CROP_FACTORS[crop_idx])
    return fid


def fidelity_space() -> Iterator[Fidelity]:
    """Iterate the full 4-D fidelity space F (600 options)."""
    for idx in product(range(len(QUALITIES)), range(len(RESOLUTION_ORDER)),
                       range(len(SAMPLING_RATES)), range(len(CROP_FACTORS))):
        yield fidelity_at(*idx)


def richest_fidelity() -> Fidelity:
    """The knob-wise maximum of the whole space (the ingest format)."""
    return fidelity_at(len(QUALITIES) - 1, len(RESOLUTION_ORDER) - 1,
                       len(SAMPLING_RATES) - 1, len(CROP_FACTORS) - 1)


def knobwise_max(options: Sequence[Fidelity]) -> Fidelity:
    """The knob-wise maximum fidelity of ``options`` (used when coalescing).

    The result is the cheapest fidelity that is richer than or equal to every
    input, i.e. the join in the richer-than lattice.
    """
    if not options:
        raise FidelityError("knobwise_max of an empty set")
    return fidelity_at(*map(max, zip(*(f._idx for f in options))))


def knob_counts() -> Dict[str, int]:
    """Number of possible values per fidelity knob (for overhead analysis)."""
    return {
        "quality": len(QUALITIES),
        "resolution": len(RESOLUTION_ORDER),
        "sampling": len(SAMPLING_RATES),
        "crop": len(CROP_FACTORS),
    }


def fidelity_space_size() -> int:
    """|F| — the number of fidelity options (600 in this reproduction)."""
    sizes = knob_counts().values()
    total = 1
    for n in sizes:
        total *= n
    return total


def downgrades_of(fid: Fidelity) -> List[Fidelity]:
    """All options poorer than or equal to ``fid`` (its down-set in F)."""
    return [f for f in fidelity_space() if fid.richer_equal(f)]
