"""Configuration does each piece of per-knob work once: a count, not a clock.

Profiling probes combine a clip's knob views and the consumption search
walks the fidelity space through the knob-indexed flyweights.  These
tests count the work behind both during ``derive_configuration`` on the
full Table-2 library, so a change that moves a view back into the
per-probe path fails deterministically instead of showing up only as a
slower benchmark.
"""

from __future__ import annotations

import sys
from collections import Counter

import repro.codec.tables as tables
import repro.video.content as content
import repro.video.fidelity as fidelity
from repro.core.config import derive_configuration
from repro.operators.library import default_library
from repro.video.content import ClipTruth
from repro.video.fidelity import CROP_FACTORS, SAMPLING_RATES, Fidelity


def test_knob_views_are_built_once_per_profiling_clip(monkeypatch):
    crops: Counter = Counter()
    coverings = []
    in_crop, propagation_map = ClipTruth.in_crop, content.propagation_map

    def counting_in_crop(self, crop):
        crops[(id(self), crop)] += 1
        return in_crop(self, crop)

    def counting_propagation_map(n_frames, consumed):
        coverings.append(len(consumed))
        return propagation_map(n_frames, consumed)

    monkeypatch.setattr(ClipTruth, "in_crop", counting_in_crop)
    # Count the map wherever a module imported it by name.
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and getattr(module, "propagation_map", None)
                is propagation_map):
            monkeypatch.setattr(module, "propagation_map",
                                counting_propagation_map)
    profilers = {}
    derive_configuration(default_library(), profilers=profilers)

    clips = {id(p.clip) for p in profilers.values()}
    assert len(clips) == 2  # jackson and dashcam
    assert crops, "the guard must see the crop masks being built"
    assert {clip for clip, _ in crops} <= clips
    assert max(crops.values()) == 1
    assert len(crops) <= len(clips) * len(CROP_FACTORS)
    assert coverings, "the guard must see the propagation maps being built"
    assert len(coverings) <= len(clips) * len(SAMPLING_RATES)


def test_configure_builds_no_fidelity_outside_the_flyweight_table(
        monkeypatch):
    built = []
    post_init = Fidelity.__post_init__

    def counting_post_init(self):
        post_init(self)
        built.append(self)

    # A fresh table cache makes this derivation pay the ProfileTable build.
    monkeypatch.setattr(tables, "_TABLE_CACHE", {})
    monkeypatch.setattr(Fidelity, "__post_init__", counting_post_init)
    table = fidelity._FLYWEIGHTS
    before = sum(f is not None for f in table)
    derive_configuration(default_library())
    added = sum(f is not None for f in table) - before
    # Every fidelity built during configuration is a new flyweight entry.
    assert len(built) == added
    assert all(any(f is g for g in table) for f in built)
