"""Waveform-type decision from scan-trace envelope features.

Time-invariant signals give clean pulses, frequency-modulated signals give
envelopes filled with random power values; filled envelopes are continuous
for chirps and discrete for hop sequences. Counting envelopes separates
single- from multiple-frequency inputs.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np
# not scipy: the profile is smoothed by scan_engine.running_mean, so
# classifying loads nothing beyond what the scan itself loads

from .scan_engine import ScanTrace, _above_threshold_runs, running_mean

__all__ = ["EnvelopeFeatures", "ClassLabel", "compute_features", "classify"]

# An envelope whose fill_randomness reaches this is filled (modulated). Clean
# pulses stay below half of it and filled envelopes above twice it.
FILL_THRESHOLD = 0.25


class ClassLabel(Enum):
    SINGLE_FREQUENCY = "single"
    MULTIPLE_FREQUENCY = "multiple"
    CHIRPED = "chirped"
    FREQUENCY_HOPPING = "hopping"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class EnvelopeFeatures:
    n_envelopes: int
    filled: bool
    continuous: bool | None  # None when not filled (not meaningful)


def _is_continuous(trace: ScanTrace) -> bool:
    """Check the filled region for sustained dips below half the envelope.

    Works on a pulse-width-smoothed profile so the random fill itself does
    not read as gaps; only scan stretches with no nearby component leave a
    sub-half-level hole of one nominal pulse width or more.
    """
    size = max(3, int(round(trace.pulse_width_hint * trace.grid.sample_rate)))
    smooth = running_mean(trace.power, size)
    floor = trace.level.floor
    half = floor + 0.5 * (float(np.max(smooth)) - floor)
    starts, stops = _above_threshold_runs(smooth >= half)
    max_gap = np.max(starts[1:] - stops[:-1], initial=0)
    return bool(max_gap * trace.grid.dt < trace.pulse_width_hint)


def compute_features(events, trace: ScanTrace) -> EnvelopeFeatures:
    """Envelope features for classification.

    events must come from detect_pulses on the same trace. An envelope is
    filled when its fill_randomness reaches FILL_THRESHOLD; a filled region
    with an internal sub-half-level hole of one nominal pulse width or more
    counts as discrete, otherwise as continuous.
    """
    n = len(events)
    filled = any(ev.fill_randomness >= FILL_THRESHOLD for ev in events)
    continuous = _is_continuous(trace) if filled else None
    return EnvelopeFeatures(n_envelopes=n, filled=filled, continuous=continuous)


def classify(features: EnvelopeFeatures) -> ClassLabel:
    """Decision table: fill separates modulated from static, then envelope
    count (static) or continuity (modulated) picks the type."""
    if features.n_envelopes == 0:
        return ClassLabel.UNKNOWN
    if not features.filled:
        if features.n_envelopes == 1:
            return ClassLabel.SINGLE_FREQUENCY
        return ClassLabel.MULTIPLE_FREQUENCY
    if features.continuous:
        return ClassLabel.CHIRPED
    return ClassLabel.FREQUENCY_HOPPING
