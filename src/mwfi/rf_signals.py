"""Microwave emitter scenarios and their instantaneous spectral content.

Signals are represented quasi-statically: at any instant a scenario reduces
to a finite set of (frequency, amplitude) components. Detected power in the
rest of the toolkit depends only on the detuning between these component
frequencies and the filter frequencies, so RF carriers are never sampled.
"""

from dataclasses import dataclass, field
import math

import numpy as np

__all__ = [
    "TimeGrid",
    "ToneSpec",
    "ChirpSpec",
    "HopSpec",
    "RfScenario",
    "SpectralSnapshot",
    "instantaneous_components",
    "sample_track",
    "component_tracks",
    "component_powers",
    "sole_component_freq",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid: times are t0 + k/sample_rate for k in [0, n_samples)."""

    sample_rate: float  # samples/s
    n_samples: int
    t0: float = 0.0

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be > 0")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate

    @property
    def duration(self) -> float:
        return self.n_samples * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n_samples) / self.sample_rate


@dataclass(frozen=True)
class ToneSpec:
    """Always-on single tone."""

    freq: float  # Hz
    amplitude: float = 1.0  # linear field scale; power contribution is amplitude**2

    def __post_init__(self):
        if self.freq <= 0:
            raise ValueError("tone frequency must be > 0")
        if self.amplitude < 0:
            raise ValueError("tone amplitude must be >= 0")


@dataclass(frozen=True)
class ChirpSpec:
    """Linearly frequency-modulated pulse train.

    Within each repeat interval the instantaneous frequency ramps across
    [center - span/2, center + span/2] during pulse_width, then the emitter
    is off until the next repeat.
    """

    center: float  # Hz
    span: float  # Hz
    pulse_width: float  # s
    repeat_interval: float  # s
    amplitude: float = 1.0
    direction: str = "up"  # "up" or "down"

    def __post_init__(self):
        if self.span <= 0:
            raise ValueError("chirp span must be > 0")
        if not (0 < self.pulse_width <= self.repeat_interval):
            raise ValueError("need 0 < pulse_width <= repeat_interval")
        if self.direction not in ("up", "down"):
            raise ValueError("direction must be 'up' or 'down'")

    def inst_freq(self, phase: np.ndarray) -> np.ndarray:
        """Instantaneous frequency for in-pulse phase offsets (0 <= phase < pulse_width)."""
        ramp = self.span * phase / self.pulse_width
        if self.direction == "up":
            return self.center - self.span / 2.0 + ramp
        return self.center + self.span / 2.0 - ramp


@dataclass(frozen=True)
class HopSpec:
    """Frequency-hopping sequence with fixed dwell per entry.

    A sample exactly on a dwell boundary belongs to the later dwell
    (half-open dwell windows).
    """

    freqs: tuple  # Hz, ordered
    dwell: float  # s
    amplitude: float = 1.0
    start: float = 0.0
    repeat: bool = True

    def __post_init__(self):
        object.__setattr__(self, "freqs", tuple(float(f) for f in self.freqs))
        if not self.freqs:
            raise ValueError("hop sequence needs at least one frequency")
        if any(f <= 0 for f in self.freqs):
            raise ValueError("hop frequencies must be > 0")
        if self.dwell <= 0:
            raise ValueError("dwell must be > 0")


@dataclass(frozen=True)
class RfScenario:
    """A set of emitters active on a common timeline."""

    tones: tuple = ()
    chirps: tuple = ()
    hops: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "tones", tuple(self.tones))
        object.__setattr__(self, "chirps", tuple(self.chirps))
        object.__setattr__(self, "hops", tuple(self.hops))

    @property
    def n_emitters(self) -> int:
        return len(self.tones) + len(self.chirps) + len(self.hops)


@dataclass(frozen=True)
class SpectralSnapshot:
    """Active (frequency, amplitude) pairs at one instant, identical freqs merged."""

    components: tuple  # of (freq_hz, amplitude)

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))


def _merge_components(pairs):
    """Merge equal frequencies; amplitudes combine on a power basis."""
    merged = {}
    for f, a in pairs:
        if f in merged:
            merged[f] = math.hypot(merged[f], a)
        else:
            merged[f] = a
    return tuple(sorted(merged.items()))


def instantaneous_components(scenario: RfScenario, t: float) -> SpectralSnapshot:
    """Spectral content of a scenario at time t.

    Tones are always on. A chirp contributes its ramp frequency while
    t mod repeat_interval < pulse_width. A hop contributes the frequency of
    the dwell containing t.

    This is the scalar oracle API: the engines and the harness use the
    vectorised component_tracks and sole_component_freq, and the tests
    check those against this function sample by sample.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    pairs = [(tone.freq, tone.amplitude) for tone in scenario.tones]
    for chirp in scenario.chirps:
        phase = t - chirp.repeat_interval * math.floor(t / chirp.repeat_interval)
        if phase < chirp.pulse_width:
            f = float(chirp.inst_freq(np.asarray(phase)))
            pairs.append((f, chirp.amplitude))
    for hop in scenario.hops:
        if t >= hop.start:
            idx = math.floor((t - hop.start) / hop.dwell)
            if hop.repeat:
                pairs.append((hop.freqs[idx % len(hop.freqs)], hop.amplitude))
            elif idx < len(hop.freqs):
                pairs.append((hop.freqs[idx], hop.amplitude))
    return SpectralSnapshot(_merge_components(pairs))


def sample_track(scenario: RfScenario, grid: TimeGrid) -> list:
    """One snapshot per grid sample.

    Part of the scalar oracle API with instantaneous_components; nothing on
    the simulation or artifact path calls it.
    """
    return [instantaneous_components(scenario, t) for t in grid.times()]


def component_tracks(scenario: RfScenario, grid: TimeGrid) -> list:
    """Vectorized per-emitter tracks over a grid.

    Returns a list of (freq, amplitude, active) arrays, one triple per
    emitter, equivalent to evaluating instantaneous_components at every grid
    time. component_powers and sole_component_freq build on this form;
    sample_track is the scalar oracle. Note that unlike sample_track,
    coincident equal frequencies from different emitters are not merged
    (the power sum is identical either way).
    """
    t = grid.times()
    n = grid.n_samples
    tracks = []
    for tone in scenario.tones:
        tracks.append(
            (
                np.full(n, tone.freq),
                np.full(n, tone.amplitude),
                np.ones(n, dtype=bool),
            )
        )
    for chirp in scenario.chirps:
        phase = t - chirp.repeat_interval * np.floor(t / chirp.repeat_interval)
        active = phase < chirp.pulse_width
        freq = np.where(active, chirp.inst_freq(phase), chirp.center)
        tracks.append((freq, np.full(n, chirp.amplitude), active))
    for hop in scenario.hops:
        rel = t - hop.start
        active = rel >= 0
        idx = np.floor(np.where(active, rel, 0.0) / hop.dwell).astype(np.int64)
        if hop.repeat:
            idx = idx % len(hop.freqs)
        else:
            active = active & (idx < len(hop.freqs))
            idx = np.clip(idx, 0, len(hop.freqs) - 1)
        freq = np.asarray(hop.freqs)[idx]
        tracks.append((freq, np.full(n, hop.amplitude), active))
    return tracks


def component_powers(scenario: RfScenario, grid: TimeGrid) -> list:
    """(freq, power) pairs of every emitter, the input of link_power.

    Tones give scalars; chirps and hops give per-sample arrays from
    component_tracks, with zero power where the emitter is inactive.
    """
    pairs = [(tone.freq, tone.amplitude**2) for tone in scenario.tones]
    if scenario.chirps or scenario.hops:
        dynamic = RfScenario(chirps=scenario.chirps, hops=scenario.hops)
        pairs += [(f, np.where(on, a**2, 0.0)) for f, a, on in component_tracks(dynamic, grid)]
    return pairs


def sole_component_freq(scenario: RfScenario, grid: TimeGrid) -> np.ndarray:
    """Per-sample frequency where exactly one distinct frequency is active.

    NaN elsewhere: no emitter active, or several distinct frequencies.
    Equal frequencies from different emitters count once, as in
    instantaneous_components, so this is the vectorised form of
    ``len(snapshot.components) == 1`` and ``snapshot.components[0][0]``
    over the grid.
    """
    # first: the frequency of the first active emitter in track order
    first = np.full(grid.n_samples, np.nan)
    sole = np.ones(grid.n_samples, dtype=bool)
    for freq, _, active in component_tracks(scenario, grid):
        np.copyto(first, freq, where=active & np.isnan(first))
        sole &= ~active | (freq == first)
    first[~sole] = np.nan
    return first
