"""Microwave emitter scenarios and their instantaneous spectral content.

Signals are represented quasi-statically: at any instant a scenario reduces
to a list of (frequency, amplitude) components, one per active emitter,
coincident frequencies included. Detected power in the rest of the toolkit
depends only on the detuning between these component frequencies and the
filter frequencies, so RF carriers are never sampled.
"""

from dataclasses import MISSING, dataclass, field, fields
import math

import numpy as np

# samples per block of tracks: the power sum and the scoring pass evaluate one
# block at a time, so their per-sample temporaries stay this long
BLOCK = 16384

# closed ranges (lo, hi) of the model and emitter fields, each declared on its
# field; with harness.MAX_SAMPLES and MAX_TONES they keep every sum of a run
# finite, and the ends of a pair held to lo < hi lie apart (README, "Ranges")
FREQ, WIDTH, TIME = (-1e13, 1e13), (1.0, 1e13), (1e-15, 1e3)
DB, AMPLITUDE, EMITTED = (0.0, 100.0), (0.0, 1e6), (1.0, 1e13)

__all__ = [
    "TimeGrid",
    "ToneSpec",
    "ChirpSpec",
    "HopSpec",
    "RfScenario",
    "instantaneous_components",
    "component_tracks",
    "sole_component_freq",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid: times are k/sample_rate for k in [0, n_samples)."""

    sample_rate: float  # samples/s
    n_samples: int

    def __post_init__(self):
        if not self.sample_rate > 0:
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
        return self.block_times(slice(0, self.n_samples))

    def block_times(self, block: slice) -> np.ndarray:
        """Times of the grid samples in the slice block: elementwise equal to
        times()[block], without building the whole axis."""
        return np.arange(*block.indices(self.n_samples)) / self.sample_rate


def ranged(bounds, default=MISSING):
    """A dataclass field whose value, or each value of a tuple, must lie in
    the closed range bounds = (lo, hi); check_ranges enforces it, and
    config.RunConfig checks each key against it where it parses it."""
    return field(default=default, metadata={"range": bounds})


def check_ranges(model):
    """Refuse a value of a ranged field of model outside its range; NaN lies
    outside every range."""
    for f in fields(model):
        if "range" in f.metadata:
            lo, hi = f.metadata["range"]
            value = getattr(model, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if not lo <= v <= hi:
                    raise ValueError(f"{f.name} {float(v)!r} lies outside {lo:g}..{hi:g}")


@dataclass(frozen=True)
class ToneSpec:
    """Always-on single tone."""

    freq: float = ranged(EMITTED)  # Hz
    amplitude: float = ranged(AMPLITUDE, 1.0)  # linear field scale; power is amplitude**2

    def __post_init__(self):
        check_ranges(self)


@dataclass(frozen=True)
class ChirpSpec:
    """Linearly frequency-modulated pulse train.

    Within each repeat interval the instantaneous frequency ramps across
    [center - span/2, center + span/2] during pulse_width, then the emitter
    is off until the next repeat.
    """

    center: float = ranged(EMITTED)  # Hz
    span: float = ranged(WIDTH)  # Hz
    pulse_width: float = ranged(TIME)  # s
    repeat_interval: float = ranged(TIME)  # s
    amplitude: float = ranged(AMPLITUDE, 1.0)
    direction: str = "up"  # "up" or "down"

    def __post_init__(self):
        check_ranges(self)
        if self.center - self.span / 2.0 <= 0:
            raise ValueError("chirp low end center - span/2 must be > 0 Hz")
        if not self.pulse_width <= self.repeat_interval:
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

    freqs: tuple = ranged(EMITTED)  # Hz, ordered
    dwell: float = ranged(TIME)  # s
    amplitude: float = ranged(AMPLITUDE, 1.0)
    start: float = ranged((0.0, 1e3), 0.0)  # s
    repeat: bool = True

    def __post_init__(self):
        object.__setattr__(self, "freqs", tuple(float(f) for f in self.freqs))
        check_ranges(self)
        if not self.freqs:
            raise ValueError("hop sequence needs at least one frequency")


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


def instantaneous_components(scenario: RfScenario, t: float) -> tuple:
    """(freq, amplitude) of every emitter active at time t, one pair per
    emitter in emitter order: tones, then chirps, then hops.

    Tones are always on. A chirp contributes its ramp frequency while
    t mod repeat_interval < pulse_width. A hop contributes the frequency of
    the dwell containing t.

    This is the scalar oracle: at a grid sample's time its pairs are the
    active entries of component_tracks there, bit for bit, and the tests
    check the vectorised paths against it sample by sample.
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
    return tuple(pairs)


def component_tracks(scenario: RfScenario, grid: TimeGrid, block=slice(None)) -> list:
    """Vectorized per-emitter tracks over the grid samples in the slice block.

    Returns a list of (freq, amplitude, active) triples, one per emitter,
    whose active entries at a sample are instantaneous_components at its
    time. A tone is a scalar track (freq, amplitude, np.True_); chirps and
    hops give per-sample freq and active arrays beside their scalar
    amplitude. photonic_link.link_power and sole_component_freq read this
    form one BLOCK of samples at a time.
    Every operation is elementwise on TimeGrid.block_times, so a block's
    tracks equal the slices of the whole grid's bit for bit.
    """
    tracks = [(tone.freq, tone.amplitude, np.True_) for tone in scenario.tones]
    # only chirps and hops change over time: a tone-only scan needs no time axis
    if scenario.chirps or scenario.hops:
        t = grid.block_times(block)
    for chirp in scenario.chirps:
        phase = t - chirp.repeat_interval * np.floor(t / chirp.repeat_interval)
        active = phase < chirp.pulse_width
        # ramp on-pulse phases only: an off phase, up to the repeat interval,
        # overflows the ramp of a short enough pulse
        freq = np.where(active, chirp.inst_freq(np.where(active, phase, 0.0)), chirp.center)
        tracks.append((freq, chirp.amplitude, active))
    for hop in scenario.hops:
        rel = t - hop.start
        active = rel >= 0
        # the dwell count stays a float until it is an index: past 2**63 an
        # int64 cast would overflow, and float floor, mod and clip are exact
        idx = np.floor(np.where(active, rel, 0.0) / hop.dwell)
        if hop.repeat:
            idx = idx % len(hop.freqs)
        else:
            active = active & (idx < len(hop.freqs))
            idx = np.clip(idx, 0, len(hop.freqs) - 1)
        freq = np.asarray(hop.freqs)[idx.astype(np.int64)]
        tracks.append((freq, hop.amplitude, active))
    return tracks


def sole_component_freq(scenario: RfScenario, grid: TimeGrid) -> np.ndarray:
    """Per-sample frequency where exactly one distinct frequency is active.

    NaN elsewhere: no emitter active, or several distinct frequencies.
    Equal frequencies from different emitters count once.
    """
    # first: the frequency of the first active emitter in track order
    first = np.full(grid.n_samples, np.nan)
    sole = np.ones(grid.n_samples, dtype=bool)
    for start in range(0, grid.n_samples, BLOCK):
        block = slice(start, start + BLOCK)
        out, ok = first[block], sole[block]
        for freq, _, active in component_tracks(scenario, grid, block):
            np.copyto(out, freq, where=active & np.isnan(out))
            ok &= ~active | (freq == out)
    first[~sole] = np.nan
    return first
