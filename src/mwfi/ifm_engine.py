"""Frequency-to-power mapping pipeline (instantaneous measurement).

The MZI turns frequency into transmitted power; inverting the tabulated
monotone response recovers instantaneous frequency sample by sample. A
bandstop prefilter removes jamming tones, whose dwells then fall below the
noise floor and are flagged as noise rather than frequency.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._csv import write_columns
from .rf_signals import RfScenario, TimeGrid, component_tracks
from .photonic_link import (
    LinkModels,
    ModulatorModel,
    MziModel,
    link_power,
    mzi_port_response,
    notch_response,
    pd_detect,
)

__all__ = [
    "AcfLut",
    "IfmTrace",
    "InstFreqEstimate",
    "build_lut",
    "check_hop_sampling",
    "simulate_ifm",
    "extract_inst_freq",
    "estimate_static_frequency",
    "lut_to_csv",
    "lut_from_csv",
    "ifm_trace_to_csv",
    "inst_freq_to_csv",
]

DEFAULT_BAND = (10e9, 20e9)


@dataclass(frozen=True)
class AcfLut:
    """Invertible frequency-vs-value table over a monotone band.

    single_port mode stores the normalized power transmission of one MZI
    output including the modulator roll-off (the curve an end-to-end power
    calibration would see), scaled so the band maximum is 1. ratio mode
    stores the two-port power ratio in dB, where the roll-off cancels.
    full_scale is the read-out's scale: a unit tone's largest power at the
    knots through ports[0], which a single_port table's values divide.
    """

    mode: str  # "single_port" or "ratio"
    port: int  # 1 or 2 (single_port mode)
    band: tuple  # (f_lo, f_hi) Hz
    freqs: np.ndarray
    values: np.ndarray
    full_scale: float  # W

    def __post_init__(self):
        if self.mode not in ("single_port", "ratio"):
            raise ValueError(f"unknown LUT mode {self.mode!r}")
        if self.port not in (1, 2):
            raise ValueError(f"port must be 1 or 2, got {self.port!r}")
        object.__setattr__(self, "full_scale", float(self.full_scale))
        if not 0 < self.full_scale < math.inf:
            raise ValueError(f"full scale must be finite and > 0 W, got {self.full_scale!r}")
        object.__setattr__(self, "freqs", np.asarray(self.freqs, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        d = np.diff(self.values)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("LUT values must be strictly monotone over the band")
        if self.freqs.shape != self.values.shape:
            raise ValueError(f"LUT has {self.freqs.size} knots but {self.values.size} values")
        if not np.all(np.diff(self.freqs) > 0):
            raise ValueError("LUT knots must strictly increase")
        if self.freqs.size < 2 or (self.freqs[0], self.freqs[-1]) != tuple(self.band):
            raise ValueError("LUT end knots must be the band edges")

    @property
    def ports(self) -> tuple:
        """The MZI ports the table reads: both for a ratio, else its own."""
        return (1, 2) if self.mode == "ratio" else (self.port,)

    @property
    def rising(self) -> bool:
        return bool(self.values[-1] > self.values[0])

    @property
    def step(self) -> float:
        """Knot spacing in Hz."""
        return float(self.freqs[1] - self.freqs[0])

    def evaluate(self, f):
        return np.interp(f, self.freqs, self.values)

    def invert(self, value):
        """Frequency whose tabulated value matches; inputs outside the value
        range clamp to the band edges."""
        v = np.asarray(value, dtype=float)
        xp, fp = (self.values, self.freqs) if self.rising else (self.values[::-1], self.freqs[::-1])
        if v.ndim != 1:
            return np.interp(v, xp, fp)
        # np.interp searches from the previous query's knot, so sorted queries
        # are found in a step or two; each result reads only its own query and
        # knots, so the order changes no bit
        order = np.argsort(v)
        freq = np.empty_like(v)
        freq[order] = np.interp(v[order], xp, fp)
        return freq


@dataclass(frozen=True)
class IfmTrace:
    """Detected power record of one MZI output port."""

    grid: TimeGrid
    power: np.ndarray
    port: int  # the MZI output port it was detected at

    def __post_init__(self):
        object.__setattr__(self, "power", np.asarray(self.power, dtype=float))
        if self.power.shape != (self.grid.n_samples,):
            raise ValueError("power length must equal grid.n_samples")


NOISE = float("nan")
NOISE_FLOOR = 0.05  # normalized power below which a sample, or a static mean, is noise


@dataclass(frozen=True)
class InstFreqEstimate:
    """Per-sample frequency track on its traces' grid; NaN marks noise."""

    freq: np.ndarray  # Hz, NaN where flagged

    def __post_init__(self):
        object.__setattr__(self, "freq", np.asarray(self.freq, dtype=float))

    @property
    def is_noise(self) -> np.ndarray:
        return np.isnan(self.freq)


def build_lut(
    mzi: MziModel,
    band=DEFAULT_BAND,
    mode: str = "single_port",
    port: int = 2,
    n_knots: int = 4096,
    modulator: ModulatorModel = ModulatorModel(),
) -> AcfLut:
    """Tabulate the frequency-to-power curve for inversion.

    The band must stay within one monotone half-period of the MZI fringe
    (width <= fsr/2); construction fails if the sampled curve is not
    strictly monotone.
    """
    f_lo, f_hi = float(band[0]), float(band[1])
    if not f_lo < f_hi:
        raise ValueError("band must satisfy f_lo < f_hi")
    if f_hi - f_lo > mzi.fsr / 2.0:
        raise ValueError(
            f"band width {(f_hi - f_lo) / 1e9:.1f} GHz exceeds half the MZI FSR "
            f"({mzi.fsr / 2e9:.1f} GHz); response would not be invertible"
        )
    if n_knots < 2:
        raise ValueError("need at least 2 knots")
    freqs = np.linspace(f_lo, f_hi, n_knots)

    def unit_tone_power(p):
        # a unit tone at each knot through port p, roll-off and leakage included
        # and the bandstop off: the curve an end-to-end power calibration sees
        return link_power(modulator, lambda f, _: mzi_port_response(mzi, f, p),
                          lambda knots: [(freqs[knots], 1.0, True)], n_knots)

    # the first port the table reads; AcfLut refuses a mode other than these two
    first = unit_tone_power(1 if mode == "ratio" else port)
    full_scale = float(np.max(first))
    if mode == "ratio":
        values = 10.0 * np.log10(first / unit_tone_power(2))
    else:
        values = first / full_scale
    return AcfLut(mode=mode, port=port, band=(f_lo, f_hi), freqs=freqs, values=values,
                  full_scale=full_scale)


def check_hop_sampling(scenario: RfScenario, grid: TimeGrid):
    """Refuse a grid with fewer than 10 samples in any hop dwell."""
    for hop in scenario.hops:
        if grid.sample_rate * hop.dwell < 10.0:
            raise ValueError(
                f"grid rate {grid.sample_rate:.3e} S/s undersamples the "
                f"{hop.dwell:.2e} s hop dwell (need >= 10 samples per dwell)"
            )


def simulate_ifm(
    scenario: RfScenario,
    models: LinkModels,
    grid: TimeGrid,
    port: int = 2,
    seed: int = 0,
) -> IfmTrace:
    """Detected power of the bandstop-filtered MZI path.

    link_power through the port response times the bandstop transmission,
    through the detector, whose noise seed is seed; read-outs scale it by
    AcfLut.full_scale.
    """
    check_hop_sampling(scenario, grid)

    def response(freqs, _):
        resp = mzi_port_response(models.mzi, freqs, port)
        if models.notch is not None:
            resp = resp * notch_response(models.notch, freqs)
        return resp

    tracks = partial(component_tracks, scenario, grid)
    total = link_power(models.modulator, response, tracks, grid.n_samples)
    power = pd_detect(total, models.pd, grid, seed)
    return IfmTrace(grid=grid, power=power, port=port)


def _read_out(lut: AcfLut, traces, powers):
    """(table value, normalized signal level) of powers, one per trace of the
    ports lut reads, in AcfLut.ports order: power / lut.full_scale for both,
    or for a ratio table 10 log10 of port 1 over port 2 and the ports' mean
    over lut.full_scale. A ratio of zeros is NaN and a power far past full
    scale inf, neither with a warning."""
    ports = tuple(t.port for t in traces)
    if ports != lut.ports:
        raise ValueError(f"a {lut.mode} table reads ports {lut.ports}, got traces of {ports}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if lut.mode == "ratio":
            p1, p2 = powers
            value = 10.0 * np.log10(p1 / p2)
            level = (p1 + p2) / (2.0 * lut.full_scale)
        else:
            value = level = powers[0] / lut.full_scale
    return value, level


def extract_inst_freq(traces, lut: AcfLut) -> InstFreqEstimate:
    """Invert the lookup sample by sample.

    traces are the records of the ports lut reads, in AcfLut.ports order. A
    sample is flagged as noise when its normalized power sits below
    NOISE_FLOOR or its value lies outside the table's range, so the lookup
    band is the read-out's range.
    """
    value, level = _read_out(lut, traces, [t.power for t in traces])
    ok = (level >= NOISE_FLOOR) & (value >= lut.values.min()) & (value <= lut.values.max())
    freq = np.full(traces[0].grid.n_samples, NOISE)
    freq[ok] = lut.invert(value[ok])
    return InstFreqEstimate(freq=freq)


def estimate_static_frequency(traces, lut: AcfLut) -> float:
    """Invert the read-out of the traces' mean powers, read as by
    extract_inst_freq; noise averages out for a static tone. A mean level
    below NOISE_FLOOR is no signal."""
    value, level = _read_out(lut, traces, [np.mean(t.power) for t in traces])
    if level < NOISE_FLOOR:
        raise ValueError("no signal: mean power below the noise floor")
    return float(lut.invert(value))


def lut_to_csv(lut: AcfLut, path):
    """Two-column knot table under a single header naming mode/port/band and
    the full scale, written by repr so it reloads bit for bit."""
    header = (
        f"# mode={lut.mode} port={lut.port} f_lo_hz={lut.band[0]:.10e} "
        f"f_hi_hz={lut.band[1]:.10e} full_scale_w={lut.full_scale!r}\n"
    )
    write_columns(path, header, (lut.freqs, lut.values))


def lut_from_csv(path) -> AcfLut:
    """Reload a table written by lut_to_csv; a malformed file (a band edge,
    knot or full scale that is not finite, a row of other than 2 fields,
    among others) raises a ValueError that names path."""
    with open(path) as fh:
        header = fh.readline().strip()
    try:
        if not header.startswith("#"):
            raise ValueError("missing LUT header line")
        meta = dict(item.split("=", 1) for item in header[1:].split() if "=" in item)
        keys = ("mode", "port", "f_lo_hz", "f_hi_hz", "full_scale_w")
        missing = [key for key in keys if key not in meta]
        if missing:
            raise ValueError(f"LUT header has no {', '.join(missing)}")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if len(data) < 2:
            raise ValueError(f"need at least 2 knots, got {len(data)}")
        if data.shape[1] != 2:
            raise ValueError(f"rows must have 2 fields, not {data.shape[1]}")
        band = (float(meta["f_lo_hz"]), float(meta["f_hi_hz"]))
        if not (np.all(np.isfinite(band)) and np.all(np.isfinite(data))):
            raise ValueError("band edges and knots must be finite")
        return AcfLut(
            mode=meta["mode"],
            port=int(meta["port"]),
            band=band,
            freqs=data[:, 0],
            values=data[:, 1],
            full_scale=float(meta["full_scale_w"]),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def ifm_trace_to_csv(trace: IfmTrace, path):
    """One trace as time_s,power; a dynamic run writes its traces into its
    record (inst_freq_to_csv) instead."""
    write_columns(path, "time_s,power\n", (trace.grid.times(), trace.power))


def inst_freq_to_csv(est: InstFreqEstimate, path, traces):
    """A dynamic run's record: per sample its time, the power of each trace
    and the frequency, NaN written as NOISE.

    traces are the traces est was extracted from, in AcfLut.ports order: one
    port's trace, whose column is power, or for a ratio table port 1 (power)
    and port 2 (power_ref). The time column is their grid's.
    """
    names = ("power", "power_ref")[: len(traces)]
    header = ",".join(("time_s", *names, "freq_hz_or_NOISE")) + "\n"
    columns = (traces[0].grid.times(), *(t.power for t in traces), est.freq)
    write_columns(path, header, columns, nan="NOISE")
