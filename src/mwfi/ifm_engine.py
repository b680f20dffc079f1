"""Frequency-to-power mapping pipeline (instantaneous measurement).

The MZI turns frequency into transmitted power; inverting the tabulated
monotone response recovers instantaneous frequency sample by sample. A
bandstop prefilter removes jamming tones, whose dwells then fall below the
noise floor and are flagged as noise rather than frequency.
"""

from dataclasses import dataclass

import numpy as np

from ._csv import write_columns
from .rf_signals import RfScenario, TimeGrid, component_powers
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
    """

    mode: str  # "single_port" or "ratio"
    port: int  # 1 or 2 (single_port mode)
    band: tuple  # (f_lo, f_hi) Hz
    freqs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.mode not in ("single_port", "ratio"):
            raise ValueError(f"unknown LUT mode {self.mode!r}")
        if self.port not in (1, 2):
            raise ValueError(f"port must be 1 or 2, got {self.port!r}")
        object.__setattr__(self, "freqs", np.asarray(self.freqs, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        d = np.diff(self.values)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("LUT values must be strictly monotone over the band")

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
        if self.rising:
            return np.interp(v, self.values, self.freqs)
        return np.interp(v, self.values[::-1], self.freqs[::-1])


@dataclass(frozen=True)
class IfmTrace:
    """Detected single-port power record with its full-scale reference."""

    grid: TimeGrid
    power: np.ndarray
    normalization: float  # power of a unit-amplitude component at the band maximum

    def __post_init__(self):
        object.__setattr__(self, "power", np.asarray(self.power, dtype=float))
        if self.power.shape != (self.grid.n_samples,):
            raise ValueError("power length must equal grid.n_samples")


NOISE = float("nan")


@dataclass(frozen=True)
class InstFreqEstimate:
    """Per-sample frequency track; NaN marks samples classified as noise."""

    times: np.ndarray
    freq: np.ndarray  # Hz, NaN where flagged

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "freq", np.asarray(self.freq, dtype=float))

    @property
    def is_noise(self) -> np.ndarray:
        return np.isnan(self.freq)


def _single_tone_power(mod: ModulatorModel, mzi: MziModel, port: int, f: np.ndarray) -> np.ndarray:
    """Detected power of a unit-amplitude tone at each f through the MZI path.

    Includes the modulator roll-off and the residual-carrier and
    image-sideband leakage, i.e. exactly the curve an end-to-end power
    calibration measures (bandstop filter off).
    """
    return link_power(mod, lambda x, _: mzi_port_response(mzi, x, port), [(f, 1.0)], f.size)


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
    if mode == "single_port":
        values = _single_tone_power(modulator, mzi, port, freqs)
        values = values / float(np.max(values))
    else:  # ratio; AcfLut refuses any other mode
        values = 10.0 * np.log10(
            _single_tone_power(modulator, mzi, 1, freqs)
            / _single_tone_power(modulator, mzi, 2, freqs)
        )
    return AcfLut(mode=mode, port=port, band=(f_lo, f_hi), freqs=freqs, values=values)


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
    band=DEFAULT_BAND,
) -> IfmTrace:
    """Detected power of the bandstop-filtered MZI path.

    link_power through the port response times the bandstop transmission,
    through the detector. The normalization is the detected power of a
    unit-amplitude component at the band maximum of the port response
    (bandstop excluded).
    """
    check_hop_sampling(scenario, grid)

    def response(freqs, _):
        resp = mzi_port_response(models.mzi, freqs, port)
        if models.notch is not None:
            resp = resp * notch_response(models.notch, freqs)
        return resp

    total = link_power(
        models.modulator, response, component_powers(scenario, grid), grid.n_samples
    )
    total *= models.link_gain

    power = pd_detect(total, models.pd, grid)
    ref = np.linspace(band[0], band[1], 2048)
    peak = float(np.max(_single_tone_power(models.modulator, models.mzi, port, ref)))
    return IfmTrace(grid=grid, power=power, normalization=models.link_gain * peak)


def extract_inst_freq(
    trace: IfmTrace,
    lut: AcfLut,
    noise_floor: float = 0.05,
    upper_limit: float = 20e9,
    reference_trace: IfmTrace | None = None,
) -> InstFreqEstimate:
    """Invert the lookup sample by sample.

    A sample is flagged as noise when its normalized power sits below
    noise_floor, outside the tabulated value range, or implies a frequency
    above upper_limit (frequencies beyond the table cannot be told apart
    from noise). For a ratio LUT, trace must be the port-1 record and
    reference_trace the port-2 record.
    """
    if not lut.band[0] <= upper_limit <= lut.band[1]:
        raise ValueError("upper_limit must lie within the LUT band")
    if lut.mode == "ratio":
        if reference_trace is None:
            raise ValueError("ratio-mode extraction needs the complementary port trace")
        with np.errstate(divide="ignore", invalid="ignore"):
            metric = 10.0 * np.log10(trace.power / reference_trace.power)
        signal = (trace.power + reference_trace.power) / (2.0 * trace.normalization)
        valid = np.isfinite(metric) & (signal >= noise_floor)
    else:
        metric = trace.power / trace.normalization
        valid = metric >= noise_floor

    v_lo = float(np.min(lut.values))
    v_hi = float(np.max(lut.values))
    in_range = (metric >= v_lo) & (metric <= v_hi)
    freq = np.full(trace.grid.n_samples, NOISE)
    ok = valid & in_range
    freq[ok] = lut.invert(metric[ok])
    freq[freq > upper_limit] = NOISE
    return InstFreqEstimate(times=trace.grid.times(), freq=freq)


def estimate_static_frequency(trace: IfmTrace, lut: AcfLut, noise_floor: float = 0.05) -> float:
    """Invert the trace's mean power; noise averages out for a static tone."""
    if lut.mode != "single_port":
        raise ValueError("static estimation works on single-port traces")
    mean_p = float(np.mean(trace.power)) / trace.normalization
    if mean_p < noise_floor:
        raise ValueError("no signal: mean power below the noise floor")
    return float(lut.invert(mean_p))


def lut_to_csv(lut: AcfLut, path):
    """Two-column knot table under a single header naming mode/port/band."""
    header = (
        f"# mode={lut.mode} port={lut.port} "
        f"f_lo_hz={lut.band[0]:.10e} f_hi_hz={lut.band[1]:.10e}\n"
    )
    write_columns(path, header, (lut.freqs, lut.values))


def lut_from_csv(path) -> AcfLut:
    """Reload a table written by lut_to_csv; a malformed file raises a
    ValueError that names path."""
    with open(path) as fh:
        header = fh.readline().strip()
    try:
        if not header.startswith("#"):
            raise ValueError("missing LUT header line")
        meta = dict(item.split("=", 1) for item in header[1:].split() if "=" in item)
        missing = [key for key in ("mode", "port", "f_lo_hz", "f_hi_hz") if key not in meta]
        if missing:
            raise ValueError(f"LUT header has no {', '.join(missing)}")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=(0, 1))
        if len(data) < 2:
            raise ValueError(f"need at least 2 knots, got {len(data)}")
        return AcfLut(
            mode=meta["mode"],
            port=int(meta["port"]),
            band=(float(meta["f_lo_hz"]), float(meta["f_hi_hz"])),
            freqs=data[:, 0],
            values=data[:, 1],
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def ifm_trace_to_csv(trace: IfmTrace, path):
    write_columns(path, "time_s,power\n", (trace.grid.times(), trace.power))


def inst_freq_to_csv(est: InstFreqEstimate, path):
    write_columns(path, "time_s,freq_hz_or_NOISE\n", (est.times, est.freq), nan="NOISE")
