"""Frequency-to-time mapping pipeline.

A sawtooth voltage sweeps the microring resonance across the measurement
band once per period; every spectral component of the input lights up the
detector when the resonance crosses it. Pulse delay encodes frequency via a
quadratic lookup table fitted during calibration. Statistical measurements
(frequency sets, chirp spans, hop sets) all run on the detected trace.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import uniform_filter1d
from scipy.signal import find_peaks

from ._csv import write_columns
from .rf_signals import RfScenario, TimeGrid, ToneSpec, component_powers
from .photonic_link import (
    LinkModels,
    MrrModel,
    link_power,
    mrr_drop_response,
    mrr_resonance_offset,
    pd_detect,
    thermal_lag,
)
from .seeding import STAGE_CAL, derive_seed

__all__ = [
    "SawtoothDrive",
    "ScanTrace",
    "PulseEvent",
    "CalibrationTable",
    "CalibrationError",
    "simulate_scan",
    "scan_frequency",
    "detect_pulses",
    "calibrate",
    "estimate_frequencies",
    "measure_span",
    "estimate_hop_set",
    "scan_trace_to_csv",
    "scan_trace_from_csv",
]

# Out-of-band tolerance when mapping pulse times through a calibration
# table: boundary tones may jitter one sample past the fitted range.
VALID_RANGE_MARGIN = 0.05


class CalibrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SawtoothDrive:
    """Heater drive: v_min -> v_max ramp repeated every period."""

    v_min: float = 0.0
    v_max: float = 4.0
    period: float = 0.25
    n_periods: int = 1

    def __post_init__(self):
        if self.v_max <= self.v_min:
            raise ValueError("need v_max > v_min")
        if self.period <= 0 or self.n_periods < 1:
            raise ValueError("period must be > 0 and n_periods >= 1")

    def voltage(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        phase = t / self.period - np.floor(t / self.period)
        return self.v_min + (self.v_max - self.v_min) * phase


@dataclass(frozen=True)
class ScanTrace:
    """Detected-power record of one or more scan periods.

    pulse_width_hint is the nominal time-domain width of a static-tone
    crossing pulse (MRR linewidth / mean scan rate), 1% of the trace
    duration when not given; detectors use it to scale gap tolerances and
    smoothing windows. settle_time is the heater settling window after
    each sawtooth reset, during which the lagged resonance flies back down
    through the band and crossings are spurious.
    """

    grid: TimeGrid
    power: np.ndarray
    drive: SawtoothDrive
    pulse_width_hint: float | None = None
    settle_time: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "power", np.asarray(self.power, dtype=float))
        if self.power.shape != (self.grid.n_samples,):
            raise ValueError("power length must equal grid.n_samples")
        hint = self.pulse_width_hint or self.grid.duration / 100.0
        object.__setattr__(self, "pulse_width_hint", hint)


@dataclass(frozen=True)
class PulseEvent:
    """One detected pulse or envelope, times folded into the scan period."""

    peak_time: float  # s, delay from sawtooth start
    peak_power: float
    width: float  # s, above-threshold extent
    fill_randomness: float  # fraction of half-max-interior samples below half max


@dataclass(frozen=True)
class CalibrationTable:
    """Quadratic frequency-vs-delay lookup: f = a t^2 + b t + c."""

    coeffs: tuple  # (a, b, c); Hz/s^2, Hz/s, Hz
    valid_range: tuple  # (t_min, t_max) observed peak delays, s
    fit_residual_rms: float  # Hz

    def freq_at(self, t):
        a, b, c = self.coeffs
        t = np.asarray(t, dtype=float)
        return a * t**2 + b * t + c

    def slope_at(self, t):
        a, b, _ = self.coeffs
        return 2.0 * a * np.asarray(t, dtype=float) + b

    def save(self, path):
        a, b, c = self.coeffs
        t0, t1 = self.valid_range
        with open(path, "w", newline="\n") as fh:
            fh.write(f"{a:.10e} {b:.10e} {c:.10e}\n")
            fh.write(f"{t0:.10e} {t1:.10e}\n")
            fh.write(f"{self.fit_residual_rms:.10e}\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            lines = [ln.strip() for ln in fh.readlines() if ln.strip()]
        if len(lines) != 3:
            raise ValueError(f"{path}: expected 3 lines, got {len(lines)}")
        a, b, c = (float(x) for x in lines[0].split())
        t0, t1 = (float(x) for x in lines[1].split())
        return cls((a, b, c), (t0, t1), float(lines[2]))


@functools.lru_cache(maxsize=1)
def _scan_axis(mrr: MrrModel, drive: SawtoothDrive, grid: TimeGrid):
    """(scan frequency, ring transmission at the carrier), both read-only.

    The axis depends only on the ring, the drive and the grid, so every
    tone scan of a calibration or sweep shares it; harness.run clears the
    cache when a run ends.
    """
    v = drive.voltage(grid.times())
    v2_eff = thermal_lag(v**2, mrr.tau_thermal, grid)
    # offset law evaluated on lagged V^2 directly (avoids sqrt/square round trip)
    f_s = mrr.f_offset0 + mrr.k_thermal * v2_eff
    carrier = mrr_drop_response(mrr, 0.0 - f_s)
    f_s.setflags(write=False)
    carrier.setflags(write=False)
    return f_s, carrier


def scan_frequency(models: LinkModels, drive: SawtoothDrive, grid: TimeGrid) -> np.ndarray:
    """Instantaneous filter frequency over the grid, heater lag included.

    The array is shared and read-only: it is computed once per (ring,
    drive, grid) and cached for the rest of the run.
    """
    return _scan_axis(models.mrr, drive, grid)[0]


def simulate_scan(
    scenario: RfScenario,
    models: LinkModels,
    drive: SawtoothDrive,
    grid: TimeGrid,
) -> ScanTrace:
    """Detected power of the scanning-filter path for a full scenario.

    Per sample: sawtooth voltage -> lagged V^2 -> scan frequency, then
    link_power through the ring response at each component's detuning
    from the scan frequency, through the detector.
    """
    expected = drive.n_periods * drive.period
    if abs(grid.duration - expected) > grid.dt:
        raise ValueError(
            f"grid duration {grid.duration:.6e} s != {drive.n_periods} x {drive.period} s drive"
        )
    f_s = scan_frequency(models, drive, grid)
    carrier = _scan_axis(models.mrr, drive, grid)[1]

    def response(f):
        # a scalar 0 is the carrier term, whose transmission is cached
        if np.ndim(f) == 0 and f == 0.0:
            return carrier
        return mrr_drop_response(models.mrr, f - f_s)

    total = link_power(
        models.modulator, response, component_powers(scenario, grid), grid.n_samples
    )
    total *= models.link_gain

    power = pd_detect(total, models.pd, grid)
    hint, settle = _scan_timing(models, drive)
    return ScanTrace(grid=grid, power=power, drive=drive, pulse_width_hint=hint, settle_time=settle)


def _scan_timing(models: LinkModels, drive: SawtoothDrive):
    """(pulse_width_hint, settle_time) of a scan, as ScanTrace defines them."""
    span = mrr_resonance_offset(models.mrr, drive.v_max) - mrr_resonance_offset(
        models.mrr, drive.v_min
    )
    return float(models.mrr.fwhm / (span / drive.period)), 10.0 * models.mrr.tau_thermal


def _above_threshold_runs(above: np.ndarray):
    """(start, stop) index pairs of contiguous True runs, stop exclusive."""
    idx = np.flatnonzero(above)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([idx[0]], idx[breaks + 1]))
    stops = np.concatenate((idx[breaks] + 1, [idx[-1] + 1]))
    return list(zip(starts, stops))


def _signal_level(power: np.ndarray, quantile: float):
    """(floor, full scale) of a trace, or None when it holds no signal.

    The floor is the given quantile of all samples and full scale the peak
    above it. The extreme of a pure-noise trace sits ~5 sigma above its
    floor, so a peak within 8 sigma (MAD estimate) is not a signal.
    """
    floor = float(np.quantile(power, quantile))
    fullscale = float(np.max(power)) - floor
    noise_scale = 1.4826 * float(np.median(np.abs(power - floor)))
    if fullscale <= 0 or fullscale <= 8.0 * noise_scale:
        return None
    return floor, fullscale


def _merge_runs(runs, gap: int):
    merged = [list(runs[0])]
    for start, stop in runs[1:]:
        if start - merged[-1][1] <= gap:
            merged[-1][1] = stop
        else:
            merged.append([start, stop])
    return merged


def _fill_randomness(seg: np.ndarray) -> float:
    """Fraction of samples below half max inside the segment's half-max extent.

    Zero for a clean unimodal pulse; large for envelopes filled with random
    power values, where the interior keeps dipping below half max.
    """
    half = 0.5 * float(np.max(seg))
    at_least_half = np.flatnonzero(seg >= half)
    lo, hi = at_least_half[0], at_least_half[-1]
    if hi - lo < 2:
        return 0.0
    interior = seg[lo : hi + 1]
    return float(np.mean(interior < half))


def detect_pulses(
    trace: ScanTrace,
    noise_floor_quantile: float = 0.5,
    min_prominence: float = 0.1,
    gap_tolerance: float | None = None,
) -> list:
    """Find pulses/envelopes in a scan trace.

    The noise floor is the given quantile of all samples; the threshold sits
    min_prominence of the way from floor to max. Above-threshold runs closer
    than the gap tolerance (default: one nominal pulse width) merge into one
    envelope, so randomly-filled envelopes hold together. A merged group is
    split where its smoothed profile shows several prominent peaks, which
    resolves closely spaced clean tones.
    """
    power = trace.power
    level = _signal_level(power, noise_floor_quantile)
    if level is None:
        return []
    floor, fullscale = level
    threshold = floor + min_prominence * fullscale
    runs = _above_threshold_runs(power > threshold)
    if not runs:
        return []

    if gap_tolerance is None:
        gap_tolerance = trace.pulse_width_hint
    gap = max(1, int(round(gap_tolerance * trace.grid.sample_rate)))
    # the smoothed profile has no structure finer than gap // 8 samples, so
    # peak-finding on a decimated copy is lossless and much cheaper, and a
    # group narrower than that is a noise spike, not a pulse
    dec = max(1, gap // 8)
    groups = [(start, stop) for start, stop in _merge_runs(runs, gap) if stop - start >= dec]

    grid = trace.grid
    events = []
    for start, stop in groups:
        seg = power[start:stop]
        smooth = uniform_filter1d(seg, size=min(gap, seg.size), mode="nearest")
        coarse = smooth[::dec]
        # prominence scales with the smoothed profile: a filled envelope
        # averages well below the raw full scale
        prom = min_prominence * max(float(np.max(smooth)) - floor, 0.0)
        peaks = find_peaks(coarse, prominence=prom)[0] * dec if prom > 0 else []
        if len(peaks) >= 2:
            # split at the smoothed minimum between adjacent peaks
            bounds = [0]
            for left, right in zip(peaks[:-1], peaks[1:]):
                bounds.append(left + int(np.argmin(smooth[left:right])))
            bounds.append(seg.size)
            slices = [(bounds[i], bounds[i + 1]) for i in range(len(peaks))]
        else:
            slices = [(0, seg.size)]
        for s0, s1 in slices:
            sub = seg[s0:s1]
            above = np.flatnonzero(sub > threshold)
            if above.size == 0:
                continue
            peak_idx = int(np.argmax(sub))  # argmax takes the earliest tie
            # the grid's time of sample k, as TimeGrid.times() computes it
            peak_time = grid.t0 + (start + s0 + peak_idx) / grid.sample_rate
            events.append(
                PulseEvent(
                    peak_time=float(peak_time % trace.drive.period),
                    peak_power=float(sub[peak_idx]),
                    width=float((above[-1] - above[0] + 1) * grid.dt),
                    fill_randomness=_fill_randomness(sub),
                )
            )
    if trace.settle_time is not None:
        # crossings during the post-reset flyback are duplicates, not signals
        events = [ev for ev in events if ev.peak_time >= trace.settle_time]
    events.sort(key=lambda ev: ev.peak_time)
    return events


def calibrate(
    models: LinkModels,
    drive: SawtoothDrive,
    tone_freqs,
    grid: TimeGrid,
    noise_floor_quantile: float = 0.5,
    min_prominence: float = 0.1,
) -> CalibrationTable:
    """Fit the frequency-vs-delay lookup from known single tones.

    Each tone is scanned separately; its pulse delay and frequency feed an
    ordinary least-squares quadratic fit. The heater lag acts during
    calibration exactly as during measurement, so its bias cancels in use.
    """
    tone_freqs = [float(f) for f in tone_freqs]
    if len(tone_freqs) < 3:
        raise CalibrationError("need at least 3 calibration tones for a quadratic fit")
    delays = []
    for i, f in enumerate(tone_freqs):
        pd_i = replace(models.pd, seed=derive_seed(models.pd.seed, STAGE_CAL, i))
        models_i = replace(models, pd=pd_i)
        trace = simulate_scan(RfScenario(tones=(ToneSpec(freq=f),)), models_i, drive, grid)
        events = detect_pulses(trace, noise_floor_quantile, min_prominence)
        if len(events) != 1:
            raise CalibrationError(
                f"calibration tone {f / 1e9:.3f} GHz produced {len(events)} pulses (need 1)"
            )
        delays.append(events[0].peak_time)

    t = np.asarray(delays)
    f = np.asarray(tone_freqs)
    coeffs = np.polyfit(t, f, 2)
    resid = f - np.polyval(coeffs, t)
    table = CalibrationTable(
        coeffs=tuple(float(x) for x in coeffs),
        valid_range=(float(t.min()), float(t.max())),
        fit_residual_rms=float(np.sqrt(np.mean(resid**2))),
    )
    # the lookup must be invertible: df/dt > 0 across the fitted range
    if min(table.slope_at(table.valid_range[0]), table.slope_at(table.valid_range[1])) <= 0:
        raise CalibrationError("fitted lookup is not monotone over the observed delays")
    return table


def estimate_frequencies(events, table: CalibrationTable) -> list:
    """Map pulse delays to frequencies; None for events outside the table.

    Events beyond the fitted delay range (plus a small jitter margin) are
    flagged rather than extrapolated.
    """
    t0, t1 = table.valid_range
    margin = VALID_RANGE_MARGIN * (t1 - t0)
    out = []
    for ev in events:
        if t0 - margin <= ev.peak_time <= t1 + margin:
            out.append(float(table.freq_at(ev.peak_time)))
        else:
            out.append(None)
    return out


def _occupancy_edges(above: np.ndarray, window: int):
    """Edge indices (fractional) where windowed exceedance crosses half its plateau.

    The exceedance fraction of a filled envelope ramps linearly through the
    filter's response tails and passes half its in-band plateau exactly at
    the envelope's true edge, which makes the crossing an unbiased edge
    estimate regardless of linewidth or threshold choice.
    """
    occ = uniform_filter1d(above.astype(float), size=window, mode="constant", cval=0.0)
    # two-pass plateau estimate: max(occ) rides noise wiggles high, so take
    # the median over the central quarter of the first-pass support
    support = np.flatnonzero(occ >= 0.5 * float(np.max(occ)))
    lo, hi = int(support[0]), int(support[-1])
    c0 = lo + (hi - lo) * 3 // 8
    c1 = hi - (hi - lo) * 3 // 8
    plateau = float(np.median(occ[c0 : c1 + 1]))
    mid = 0.5 * plateau
    hit = np.flatnonzero(occ >= mid)
    first, last = int(hit[0]), int(hit[-1])

    def crossing(i, direction):
        j = i - direction  # neighbour on the below-mid side
        if j < 0 or j >= occ.size or occ[i] == occ[j]:
            return float(i)
        frac = (mid - occ[j]) / (occ[i] - occ[j])
        return j + frac * (i - j)

    return crossing(first, +1), crossing(last, -1)


def measure_span(
    trace: ScanTrace,
    table: CalibrationTable,
    rel_threshold: float = 0.1,
    edge_method: str = "occupancy",
    window: float | None = None,
) -> float:
    """Frequency span of the envelope exceeding floor + rel_threshold x range.

    edge_method "occupancy" (default) locates each edge where the local
    fraction of above-threshold samples crosses half its plateau; "raw"
    takes the literal first/last above-threshold samples, which Lorentzian
    tails bias outward by several linewidths. window is the occupancy
    smoothing span in seconds (default scales with the pulse width hint).
    """
    level = _signal_level(trace.power, 0.5)
    if level is None:
        raise ValueError("no envelope: trace is flat or noise-limited")
    floor, fullscale = level
    above = trace.power > floor + rel_threshold * fullscale
    if not np.any(above):
        raise ValueError("no envelope: nothing above threshold")

    if edge_method == "raw":
        hit = np.flatnonzero(above)
        i_lo, i_hi = float(hit[0]), float(hit[-1])
    elif edge_method == "occupancy":
        if window is None:
            window = 0.6 * trace.pulse_width_hint
        w = max(5, int(round(window * trace.grid.sample_rate)))
        i_lo, i_hi = _occupancy_edges(above, w)
    else:
        raise ValueError(f"unknown edge_method {edge_method!r}")

    times = trace.grid.t0 + np.array([i_lo, i_hi]) * trace.grid.dt
    times = times % trace.drive.period
    f_lo, f_hi = table.freq_at(times[0]), table.freq_at(times[1])
    return float(f_hi - f_lo)


def estimate_hop_set(
    trace: ScanTrace,
    table: CalibrationTable,
    noise_floor_quantile: float = 0.5,
    min_prominence: float = 0.1,
) -> list:
    """Frequencies of the discrete sub-envelopes of a hopping trace, ascending.

    The scan is a statistical measurement: peak delays of the sub-envelopes
    give the hop set, but the chronological hop order is not recoverable
    from a single scan.
    """
    events = detect_pulses(trace, noise_floor_quantile, min_prominence)
    if not events:
        raise ValueError("no sub-envelopes detected")
    freqs = [f for f in estimate_frequencies(events, table) if f is not None]
    if not freqs:
        raise ValueError("all sub-envelopes fall outside the calibrated range")
    return sorted(freqs)


def scan_trace_to_csv(trace: ScanTrace, path):
    write_columns(path, "time_s,power\n", (trace.grid.times(), trace.power))


def scan_trace_from_csv(path, models: LinkModels, drive: SawtoothDrive) -> ScanTrace:
    """Reload a trace written by scan_trace_to_csv.

    The file holds only times and power; the pulse width hint and settle
    time come from the models and drive that produced it, as in
    simulate_scan, so the reloaded trace detects the same events.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    t = data[:, 0]
    rate = 1.0 / float(np.median(np.diff(t)))
    grid = TimeGrid(sample_rate=rate, n_samples=len(t), t0=float(t[0]))
    hint, settle = _scan_timing(models, drive)
    return ScanTrace(
        grid=grid, power=data[:, 1], drive=drive, pulse_width_hint=hint, settle_time=settle
    )
