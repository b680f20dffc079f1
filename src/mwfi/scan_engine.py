"""Frequency-to-time mapping pipeline.

A sawtooth voltage sweeps the microring resonance across the measurement
band once per period; every spectral component of the input lights up the
detector when the resonance crosses it. Pulse delay encodes frequency via a
quadratic lookup table fitted during calibration. Statistical measurements
(frequency sets, chirp spans, hop sets) all run on the detected trace.
"""

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
# not scipy: it takes about a second to import and only the scan estimators
# use it, so each imports its function where it calls it; IFM runs never load it

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
    "TraceLevel",
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

# Detection threshold and peak prominence, as a fraction of full scale above
# the trace floor; pulse detection and the span edges share it.
THRESHOLD_FRAC = 0.1


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
        # a ramp through 0 V would heat, cool and heat again: the scan turns back
        if not 0 <= self.v_min < self.v_max:
            raise ValueError("need 0 <= v_min < v_max")
        if self.period <= 0 or self.n_periods < 1:
            raise ValueError("period must be > 0 and n_periods >= 1")

    def voltage(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        phase = t / self.period - np.floor(t / self.period)
        return self.v_min + (self.v_max - self.v_min) * phase


class TraceLevel(NamedTuple):
    """Signal level of a scan trace, in detected watts (ScanTrace.level)."""

    floor: float
    full_scale: float
    noise_sigma: float


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

    @functools.cached_property
    def level(self):
        """TraceLevel of the power, or None when it holds no signal.

        The floor is the median of all samples, full scale the peak above
        it and noise_sigma 1.4826 x the median absolute deviation from the
        floor (MAD); every estimator of the trace reads this one level. The
        extreme of a pure-noise trace sits ~5 sigma above its floor, so a
        peak within 8 sigma is not a signal. A trace whose floor or peak is
        not finite (a NaN or +inf sample, or -inf on half the samples) has
        no level.

        All three come from one sorted copy, bit for bit equal to
        np.median(power), max(power) - floor and
        np.median(np.abs(power - floor)).
        """
        s = np.sort(self.power)
        n = s.size
        k = n // 2
        # np.median's own arithmetic: the middle sample, or the mean of two
        floor = float(s[k]) if n % 2 else (float(s[k - 1]) + float(s[k])) / 2
        fullscale = float(s[-1]) - floor
        if not math.isfinite(fullscale):  # NaN and +inf sort last, -inf first
            return None

        def dev(i):
            # |s[i] - floor|: IEEE subtraction is sign-symmetric
            x = float(s[i])
            return floor - x if x <= floor else x - floor

        # the k+1 deviations nearest the floor are one window of s, and every
        # such window straddles the floor; binary-search its start
        lo, hi = 0, n - k - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if dev(mid) > dev(mid + k + 1):
                lo = mid + 1
            else:
                hi = mid
        left, right = dev(lo), dev(lo + k)
        mad = max(left, right)  # the k-th smallest deviation
        if n % 2 == 0:
            # the (k-1)-th: the window without its farther end
            inner = max(dev(lo + 1), right) if left >= right else max(left, dev(lo + k - 1))
            mad = (inner + mad) / 2
        noise_sigma = 1.4826 * mad
        if fullscale <= 0 or fullscale <= 8.0 * noise_sigma:
            return None
        return TraceLevel(floor, fullscale, noise_sigma)


@dataclass(frozen=True)
class PulseEvent:
    """One detected pulse or envelope, times folded into the scan period."""

    peak_time: float  # s, delay from sawtooth start
    peak_power: float
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
        """Reload a table written by save; a malformed file raises a
        ValueError that names path."""
        with open(path) as fh:
            lines = [ln.split() for ln in fh if ln.strip()]
        if len(lines) != 3:
            raise ValueError(f"{path}: expected 3 lines, got {len(lines)}")
        try:
            (a, b, c), (t0, t1), (rms,) = ([float(x) for x in ln] for ln in lines)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return cls((a, b, c), (t0, t1), rms)


@functools.lru_cache(maxsize=1)
def _scan_axis(mrr: MrrModel, drive: SawtoothDrive, grid: TimeGrid):
    """(scan frequency, ring transmission at the carrier), both read-only.

    The axis depends only on the ring, the drive and the grid, so every
    tone scan of a calibration or sweep shares it; harness.run clears the
    cache when a run ends.
    """
    v = drive.voltage(grid.times())
    f_s = mrr_resonance_offset(mrr, thermal_lag(v**2, mrr.tau_thermal, grid))
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

    def response(f, block):
        # a scalar 0 is the carrier term, whose transmission is cached
        if np.ndim(f) == 0 and f == 0.0:
            return carrier[block]
        return mrr_drop_response(models.mrr, f - f_s[block])

    total = link_power(
        models.modulator, response, component_powers(scenario, grid), grid.n_samples
    )
    total *= models.link_gain

    power = pd_detect(total, models.pd, grid)
    hint, settle = _scan_timing(models, drive)
    return ScanTrace(grid=grid, power=power, drive=drive, pulse_width_hint=hint, settle_time=settle)


def _scan_timing(models: LinkModels, drive: SawtoothDrive):
    """(pulse_width_hint, settle_time) of a scan, as ScanTrace defines them."""
    lo, hi = mrr_resonance_offset(models.mrr, np.square((drive.v_min, drive.v_max)))
    return float(models.mrr.fwhm / ((hi - lo) / drive.period)), 10.0 * models.mrr.tau_thermal


def _above_threshold_runs(above: np.ndarray):
    """(starts, stops) index arrays of the contiguous True runs, stops
    exclusive; both are empty when nothing is True."""
    idx = np.flatnonzero(above)
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate((idx[:1], idx[breaks + 1]))
    stops = np.concatenate((idx[breaks] + 1, idx[-1:] + 1))
    return starts, stops


def _merge_runs(starts, stops, gap: int):
    """Merge each run into the one before it when the gap between them
    (next start minus previous stop) is at most gap samples."""
    opens_group = np.concatenate(([True], starts[1:] - stops[:-1] > gap))
    closes_group = np.append(opens_group[1:], True)
    return starts[opens_group], stops[closes_group]


def _fill_randomness(seg: np.ndarray) -> float:
    """Fraction of samples below half max inside the segment's half-max extent.

    Zero for a clean unimodal pulse; large for envelopes filled with random
    power values, where the interior keeps dipping below half max.
    """
    half = 0.5 * float(np.max(seg))
    at_least_half = np.flatnonzero(seg >= half)
    lo, hi = at_least_half[0], at_least_half[-1]
    interior = seg[lo : hi + 1]
    return float(np.mean(interior < half))


def detect_pulses(trace: ScanTrace) -> list:
    """Find pulses/envelopes in a scan trace.

    The threshold sits THRESHOLD_FRAC of the trace's full scale above its
    floor (ScanTrace.level, the median). Above-threshold runs closer than
    one nominal pulse width merge into one envelope, so randomly-filled
    envelopes hold together. A merged group is split where its smoothed
    profile shows several prominent peaks, which resolves closely spaced
    clean tones.
    """
    from scipy.ndimage import uniform_filter1d
    from scipy.signal import find_peaks

    if trace.level is None:
        return []
    floor, fullscale, _ = trace.level
    power = trace.power
    threshold = floor + THRESHOLD_FRAC * fullscale
    # full scale is above the threshold, so there is at least one run
    starts, stops = _above_threshold_runs(power > threshold)

    gap = max(1, int(round(trace.pulse_width_hint * trace.grid.sample_rate)))
    # the smoothed profile has no structure finer than gap // 8 samples, so
    # peak-finding on a decimated copy is lossless and much cheaper, and a
    # group narrower than that is a noise spike, not a pulse
    dec = max(1, gap // 8)
    starts, stops = _merge_runs(starts, stops, gap)
    wide = stops - starts >= dec

    grid = trace.grid
    events = []
    for start, stop in zip(starts[wide], stops[wide]):
        seg = power[start:stop]
        smooth = uniform_filter1d(seg, size=min(gap, seg.size), mode="nearest")
        coarse = smooth[::dec]
        # prominence scales with the smoothed profile: a filled envelope
        # averages well below the raw full scale
        prom = THRESHOLD_FRAC * max(float(np.max(smooth)) - floor, 0.0)
        peaks = find_peaks(coarse, prominence=prom)[0] * dec if prom > 0 else []
        # split at the smoothed minimum between adjacent peaks
        minima = [a + int(np.argmin(smooth[a:b])) for a, b in zip(peaks, peaks[1:])]
        bounds = [0, *minima, seg.size]
        for s0, s1 in zip(bounds, bounds[1:]):
            sub = seg[s0:s1]
            peak_idx = int(np.argmax(sub))  # argmax takes the earliest tie
            if sub[peak_idx] <= threshold:
                continue
            # the grid's time of sample k, as TimeGrid.times() computes it
            peak_time = grid.t0 + (start + s0 + peak_idx) / grid.sample_rate
            events.append(
                PulseEvent(
                    peak_time=float(peak_time % trace.drive.period),
                    peak_power=float(sub[peak_idx]),
                    fill_randomness=_fill_randomness(sub),
                )
            )
    if trace.settle_time is not None:
        # crossings during the post-reset flyback are duplicates, not signals
        events = [ev for ev in events if ev.peak_time >= trace.settle_time]
    events.sort(key=lambda ev: ev.peak_time)
    return events


def tone_scans(models: LinkModels, drive: SawtoothDrive, grid: TimeGrid, tone_freqs, stage: int):
    """detect_pulses of one scan per tone; tone i's detector noise is drawn
    from (models.pd.seed, stage, i)."""
    for i, f in enumerate(tone_freqs):
        pd_i = replace(models.pd, seed=derive_seed(models.pd.seed, stage, i))
        tone = RfScenario(tones=(ToneSpec(freq=f),))
        yield detect_pulses(simulate_scan(tone, replace(models, pd=pd_i), drive, grid))


def calibrate(
    models: LinkModels,
    drive: SawtoothDrive,
    tone_freqs,
    grid: TimeGrid,
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
    for f, events in zip(tone_freqs, tone_scans(models, drive, grid, tone_freqs, STAGE_CAL)):
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
    """Frequencies of the events inside the table's delay range, in order.

    Events beyond the fitted delay range (plus a small jitter margin) are
    left out rather than extrapolated.
    """
    t0, t1 = table.valid_range
    margin = VALID_RANGE_MARGIN * (t1 - t0)
    inside = (ev.peak_time for ev in events if t0 - margin <= ev.peak_time <= t1 + margin)
    return [float(table.freq_at(t)) for t in inside]


def _occupancy_edges(above: np.ndarray, window: int):
    """Edge indices (fractional) where windowed exceedance crosses half its plateau.

    The exceedance fraction of a filled envelope ramps linearly through the
    filter's response tails and passes half its in-band plateau exactly at
    the envelope's true edge, which makes the crossing an unbiased edge
    estimate regardless of linewidth or threshold choice.
    """
    from scipy.ndimage import uniform_filter1d

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


def measure_span(trace: ScanTrace, table: CalibrationTable) -> float:
    """Frequency span of the envelope above the detection threshold.

    The threshold is the one detect_pulses uses: THRESHOLD_FRAC of the
    trace's full scale above its floor. Each edge sits where the fraction
    of above-threshold samples in a window of 0.6 pulse widths crosses half
    its plateau. The Lorentzian tails would push the literal first and last
    above-threshold samples outward by several linewidths.
    """
    if trace.level is None:
        raise ValueError("no envelope: trace is flat or noise-limited")
    floor, fullscale, _ = trace.level
    # full scale > 0 puts the peak above the threshold, so some sample is above it
    above = trace.power > floor + THRESHOLD_FRAC * fullscale

    w = max(5, int(round(0.6 * trace.pulse_width_hint * trace.grid.sample_rate)))
    i_lo, i_hi = _occupancy_edges(above, w)

    times = trace.grid.t0 + np.array([i_lo, i_hi]) * trace.grid.dt
    times = times % trace.drive.period
    f_lo, f_hi = table.freq_at(times[0]), table.freq_at(times[1])
    return float(f_hi - f_lo)


def estimate_hop_set(events, table: CalibrationTable) -> list:
    """Frequencies of the discrete sub-envelopes of a hopping trace, ascending.

    events are detect_pulses of the trace. The scan is a statistical
    measurement: peak delays of the sub-envelopes give the hop set, but the
    chronological hop order is not recoverable from a single scan.
    """
    if not events:
        raise ValueError("no sub-envelopes detected")
    freqs = estimate_frequencies(events, table)
    if not freqs:
        raise ValueError("all sub-envelopes fall outside the calibrated range")
    return sorted(freqs)


def scan_trace_to_csv(trace: ScanTrace, path):
    write_columns(path, "time_s,power\n", (trace.grid.times(), trace.power))


def scan_trace_from_csv(path, models: LinkModels, drive: SawtoothDrive) -> ScanTrace:
    """Reload a trace written by scan_trace_to_csv.

    The file holds only times and power; the pulse width hint and settle
    time come from the models and drive that produced it, as in
    simulate_scan, so the reloaded trace detects the same events. A file with
    fewer than 2 rows, time stamps that do not increase, or a power sample
    that detected power cannot take (negative or not finite), is refused.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if len(data) < 2:
        raise ValueError(f"{path}: need at least 2 samples, got {len(data)}")
    power = data[:, 1]
    if not np.all((power >= 0) & (power < np.inf)):
        raise ValueError(f"{path}: power samples must be finite and >= 0")
    t, dt = data[:, 0], np.diff(data[:, 0])
    if not np.all(dt > 0):
        raise ValueError(f"{path}: time stamps must increase row by row")
    rate = 1.0 / float(np.median(dt))
    grid = TimeGrid(sample_rate=rate, n_samples=len(t), t0=float(t[0]))
    hint, settle = _scan_timing(models, drive)
    return ScanTrace(
        grid=grid, power=power, drive=drive, pulse_width_hint=hint, settle_time=settle
    )
