"""Frequency-to-time mapping pipeline.

A sawtooth voltage sweeps the microring resonance across the measurement
band once per period; every spectral component of the input lights up the
detector when the resonance crosses it. Pulse delay encodes frequency via a
quadratic lookup table fitted during calibration. Statistical measurements
(frequency sets, chirp spans, hop sets) all run on the detected trace.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
# not scipy: it takes about a second to import, and of the scan path only the
# heater lag (lfilter) and detect_pulses (find_peaks) use it, each importing its
# function where it calls it; IFM runs never load it. The moving average is
# running_mean, not scipy.ndimage.uniform_filter1d, which allocates about 3x its
# output.
# Nor concurrent.futures (about 7 ms, mostly logging): the scans that draw
# their noise on a worker thread import it.

from ._csv import write_columns
from .rf_signals import RfScenario, TimeGrid, ToneSpec, component_tracks
from .photonic_link import (
    LinkModels,
    MrrModel,
    link_power,
    mrr_drop_response,
    mrr_resonance_offset,
    noise_stream,
    pd_detect,
    thermal_lag,
)
from .seeding import STAGE_CAL, STAGE_MEASURE, derive_seed

__all__ = [
    "SawtoothDrive",
    "ScanTrace",
    "TraceLevel",
    "PulseEvent",
    "CalibrationTable",
    "CalibrationError",
    "simulate_scan",
    "scan_frequency",
    "running_mean",
    "detect_pulses",
    "fit_calibration",
    "calibrate",
    "calibrated_scans",
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
    """Heater drive: one v_min -> v_max ramp over period, a scan's length,
    starting at t = 0."""

    v_min: float = 0.0
    v_max: float = 4.0
    period: float = 0.25

    def __post_init__(self):
        # a ramp through 0 V would heat, cool and heat again: the scan turns back
        if not 0 <= self.v_min < self.v_max:
            raise ValueError("need 0 <= v_min < v_max")
        if self.period <= 0:
            raise ValueError("period must be > 0")

    def voltage(self, t) -> np.ndarray:
        return self.v_min + (self.v_max - self.v_min) * (np.asarray(t, dtype=float) / self.period)


class TraceLevel(NamedTuple):
    """Signal level of a scan trace, in detected watts (ScanTrace.level)."""

    floor: float
    full_scale: float
    noise_sigma: float

    @property
    def threshold(self) -> float:
        """The detection threshold: THRESHOLD_FRAC of full scale above the floor."""
        return self.floor + THRESHOLD_FRAC * self.full_scale


@dataclass(frozen=True)
class ScanTrace:
    """Detected-power record of one scan period.

    pulse_width_hint is the nominal time-domain width of a static-tone
    crossing pulse (MRR linewidth / mean scan rate), 1% of the trace
    duration when not given; detectors use it to scale gap tolerances and
    smoothing windows.
    """

    grid: TimeGrid
    power: np.ndarray
    pulse_width_hint: float | None = None

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
    """One detected pulse or envelope of a scan."""

    peak_time: float  # s, delay from the ramp start
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

    @property
    def monotone(self) -> bool:
        """df/dt > 0 at both ends of the valid range, so the lookup inverts."""
        return min(self.slope_at(self.valid_range[0]), self.slope_at(self.valid_range[1])) > 0

    def save(self, path):
        a, b, c = self.coeffs
        t0, t1 = self.valid_range
        with open(path, "w", newline="\n") as fh:
            fh.write(f"{a:.10e} {b:.10e} {c:.10e}\n")
            fh.write(f"{t0:.10e} {t1:.10e}\n")
            fh.write(f"{self.fit_residual_rms:.10e}\n")

    @classmethod
    def load(cls, path):
        """Reload a table written by save; a malformed file (a number that
        is not finite, a valid range whose ends are reversed, a lookup that
        is not monotone) raises a ValueError that names path."""
        with open(path) as fh:
            lines = [ln.split() for ln in fh if ln.strip()]
        if len(lines) != 3:
            raise ValueError(f"{path}: expected 3 lines, got {len(lines)}")
        try:
            (a, b, c), (t0, t1), (rms,) = ([float(x) for x in ln] for ln in lines)
            if not np.all(np.isfinite((a, b, c, t0, t1, rms))):
                raise ValueError("every number must be finite")
            if t0 > t1:
                raise ValueError(f"valid range {t0!r}..{t1!r} is reversed")
            table = cls((a, b, c), (t0, t1), rms)
            if not table.monotone:
                raise ValueError("lookup is not monotone over its valid range")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return table


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
    seed: int = 0,
    draws=None,
    optical=None,
) -> ScanTrace:
    """Detected power of the scanning-filter path for a full scenario.

    Per sample: sawtooth voltage -> lagged V^2 -> scan frequency, then
    link_power through the ring response at each component's detuning
    from the scan frequency, through the detector, whose noise seed is seed.
    optical, when given, is the scenario's noiseless detector input
    (_optical_power), which scans that differ only in their noise share; it
    is only read. draws, given with it, are that noise's standard-normal
    draws, drawn ahead; they become the trace's power (pd_detect). draws
    without optical are refused.

    Without optical, the scan sums its optical power on this thread, one
    block of emitter tracks at a time, while one worker thread draws its
    noise, as tone_scans does; the worker has ended when the call returns
    or raises, and the trace equals a serial run's bit for bit.
    """
    if abs(grid.duration - drive.period) > grid.dt:
        raise ValueError(f"grid duration {grid.duration:.6e} s != {drive.period} s drive period")
    f_s = scan_frequency(models, drive, grid)
    if optical is None:
        if draws is not None:
            raise ValueError("draws are only taken with the optical power they add to")
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(1) as pool:
            drawn = pool.submit(noise_stream(seed).standard_normal, out=np.empty(grid.n_samples))
            optical = _optical_power(scenario, models, drive, grid)
        draws = drawn.result()
    elif np.shape(optical) != f_s.shape:
        raise ValueError(f"optical has shape {np.shape(optical)}, the scan axis {f_s.shape}")

    power = pd_detect(optical, models.pd, grid, seed, draws)
    return ScanTrace(grid, power, _pulse_width_hint(models, drive))


def _optical_power(
    scenario: RfScenario, models: LinkModels, drive: SawtoothDrive, grid: TimeGrid
) -> np.ndarray:
    """Noiseless detector input of a scan: link_power through the ring at
    each component's detuning from the scan frequency."""
    f_s, carrier = _scan_axis(models.mrr, drive, grid)

    def response(f, block):
        # a scalar 0 is the carrier term, whose transmission is cached
        if np.ndim(f) == 0 and f == 0.0:
            return carrier[block]
        return mrr_drop_response(models.mrr, f - f_s[block])

    tracks = functools.partial(component_tracks, scenario, grid)
    return link_power(models.modulator, response, tracks, grid.n_samples)


def _pulse_width_hint(models: LinkModels, drive: SawtoothDrive) -> float:
    """A scan's pulse_width_hint, as ScanTrace defines it."""
    lo, hi = mrr_resonance_offset(models.mrr, np.square((drive.v_min, drive.v_max)))
    return float(models.mrr.fwhm / ((hi - lo) / drive.period))


def running_mean(x, size: int, edge=None) -> np.ndarray:
    """Mean of the size samples around each sample of x, as a new float64 array.

    Window i is x[i - size // 2 : i - size // 2 + size]; samples beyond the
    ends read as edge, or as the end sample when edge is None. The arithmetic
    is scipy.ndimage.uniform_filter1d's (mode 'nearest', or 'constant' with
    cval=edge), so the result equals it bit for bit: the first window summed
    in order from +0.0, each later sum the one before plus the sample that
    enters minus the one that leaves, each sum divided by size. It is
    computed in the output, with no padded or float copy of x.
    """
    x = np.asarray(x)
    n, h = x.size, size // 2
    r = size - h - 1  # the window reaches h samples back and r ahead
    left, right = (x[0], x[-1]) if edge is None else (edge, edge)
    out = np.empty(n)
    first = np.concatenate(
        (np.full(h, left, dtype=float), x[: r + 1], np.full(max(r + 1 - n, 0), right, dtype=float))
    )
    out[0] = 0.0 + np.add.accumulate(first)[-1]  # + 0.0: a sum from +0.0 is never -0.0
    # out[i] = x[i + r] - x[i - h - 1], in pieces where each lies inside x or beyond an end
    cuts = sorted({1, n, *(c for c in (h + 1, n - r) if 1 < c < n)})
    for lo, hi in zip(cuts, cuts[1:]):
        ahead = x[lo + r : hi + r] if hi + r <= n else right
        behind = x[lo - h - 1 : hi - h - 1] if lo > h else left
        np.subtract(ahead, behind, out=out[lo:hi], dtype=np.float64)
    np.add.accumulate(out, out=out)
    out /= size
    return out


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

    The threshold is the trace's TraceLevel.threshold, THRESHOLD_FRAC of its
    full scale above its floor (the median). Above-threshold runs closer than
    one nominal pulse width merge into one envelope, so randomly-filled
    envelopes hold together. A merged group is split where its smoothed
    profile shows several prominent peaks, which resolves closely spaced
    clean tones. Events are found, and returned, in increasing peak time.
    """
    from scipy.signal import find_peaks

    if trace.level is None:
        return []
    floor, threshold, power = trace.level.floor, trace.level.threshold, trace.power
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
        smooth = running_mean(seg, min(gap, seg.size))
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
            events.append(
                PulseEvent(
                    # the grid's time of sample k, as TimeGrid.times() computes it
                    peak_time=float((start + s0 + peak_idx) / grid.sample_rate),
                    peak_power=float(sub[peak_idx]),
                    fill_randomness=_fill_randomness(sub),
                )
            )
    return events


def tone_scans(models: LinkModels, drive: SawtoothDrive, grid: TimeGrid, tone_freqs, seeds):
    """detect_pulses of one scan per tone, in tone order, as a list; tone i
    draws its detector noise from seeds[i].

    Consecutive tones of one frequency differ only in their noise, so they
    share one _optical_power; one is alive at a time, and it is dropped
    before the pulses of its last scan are found.

    The scans run on this thread, one after another, while one worker
    thread draws the next tone's detector noise, about half the time of a
    scan; the fill releases the GIL and runs no function of the program. So
    every scan function keeps its order and its thread, and the events and
    errors are a serial run's. The worker has ended when the call returns
    or raises.

    Two draw buffers, allocated before the loop, serve every tone: tone i's
    draws fill bufs[i % 2] and become its trace's power. Once its pulses are
    found, the events keep nothing of it, so the buffer takes the draws of
    the tone after next.
    """
    from concurrent.futures import ThreadPoolExecutor

    tone_freqs, seeds = list(tone_freqs), list(seeds)
    n, found = len(tone_freqs), []
    bufs = [np.empty(grid.n_samples) for _ in range(min(n, 2))]
    with ThreadPoolExecutor(1) as pool:
        # futures of the tones' draws, each submitted as the tone before it starts
        drawn = (pool.submit(noise_stream(s).standard_normal, out=bufs[i % 2])
                 for i, s in enumerate(seeds[:n]))
        ahead, optical = next(drawn, None), None
        for i, f in enumerate(tone_freqs):
            draws, ahead = ahead, next(drawn, None)
            tone = RfScenario(tones=(ToneSpec(freq=f),))
            if optical is None:
                optical = _optical_power(tone, models, drive, grid)
            trace = simulate_scan(tone, models, drive, grid, seeds[i], draws.result(), optical)
            if i + 1 == n or tone_freqs[i + 1] != f:
                optical = None
            found.append(detect_pulses(trace))
    return found


def fit_calibration(tone_freqs, scans) -> CalibrationTable:
    """Fit the frequency-vs-delay lookup from the pulses of known tones.

    scans holds detect_pulses of each tone's scan, in the order of
    tone_freqs. It is read tone by tone, and the first tone without exactly
    one pulse raises CalibrationError. The pulse delays and frequencies feed
    an ordinary least-squares quadratic fit, which needs 3 distinct delays.
    """
    tone_freqs = [float(f) for f in tone_freqs]
    if len(tone_freqs) < 3:
        raise CalibrationError("need at least 3 calibration tones for a quadratic fit")
    delays = []
    for f, events in zip(tone_freqs, scans):
        if len(events) != 1:
            raise CalibrationError(
                f"calibration tone {f / 1e9:.3f} GHz produced {len(events)} pulses (need 1)"
            )
        delays.append(events[0].peak_time)
    if len(set(delays)) < 3:
        raise CalibrationError(f"calibration pulses fall at {len(set(delays))} delays (need 3)")

    t = np.asarray(delays)
    f = np.asarray(tone_freqs)
    coeffs = np.polyfit(t, f, 2)
    resid = f - np.polyval(coeffs, t)
    table = CalibrationTable(
        coeffs=tuple(float(x) for x in coeffs),
        valid_range=(float(t.min()), float(t.max())),
        fit_residual_rms=float(np.sqrt(np.mean(resid**2))),
    )
    if not table.monotone:
        raise CalibrationError("fitted lookup is not monotone over the observed delays")
    return table


def calibrate(models: LinkModels, drive: SawtoothDrive, tone_freqs, grid: TimeGrid,
              seed: int = 0) -> CalibrationTable:
    """Fit the frequency-vs-delay lookup from known single tones: the table
    of calibrated_scans with no measure tones, so tone i is scanned alone
    with the noise seed derive_seed(seed, STAGE_CAL, i). The heater lag acts
    during calibration exactly as during measurement, so its bias cancels in
    use.
    """
    return calibrated_scans(models, drive, grid, tone_freqs, (), seed)[0]


def calibrated_scans(
    models: LinkModels, drive: SawtoothDrive, grid: TimeGrid, cal_tones, tones, seed: int = 0
):
    """(table, events): fit_calibration of one scan per tone of cal_tones,
    then detect_pulses of one scan per tone of tones, from one tone_scans.

    Tone i draws the noise seed derive_seed(seed, STAGE_CAL, i) in cal_tones
    and derive_seed(seed, STAGE_MEASURE, i) in tones. The scans run in
    frequency order, calibration first at equal frequency, so a frequency
    both lists hold takes one _optical_power. The fit reads cal_tones in
    their order, so neither the table nor the first error depends on the sort.
    """
    scans = [(float(f), STAGE_CAL, i) for i, f in enumerate(cal_tones)]
    scans += [(float(f), STAGE_MEASURE, i) for i, f in enumerate(tones)]
    scans.sort(key=lambda scan: scan[0])  # a stable sort keeps calibration first
    seeds = [derive_seed(seed, stage, i) for _, stage, i in scans]
    found = tone_scans(models, drive, grid, [f for f, _, _ in scans], seeds)
    events = dict(zip([scan[1:] for scan in scans], found))
    table = fit_calibration(cal_tones, (events[STAGE_CAL, i] for i in range(len(cal_tones))))
    return table, [events[STAGE_MEASURE, i] for i in range(len(tones))]


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

    above is the boolean mask of above-threshold samples. The exceedance
    fraction of a filled envelope ramps linearly through the filter's
    response tails and passes half its in-band plateau exactly at the
    envelope's true edge, which makes the crossing an unbiased edge
    estimate regardless of linewidth or threshold choice.
    """
    occ = running_mean(above, window, 0.0)
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

    The threshold is the one detect_pulses uses, TraceLevel.threshold. Each
    edge sits where the fraction of above-threshold samples in a window of
    0.6 pulse widths crosses half its plateau. The Lorentzian tails would
    push the literal first and last above-threshold samples outward by
    several linewidths.
    """
    if trace.level is None:
        raise ValueError("no envelope: trace is flat or noise-limited")
    # full scale > 0 puts the peak above the threshold, so some sample is above it
    above = trace.power > trace.level.threshold

    w = max(5, int(round(0.6 * trace.pulse_width_hint * trace.grid.sample_rate)))
    i_lo, i_hi = _occupancy_edges(above, w)

    times = np.array([i_lo, i_hi]) * trace.grid.dt
    f_lo, f_hi = table.freq_at(times[0]), table.freq_at(times[1])
    return float(f_hi - f_lo)


def estimate_hop_set(events, table: CalibrationTable) -> list:
    """Frequencies of the discrete sub-envelopes of a hopping trace inside
    the table's delay range, ascending.

    events are detect_pulses of the trace. The scan is a statistical
    measurement: peak delays of the sub-envelopes give the hop set, but the
    chronological hop order is not recoverable from a single scan.
    """
    if not events:
        raise ValueError("no sub-envelopes detected")
    return sorted(estimate_frequencies(events, table))


_TRACE_HEADER = "time_s,power"


def scan_trace_to_csv(trace: ScanTrace, path):
    write_columns(path, _TRACE_HEADER + "\n", (trace.grid.times(), trace.power))


def scan_trace_from_csv(path, models: LinkModels, drive: SawtoothDrive) -> ScanTrace:
    """Reload a trace written by scan_trace_to_csv.

    The file holds only times and power, and its first row is the start of
    the ramp; the pulse width hint comes from the models and drive that
    produced it, as in simulate_scan, so the reloaded trace detects the same
    events. A malformed file raises a ValueError that names path: a field
    that is not a number, a row of another length, fewer than 2 rows, rows
    of other than 2 fields, a power sample that detected power cannot take
    (negative or not finite), time stamps that are not finite or do not
    increase, rows that do not span one drive period, as simulate_scan
    refuses such a grid, a time step more than half a sample off the median
    step (a dropped row), or a first line other than the header.
    """
    try:
        with open(path) as fh:
            header = fh.readline().rstrip("\n")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if len(data) < 2:
            raise ValueError(f"need at least 2 samples, got {len(data)}")
        if data.shape[1] != 2:
            raise ValueError(f"rows must have 2 fields, not {data.shape[1]}")
        power = data[:, 1]
        if not np.all((power >= 0) & (power < np.inf)):
            raise ValueError("power samples must be finite and >= 0")
        if not np.all(np.isfinite(data[:, 0])):
            raise ValueError("time stamps must be finite")
        dt = np.diff(data[:, 0])
        if not np.all(dt > 0):
            raise ValueError("time stamps must increase row by row")
        step = float(np.median(dt))
        grid = TimeGrid(sample_rate=1.0 / step, n_samples=len(data))
        if abs(grid.duration - drive.period) > grid.dt:
            raise ValueError(f"rows span {grid.duration:.6e} s, not one {drive.period} s period")
        off = np.flatnonzero(np.abs(dt - step) > step / 2)
        if off.size:
            raise ValueError(f"time step {dt[off[0]]:.6e} s after row {off[0] + 1} is over half "
                             f"a sample off the median step {step:.6e} s")
        # last, so a file that an earlier check refuses keeps that message
        if header != _TRACE_HEADER:
            raise ValueError(f"first line is {header!r}, not the header {_TRACE_HEADER!r}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return ScanTrace(grid, power, _pulse_width_hint(models, drive))
