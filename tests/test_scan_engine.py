import math
import re
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mwfi.classifier import EnvelopeFeatures, compute_features
from mwfi.ifm_engine import lut_from_csv
from mwfi.photonic_link import LinkModels, MrrModel, PdModel, pd_detect, thermal_lag
from mwfi.rf_signals import ChirpSpec, HopSpec, RfScenario, TimeGrid, ToneSpec
from mwfi import scan_engine
from mwfi.scan_engine import (
    THRESHOLD_FRAC,
    _above_threshold_runs,
    _merge_runs,
    _occupancy_edges,
    _optical_power,
    _scan_axis,
    CalibrationError,
    CalibrationTable,
    SawtoothDrive,
    ScanTrace,
    TraceLevel,
    calibrate,
    calibrated_scans,
    detect_pulses,
    estimate_frequencies,
    estimate_hop_set,
    fit_calibration,
    measure_span,
    running_mean,
    scan_frequency,
    scan_trace_from_csv,
    scan_trace_to_csv,
    simulate_scan,
    tone_scans,
)
from mwfi.seeding import STAGE_CAL, STAGE_MEASURE, derive_seed

from conftest import CAL_TONES, INCOMMENSURATE_RATE, make_grid


def tone_scenario(*freqs):
    return RfScenario(tones=tuple(ToneSpec(freq=f) for f in freqs))


CHIRP_4G = ChirpSpec(center=15e9, span=4e9, pulse_width=1.6e-6, repeat_interval=4e-6)


def crossing_time_oracle(models, drive, grid, f_target):
    """Independent root-finding oracle: where the lagged scan trajectory
    crosses the target frequency (linear interpolation between samples)."""
    f_s = scan_frequency(models, drive, grid)
    k = int(np.argmax(f_s >= f_target))
    frac = (f_target - f_s[k - 1]) / (f_s[k] - f_s[k - 1])
    return (k - 1 + frac) * grid.dt


class TestSimulateScan:
    @pytest.mark.parametrize("n", [7, 9])
    def test_trace_power_must_match_its_grid(self, n):
        with pytest.raises(ValueError, match="power length must equal grid.n_samples"):
            ScanTrace(TimeGrid(sample_rate=1e6, n_samples=8), np.zeros(n))

    def test_empty_scenario_all_zero(self, noiseless_models, drive, grid_1ms):
        trace = simulate_scan(RfScenario(), noiseless_models, drive, grid_1ms)
        assert np.all(trace.power == 0.0)

    def test_single_tone_pulse_at_crossing(self, noiseless_models, drive, grid_1ms):
        trace = simulate_scan(tone_scenario(15e9), noiseless_models, drive, grid_1ms)
        events = detect_pulses(trace)
        assert len(events) == 1
        t_star = crossing_time_oracle(noiseless_models, drive, grid_1ms, 15e9)
        assert events[0].peak_time == pytest.approx(t_star, abs=grid_1ms.dt)
        # quasi-steady lag shifts the lag-free crossing 0.0625 sqrt(3.5) by ~tau
        assert events[0].peak_time == pytest.approx(0.11696409, abs=2e-6)

    def test_pulse_peak_power_is_modulator_weight(self, noiseless_models, drive, grid_1ms):
        trace = simulate_scan(tone_scenario(15e9), noiseless_models, drive, grid_1ms)
        ev = detect_pulses(trace)[0]
        assert ev.peak_power == pytest.approx(1.0 / (1.0 + (15.0 / 22.0) ** 2), rel=1e-3)

    def test_pulse_count_additivity(self, noiseless_models, drive, grid_1ms):
        trace = simulate_scan(tone_scenario(11e9, 14e9, 17e9), noiseless_models, drive, grid_1ms)
        assert len(detect_pulses(trace)) == 3

    def test_grid_must_span_drive(self, noiseless_models, drive):
        short = TimeGrid(sample_rate=1e6, n_samples=1000)
        with pytest.raises(ValueError, match="drive"):
            simulate_scan(RfScenario(), noiseless_models, drive, short)

    def test_same_seed_reproducible(self, drive, grid_1ms):
        models = LinkModels(pd=PdModel(noise_sigma=0.01))
        a = simulate_scan(tone_scenario(12e9), models, drive, grid_1ms, 9)
        b = simulate_scan(tone_scenario(12e9), models, drive, grid_1ms, 9)
        assert np.array_equal(a.power, b.power)

    def test_worker_noise_equals_pd_detect_fill(self, drive, grid_1ms):
        # a scan given neither draws nor optical draws its noise on a worker
        # thread; pd_detect's own fill of the same stream gives the same trace
        models = LinkModels(pd=PdModel(noise_sigma=0.02))
        sc = RfScenario(tones=(ToneSpec(freq=12e9),), chirps=(CHIRP_4G,))
        before = threading.active_count()
        got = simulate_scan(sc, models, drive, grid_1ms, 17).power
        assert threading.active_count() == before
        optical = _optical_power(sc, models, drive, grid_1ms)
        assert np.array_equal(got, pd_detect(optical, models.pd, grid_1ms, 17))

    def test_scene_scan_holds_about_two_trace_lengths(self, drive):
        # the emitter tracks are evaluated one block at a time, so the scan
        # holds its optical sum, its noise buffer and block-sized parts; whole
        # tracks took 4.13 trace lengths
        models = LinkModels()
        grid = make_grid(1.6e6, drive)  # 400,000 samples: 2.30 trace lengths measured
        scan_frequency(models, drive, grid)  # the cached axis belongs to the run
        tracemalloc.start()
        try:
            simulate_scan(RfScenario(chirps=(CHIRP_4G,)), models, drive, grid, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * grid.n_samples * 8

    def test_chirp_envelope_is_filled(self, drive, grid_fast):
        models = LinkModels(pd=PdModel(noise_sigma=0.01))
        trace = simulate_scan(RfScenario(chirps=(CHIRP_4G,)), models, drive, grid_fast, 2)
        events = detect_pulses(trace)
        assert len(events) == 1
        assert events[0].fill_randomness > 0.4


class TestDetectPulses:
    def test_two_tones_far_apart(self, noiseless_models, drive, grid_1ms):
        # 10 and 15 GHz map to two cleanly separated pulses
        trace = simulate_scan(tone_scenario(10e9, 15e9), noiseless_models, drive, grid_1ms)
        assert len(detect_pulses(trace)) == 2

    def test_one_gigahertz_resolution(self, noiseless_models, drive, grid_1ms):
        trace = simulate_scan(tone_scenario(10e9, 11e9), noiseless_models, drive, grid_1ms)
        assert len(detect_pulses(trace)) == 2
        trace = simulate_scan(tone_scenario(10e9, 10.4e9), noiseless_models, drive, grid_1ms)
        assert len(detect_pulses(trace)) == 1

    def test_flat_trace_no_events(self, grid_1ms):
        from mwfi.scan_engine import ScanTrace

        flat = ScanTrace(grid=grid_1ms, power=np.zeros(grid_1ms.n_samples))
        assert detect_pulses(flat) == []

    def test_pure_noise_no_events(self):
        from mwfi.scan_engine import ScanTrace

        grid = TimeGrid(sample_rate=1e6, n_samples=250000)
        rng = np.random.default_rng(3)
        noise = np.maximum(rng.normal(0.5, 0.01, grid.n_samples), 0)
        trace = ScanTrace(grid=grid, power=noise, pulse_width_hint=6.8e-3)
        assert detect_pulses(trace) == []

    def test_static_pulse_fill_near_zero(self, noiseless_models, drive, grid_1ms):
        trace = simulate_scan(tone_scenario(15e9), noiseless_models, drive, grid_1ms)
        assert detect_pulses(trace)[0].fill_randomness < 0.1

    def test_a_tone_at_the_ramp_start_gives_its_pulse(self, noiseless_models, drive, grid_1ms):
        # the heater starts settled, so a tone inside the scan's reach that
        # crosses 275 us into the ramp is detected like any other
        trace = simulate_scan(tone_scenario(8.00003e9), noiseless_models, drive, grid_1ms)
        events = detect_pulses(trace)
        assert len(events) == 1
        assert events[0].peak_time == pytest.approx(275e-6, abs=5e-6)

    def test_one_sample_noise_spike_is_not_a_pulse(self, drive, grid_fast):
        # with this noise stream one sample on the slow rising tail of the
        # 10 GHz pulse crosses the threshold 38 ms before the real peak
        seed = derive_seed(311, STAGE_CAL, 0)
        trace = simulate_scan(tone_scenario(10e9), LinkModels(), drive, grid_fast, seed)
        assert len(detect_pulses(trace)) == 1


def loop_merged_runs(above, gap):
    """Runs of True found and merged sample by sample: the reference for
    the array-at-a-time pair."""
    runs = []
    for k, on in enumerate(above):
        if on and runs and runs[-1][1] == k:
            runs[-1][1] = k + 1
        elif on:
            runs.append([k, k + 1])
    merged = []
    for start, stop in runs:
        if merged and start - merged[-1][1] <= gap:
            merged[-1][1] = stop
        else:
            merged.append([start, stop])
    return merged


@settings(max_examples=200, deadline=None)
@given(above=st.lists(st.booleans(), min_size=1, max_size=200), gap=st.integers(1, 6))
def test_run_helpers_match_loop(above, gap):
    def pairs(starts, stops):
        return [[a, b] for a, b in zip(starts.tolist(), stops.tolist())]

    starts, stops = _above_threshold_runs(np.array(above))
    assert pairs(starts, stops) == loop_merged_runs(above, 0)  # gap 0 merges nothing
    if starts.size:
        assert pairs(*_merge_runs(starts, stops, gap)) == loop_merged_runs(above, gap)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), noise_sigma=st.floats(1e-3, 0.2))
def test_pure_noise_reads_as_no_signal(seed, noise_sigma):
    # a constant optical level through the detector noise, on a 5 ms scan
    grid = TimeGrid(sample_rate=1e6, n_samples=5000)
    pd = PdModel(noise_sigma=noise_sigma)
    power = pd_detect(np.full(grid.n_samples, 0.5), pd, grid, seed)
    trace = ScanTrace(grid=grid, power=power)
    assert trace.level is None
    events = detect_pulses(trace)
    assert events == []
    with pytest.raises(ValueError, match="no envelope"):
        measure_span(trace, CalibrationTable((0.0, 2e12, 1e10), (0.0, 5e-3), 0.0))
    assert compute_features(events, trace) == EnvelopeFeatures(0, False, None)


@settings(max_examples=15, deadline=None)
@given(
    amplitude=st.floats(0.3, 2.0),
    freq=st.floats(10.5e9, 19.5e9),
    seed=st.integers(0, 2**32 - 1),
)
def test_delays_do_not_depend_on_optical_scale(drive, grid_1ms, amplitude, freq, seed):
    # detection is relative to the trace's level and the noise scales with
    # the peak power, so an amplitude moves no pulse; IEEE rounding
    # may, by at most one sample
    def delays(amp):
        scenario = RfScenario(tones=(ToneSpec(freq=freq, amplitude=amp),))
        trace = simulate_scan(scenario, LinkModels(), drive, grid_1ms, seed)
        # in samples, each peak's index in the scan
        return np.rint([ev.peak_time * grid_1ms.sample_rate for ev in detect_pulses(trace)])

    base = delays(1.0)
    scaled = delays(amplitude)
    assert len(base) == 1
    assert len(scaled) == len(base)
    assert np.all(np.abs(scaled - base) <= 1)


def level_oracle(power):
    """ScanTrace.level as two full np.medians compute it."""
    floor = float(np.median(power))
    fullscale = float(np.max(power)) - floor
    noise_sigma = 1.4826 * float(np.median(np.abs(power - floor)))
    if fullscale <= 0 or fullscale <= 8.0 * noise_sigma:
        return None
    return TraceLevel(floor, fullscale, noise_sigma)


# few distinct values, 0.0 among them, so a trace is full of ties
LEVEL_VALUES = (0.0, 1e-3, 0.1, 0.25, 1.0 / 3.0, 0.5, 1.0, 7.0)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 2000),
    values=st.lists(st.sampled_from(LEVEL_VALUES), min_size=1, max_size=4, unique=True),
    jitter=st.sampled_from([0.0, 1e-3, 0.3]),
    n_spikes=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_level_equals_two_medians(n, values, jitter, n_spikes, seed):
    # one value without jitter is a constant trace; jitter below zero clamps
    # to 0.0 as the detector does; spikes give the trace a signal
    rng = np.random.default_rng(seed)
    power = rng.choice(np.array(values), size=n)
    if jitter:
        power = np.maximum(power + jitter * rng.uniform(-1.0, 1.0, size=n), 0.0)
    power[rng.integers(0, n, size=n_spikes)] = 1e3
    grid = TimeGrid(sample_rate=1e6, n_samples=n)
    trace = ScanTrace(grid=grid, power=power)
    assert trace.level == level_oracle(power)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample(bad):
    # a 5 ms scan holding one clean pulse at 2 ms, and one non-finite sample
    grid = TimeGrid(sample_rate=1e6, n_samples=5000)
    power = np.exp(-(((grid.times() - 2e-3) / 20e-6) ** 2))
    power[100] = bad
    trace = ScanTrace(grid=grid, power=power)
    if bad < 0:
        # -inf sorts first: the floor and the pulse stand
        assert trace.level == level_oracle(power)
        events = detect_pulses(trace)
        assert len(events) == 1
        assert events[0].peak_time == pytest.approx(2e-3, abs=grid.dt)
        # -inf on half the samples is the floor: no level either
        power[: grid.n_samples // 2] = bad
        assert ScanTrace(grid=grid, power=power).level is None
        return
    # NaN and +inf: no level, so no pulse and no span
    assert trace.level is None
    assert detect_pulses(trace) == []
    with pytest.raises(ValueError, match="no envelope"):
        measure_span(trace, CalibrationTable((0.0, 2e12, 1e10), (0.0, 5e-3), 0.0))


@st.composite
def blocky_power(draw):
    """Blocks of equal samples: exact zeros, +-inf, a value and its neighbours."""
    base = draw(st.floats(allow_nan=False, allow_infinity=False))
    near = [math.nextafter(base, math.inf), math.nextafter(base, -math.inf)]
    value = st.sampled_from([0.0, np.inf, -np.inf, base, *near]) | st.floats(allow_nan=False)
    blocks = draw(st.lists(st.tuples(value, st.integers(1, 40)), min_size=1, max_size=6))
    return np.concatenate([np.full(n, v) for v, n in blocks])


@settings(max_examples=50, deadline=None)
@given(power=blocky_power())
def test_a_level_puts_the_peak_above_the_threshold(power):
    # detect_pulses and measure_span find a sample above the threshold
    # without checking: rounding never lifts floor + THRESHOLD_FRAC x full
    # scale to the peak, floor + full scale
    grid = TimeGrid(sample_rate=1e6, n_samples=power.size)
    trace = ScanTrace(grid=grid, power=power)
    if trace.level is not None:
        floor, fullscale, _ = trace.level
        assert np.max(power) > floor + THRESHOLD_FRAC * fullscale


def uncached_scan_frequency(mrr, drive, grid):
    v2_eff = thermal_lag(drive.voltage(grid.times()) ** 2, mrr.tau_thermal, grid)
    return mrr.f_offset0 + mrr.k_thermal * v2_eff


class TestScanAxisCache:
    def test_axis_is_read_only(self, noiseless_models, drive, grid_1ms):
        f_s = scan_frequency(noiseless_models, drive, grid_1ms)
        assert not f_s.flags.writeable
        with pytest.raises(ValueError):
            f_s[0] = 0.0

    def test_alternating_keys_match_uncached_formula(self):
        drives = (SawtoothDrive(period=2e-3), SawtoothDrive(v_max=3.0, period=2e-3))
        grids = [make_grid(rate, drives[0]) for rate in (1e6, 1.5e6)]
        mrrs = (MrrModel(), MrrModel(k_thermal=2.5e9, tau_thermal=20e-6))
        for _ in range(2):
            for drive in drives:
                for grid in grids:
                    for mrr in mrrs:
                        got = scan_frequency(LinkModels(mrr=mrr), drive, grid)
                        assert np.array_equal(got, uncached_scan_frequency(mrr, drive, grid))

    def test_noisy_trace_same_with_cold_and_warm_cache(self, drive, grid_1ms):
        models = LinkModels()
        scenario = tone_scenario(12e9, 17e9)
        _scan_axis.cache_clear()
        cold = simulate_scan(scenario, models, drive, grid_1ms, 7).power
        assert _scan_axis.cache_info().currsize == 1
        warm = simulate_scan(scenario, models, drive, grid_1ms, 7).power
        assert _scan_axis.cache_info().hits >= 2
        assert np.array_equal(cold, warm)


class TestCalibrate:
    def test_quadratic_fit_quality(self, table_1ms, grid_1ms):
        # lag-free law is exactly quadratic; residuals stay sub-sample
        a, b, c = table_1ms.coeffs
        assert a == pytest.approx(512e9, rel=1e-3)
        assert c == pytest.approx(8e9, rel=1e-2)
        slope = table_1ms.slope_at(table_1ms.valid_range[1])
        assert table_1ms.fit_residual_rms <= slope * grid_1ms.dt

    def test_monotone_on_valid_range(self, table_1ms):
        t = np.linspace(*table_1ms.valid_range, 200)
        assert np.all(np.diff(table_1ms.freq_at(t)) > 0)

    def test_two_tones_rejected(self, noiseless_models, drive, grid_1ms):
        with pytest.raises(CalibrationError, match="3"):
            calibrate(noiseless_models, drive, [10e9, 20e9], grid_1ms)

    @pytest.mark.parametrize("tones", [[12e9] * 3, [12e9, 12e9, 18e9]], ids=["one", "two"])
    def test_coincident_delays_rejected(self, noiseless_models, drive, grid_1ms, tones):
        # a quadratic through fewer than 3 delays is rank-deficient: it is
        # refused before np.polyfit, whose RankWarning the suite turns into an error
        with pytest.raises(CalibrationError, match="delays"):
            calibrate(noiseless_models, drive, tones, grid_1ms)

    def test_out_of_band_tone_aliases_through_image(self, noiseless_models, drive, grid_1ms):
        # a 50 GHz tone's image sideband wraps into the scan at 30 GHz, so
        # calibration sees a pulse at the wrong delay and the fit degenerates
        with pytest.raises(CalibrationError):
            calibrate(noiseless_models, drive, [10e9, 15e9, 50e9], grid_1ms)

    def test_repeatable_with_seed(self, drive, grid_1ms):
        models = LinkModels(pd=PdModel(noise_sigma=0.01))
        t1 = calibrate(models, drive, CAL_TONES, grid_1ms, 17)
        t2 = calibrate(models, drive, CAL_TONES, grid_1ms, 17)
        assert t1.coeffs == t2.coeffs

    def test_calibration_holds_about_three_trace_lengths(self, drive, grid_1ms):
        # the loop owns two draw buffers, one per tone parity, so it holds
        # the optical sum, those two and, while pulses are found, the level's
        # sorted copy, but never all four at once; with a new buffer per tone
        # it held 4.15 trace lengths here
        models = LinkModels(pd=PdModel(noise_sigma=0.01))
        scan_frequency(models, drive, grid_1ms)  # the cached axis belongs to the run
        tracemalloc.start()
        try:
            calibrate(models, drive, CAL_TONES[::5], grid_1ms, 17)  # 10, 15 and 20 GHz
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * grid_1ms.n_samples * 8


class TestToneScans:
    """tone_scans scans on the caller's thread while a worker draws the next
    tone's noise; its events equal the serial loop's, tone for tone."""

    DRIVE = SawtoothDrive(period=0.02)
    GRID = make_grid(1e6, DRIVE)  # 20,000 samples: two blocks of the power sum
    MODELS = LinkModels(pd=PdModel(noise_sigma=0.02))

    def serial(self, tones, seeds, models=MODELS):
        return [
            detect_pulses(simulate_scan(tone_scenario(f), models, self.DRIVE, self.GRID, s))
            for f, s in zip(tones, seeds)
        ]

    @settings(max_examples=10, deadline=None)
    @given(
        scans=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.integers(0, 2**32 - 1)), min_size=1, max_size=5
        ),
    )
    def test_events_equal_serial_scans(self, scans):
        # tones anywhere inside the scan's reach, one and more than one ahead
        f_s = scan_frequency(self.MODELS, self.DRIVE, self.GRID)
        lo, hi = float(f_s.min()), float(f_s.max())
        tones = [lo + x * (hi - lo) for x, _ in scans]
        seeds = [seed for _, seed in scans]
        got = tone_scans(self.MODELS, self.DRIVE, self.GRID, tones, seeds)
        assert got == self.serial(tones, seeds)

    def test_cold_calibration_builds_the_axis_once(self, monkeypatch):
        calls = []
        real = scan_engine.thermal_lag

        def slow_lag(*args):
            # a slow heater lag would give a second thread time to miss the
            # cache too
            calls.append(args)
            time.sleep(0.05)
            return real(*args)

        monkeypatch.setattr(scan_engine, "thermal_lag", slow_lag)
        _scan_axis.cache_clear()
        calibrate(self.MODELS, self.DRIVE, CAL_TONES, self.GRID, 3)
        assert len(calls) == 1

    def test_scan_functions_run_on_the_calling_thread(self, monkeypatch):
        # the worker only fills noise buffers; tracers and profilers that
        # follow one thread see every scan call
        threads = set()

        def on_thread(fn):
            def wrapped(*args, **kwargs):
                threads.add(threading.get_ident())
                return fn(*args, **kwargs)

            return wrapped

        for name in ("simulate_scan", "detect_pulses", "pd_detect", "mrr_drop_response",
                     "link_power"):
            monkeypatch.setattr(scan_engine, name, on_thread(getattr(scan_engine, name)))
        tone_scans(self.MODELS, self.DRIVE, self.GRID, CAL_TONES, range(len(CAL_TONES)))
        assert threads == {threading.get_ident()}

    def test_the_worker_ends_with_the_call(self, monkeypatch):
        seeds = range(len(CAL_TONES))
        before = threading.active_count()
        got = tone_scans(self.MODELS, self.DRIVE, self.GRID, CAL_TONES, seeds)
        assert got == self.serial(CAL_TONES, seeds)
        assert threading.active_count() == before

        # a scan that raises at the second tone, while the third tone's
        # noise is being drawn
        real, found = scan_engine.detect_pulses, []

        def fails_second(trace):
            if len(found) == 1:
                raise RuntimeError("second tone")
            found.append(real(trace))
            return found[-1]

        monkeypatch.setattr(scan_engine, "detect_pulses", fails_second)
        with pytest.raises(RuntimeError, match="second tone"):
            tone_scans(self.MODELS, self.DRIVE, self.GRID, CAL_TONES, seeds)
        assert threading.active_count() == before

    def test_error_surfaces_at_its_tone(self):
        # seed 13 at this noise level: 18 GHz gives 2 pulses and so does 19
        # GHz, whose noise is drawn while 18 GHz is scanned
        models = LinkModels(pd=PdModel(noise_sigma=0.03))
        seeds = [derive_seed(13, STAGE_CAL, i) for i in range(len(CAL_TONES))]
        counts = [len(ev) for ev in self.serial(CAL_TONES, seeds, models)]
        first = next(i for i, n in enumerate(counts) if n != 1)
        assert 0 < first and counts[first + 1] != 1
        name = f"tone {CAL_TONES[first] / 1e9:.3f} GHz produced"
        with pytest.raises(CalibrationError, match=name):
            calibrate(models, self.DRIVE, CAL_TONES, self.GRID, 13)


class TestCalibratedScans:
    """One pass of tone_scans over the calibration and measure tones, in
    frequency order, gives the serial calibrate-then-measure result; scans
    of one frequency share one optical sum."""

    DRIVE = TestToneScans.DRIVE
    GRID = TestToneScans.GRID
    MODELS = TestToneScans.MODELS

    def serial_events(self, tones, seed, stage):
        seeds = (derive_seed(seed, stage, i) for i in range(len(tones)))
        return [
            detect_pulses(simulate_scan(tone_scenario(f), self.MODELS, self.DRIVE, self.GRID, s))
            for f, s in zip(tones, seeds)
        ]

    @settings(max_examples=15, deadline=None)
    @given(
        cal_fracs=st.lists(st.floats(0.05, 0.95), min_size=3, max_size=5),
        picks=st.lists(st.integers(0, 4), max_size=3),
        fresh=st.lists(st.floats(0.0, 1.0), max_size=3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_equals_serial_calibrate_then_measure(self, cal_fracs, picks, fresh, seed, data):
        f_s = scan_frequency(self.MODELS, self.DRIVE, self.GRID)
        lo, hi = float(f_s.min()), float(f_s.max())
        cal = [lo + x * (hi - lo) for x in sorted(cal_fracs)]
        # measure tones at calibration frequencies (shared scans, some more
        # than once) and elsewhere, in any order
        tones = [cal[k % len(cal)] for k in picks] + [lo + x * (hi - lo) for x in fresh]
        tones = data.draw(st.permutations(tones))

        want_cal = self.serial_events(cal, seed, STAGE_CAL)
        want = self.serial_events(tones, seed, STAGE_MEASURE)
        try:
            want_table = calibrate(self.MODELS, self.DRIVE, cal, self.GRID, seed)
        except CalibrationError as exc:
            with pytest.raises(CalibrationError, match=re.escape(str(exc))):
                calibrated_scans(self.MODELS, self.DRIVE, self.GRID, cal, tones, seed)
            return

        got_cal = []
        real_fit = scan_engine.fit_calibration

        def spy(freqs, scans):
            got_cal.extend(scans)
            return real_fit(freqs, got_cal)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scan_engine, "fit_calibration", spy)
            table, got = calibrated_scans(self.MODELS, self.DRIVE, self.GRID, cal, tones, seed)
        assert got_cal == want_cal
        assert got == want
        assert table == want_table
        def errors(table, scans):
            return [[e - f for e in estimate_frequencies(ev, table)] for f, ev in zip(tones, scans)]

        assert errors(table, got) == errors(want_table, want)

    def test_unsorted_calibration_fits_in_the_given_order(self):
        # scanned in frequency order, fitted in the order given
        tones = [15e9, 10e9, 20e9, 12e9]
        want = fit_calibration(tones, self.serial_events(tones, 6, STAGE_CAL))
        got = calibrate(self.MODELS, self.DRIVE, tones, self.GRID, 6)
        assert got == want

    def test_a_shared_frequency_sums_once(self, monkeypatch):
        calls = []
        real = scan_engine.link_power

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(scan_engine, "link_power", counted)
        _, events = calibrated_scans(
            self.MODELS, self.DRIVE, self.GRID, [10e9, 15e9, 20e9], [15e9], 4
        )
        assert len(calls) == 3
        assert events == self.serial_events([15e9], 4, STAGE_MEASURE)
        calls.clear()
        tone_scans(self.MODELS, self.DRIVE, self.GRID, [12e9] * 3, [1, 2, 3])
        assert len(calls) == 1

    def test_one_optical_sum_alive_at_a_time(self, monkeypatch):
        # at each scan's pulse search, only a sum that a later scan still
        # reads is alive
        alive, live_at_detect = [], []
        real_sum, real_detect = scan_engine._optical_power, scan_engine.detect_pulses

        def tracked_sum(*args):
            optical = real_sum(*args)
            alive.append(weakref.ref(optical))
            return optical

        def tracked_detect(trace):
            live_at_detect.append(sum(ref() is not None for ref in alive))
            return real_detect(trace)

        monkeypatch.setattr(scan_engine, "_optical_power", tracked_sum)
        monkeypatch.setattr(scan_engine, "detect_pulses", tracked_detect)
        tones = [12e9, 15e9, 15e9, 15e9, 18e9, 18e9]
        tone_scans(self.MODELS, self.DRIVE, self.GRID, tones, range(6))
        assert len(alive) == 3
        assert live_at_detect == [0, 1, 1, 0, 1, 0]

    def test_refuses_an_optical_sum_of_another_length(self):
        tone = tone_scenario(15e9)
        with pytest.raises(ValueError, match="optical has shape"):
            simulate_scan(tone, self.MODELS, self.DRIVE, self.GRID, 0, None, np.zeros(5))

    def test_refuses_draws_without_an_optical_sum(self):
        # draws without an optical sum would be dropped for the seed's own noise
        draws = np.zeros(self.GRID.n_samples)
        with pytest.raises(ValueError, match="draws are only taken with the optical power"):
            simulate_scan(tone_scenario(15e9), self.MODELS, self.DRIVE, self.GRID, 3, draws)
        assert not draws.any()


class TestEstimateFrequencies:
    def test_round_trip_within_quantization(self, noiseless_models, drive, grid_1ms, table_1ms):
        for f in (10e9, 13.7e9, 15e9, 18.2e9, 20e9):
            trace = simulate_scan(tone_scenario(f), noiseless_models, drive, grid_1ms)
            events = detect_pulses(trace)
            est = estimate_frequencies(events, table_1ms)[0]
            bound = table_1ms.slope_at(events[0].peak_time) * grid_1ms.dt
            assert abs(est - f) <= bound

    def test_two_tone_deviation_bound(self, noiseless_models, drive, grid_1ms, table_1ms):
        # both tones recovered within the 510 MHz two-tone deviation bound
        trace = simulate_scan(tone_scenario(10e9, 15e9), noiseless_models, drive, grid_1ms)
        ests = estimate_frequencies(detect_pulses(trace), table_1ms)
        assert abs(ests[0] - 10e9) < 510e6
        assert abs(ests[1] - 15e9) < 510e6

    def test_out_of_range_event_flagged(self, table_1ms):
        from mwfi.scan_engine import PulseEvent

        # an event past the table's delays is left out, one inside is kept
        out = PulseEvent(peak_time=0.24, peak_power=1.0, fill_randomness=0.0)
        assert estimate_frequencies([out], table_1ms) == []
        t = sum(table_1ms.valid_range) / 2
        inside = PulseEvent(peak_time=t, peak_power=1.0, fill_randomness=0.0)
        assert estimate_frequencies([out, inside], table_1ms) == [table_1ms.freq_at(t)]


class TestMeasureSpan:
    @pytest.mark.parametrize("span", [4e9, 6e9])
    def test_chirp_span_within_3_percent(self, drive, grid_fast, table_fast, span):
        chirp = ChirpSpec(center=15e9, span=span, pulse_width=1.6e-6, repeat_interval=4e-6)
        for seed in range(3):
            models = LinkModels(pd=PdModel(noise_sigma=0.01))
            trace = simulate_scan(RfScenario(chirps=(chirp,)), models, drive, grid_fast, seed)
            measured = measure_span(trace, table_fast)
            assert abs(measured - span) / span < 0.03

    def test_static_tone_reports_instrument_width(
        self, noiseless_models, drive, grid_1ms, table_1ms
    ):
        # a zero-span input reads back the filter's own 10%-level width:
        # 2 * (fwhm/2) * sqrt(1/0.1 - 1) = 3 * fwhm
        trace = simulate_scan(tone_scenario(15e9), noiseless_models, drive, grid_1ms)
        measured = measure_span(trace, table_1ms)
        assert measured == pytest.approx(3 * 875e6, rel=0.15)

    def test_raw_edges_show_lorentzian_bias(self, drive, grid_fast, table_fast):
        # documents why measure_span uses occupancy edges: the literal first
        # and last above-threshold samples sit far out in the Lorentzian tails
        models = LinkModels(pd=PdModel(noise_sigma=0.01))
        trace = simulate_scan(RfScenario(chirps=(CHIRP_4G,)), models, drive, grid_fast, 0)
        floor, fullscale, _ = trace.level
        hit = np.flatnonzero(trace.power > floor + THRESHOLD_FRAC * fullscale)
        times = hit[[0, -1]] * trace.grid.dt
        raw = float(table_fast.freq_at(times[1]) - table_fast.freq_at(times[0]))
        assert raw - 4e9 > 1e9

    @pytest.mark.parametrize("n", [1_000, 250_000, 679_570])
    def test_occupancy_of_the_mask_equals_its_float_copy(self, n):
        from scipy.ndimage import uniform_filter1d

        # a filled envelope over a sixth of the trace, sparse noise elsewhere
        rng = np.random.default_rng(n)
        above = rng.random(n) < 0.02
        above[n // 3 : n // 2] = rng.random(n // 2 - n // 3) < 0.6
        w = max(5, n // 400)
        copy = uniform_filter1d(above.astype(float), size=w, mode="constant", cval=0.0)
        assert running_mean(above, w, 0.0).tobytes() == copy.tobytes()
        assert _occupancy_edges(above, w) == _occupancy_edges(above.astype(float), w)

    def test_flat_trace_raises(self, grid_1ms, table_1ms):
        from mwfi.scan_engine import ScanTrace

        flat = ScanTrace(grid=grid_1ms, power=np.zeros(grid_1ms.n_samples))
        with pytest.raises(ValueError, match="no envelope"):
            measure_span(flat, table_1ms)


class TestRunningMean:
    """running_mean is scipy.ndimage.uniform_filter1d's arithmetic without its
    copies, so the two agree bit for bit, signed zeros included."""

    VALUES = st.one_of(
        st.floats(allow_nan=False), st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])
    )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_uniform_filter1d(self, data):
        from scipy.ndimage import uniform_filter1d

        # runs of one value, so blocks of exact zeros and of -0.0 occur
        values = st.booleans() if data.draw(st.booleans()) else self.VALUES
        runs = data.draw(st.lists(st.tuples(values, st.integers(1, 8)), min_size=1, max_size=12))
        x = np.repeat([v for v, _ in runs], [k for _, k in runs])
        size = data.draw(st.integers(1, 3 * x.size + 1))
        edge = data.draw(st.none() | st.sampled_from([0.0, -0.0, 1.0, -2.5]))
        mode = dict(mode="nearest") if edge is None else dict(mode="constant", cval=edge)
        with np.errstate(all="ignore"):  # inf - inf and overflowing sums
            got = running_mean(x, size, edge)
        want = uniform_filter1d(x, size, output=np.float64, **mode)
        assert got.tobytes() == want.tobytes(), (x, size, edge, got, want)

    def test_boolean_input_needs_no_float_copy(self):
        above = np.random.default_rng(3).random(200_000) < 0.3
        running_mean(above, 1_000, 0.0)
        tracemalloc.start()
        try:
            running_mean(above, 1_000, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the float64 output and buffers of a few thousand samples
        assert peak <= 1.1 * above.size * 8


class TestEstimateHopSet:
    def test_three_hop_set(self, drive, grid_fast, table_fast):
        sc = RfScenario(hops=(HopSpec(freqs=(10e9, 13e9, 18e9), dwell=80e-9),))
        models = LinkModels(pd=PdModel(noise_sigma=0.01))
        trace = simulate_scan(sc, models, drive, grid_fast, 4)
        est = estimate_hop_set(detect_pulses(trace), table_fast)
        assert len(est) == 3
        for got, want in zip(est, (10e9, 13e9, 18e9)):
            assert abs(got - want) < 200e6

    def test_four_hop_set_sorted(self, drive, grid_fast, table_fast):
        sc = RfScenario(hops=(HopSpec(freqs=(17e9, 10e9, 15e9, 13e9), dwell=80e-9),))
        models = LinkModels(pd=PdModel(noise_sigma=0.01))
        trace = simulate_scan(sc, models, drive, grid_fast, 5)
        est = estimate_hop_set(detect_pulses(trace), table_fast)
        assert len(est) == 4
        assert est == sorted(est)  # chronological order is not recoverable

    def test_single_tone_degenerates_to_one(self, noiseless_models, drive, grid_1ms, table_1ms):
        trace = simulate_scan(tone_scenario(14e9), noiseless_models, drive, grid_1ms)
        est = estimate_hop_set(detect_pulses(trace), table_1ms)
        assert len(est) == 1
        assert est[0] == pytest.approx(14e9, abs=50e6)

    def test_empty_trace_raises(self, grid_1ms, table_1ms):
        from mwfi.scan_engine import ScanTrace

        flat = ScanTrace(grid=grid_1ms, power=np.zeros(grid_1ms.n_samples))
        with pytest.raises(ValueError):
            estimate_hop_set(detect_pulses(flat), table_1ms)


class TestPersistence:
    def test_calibration_table_round_trip(self, table_1ms, tmp_path):
        path = tmp_path / "cal.txt"
        table_1ms.save(path)
        loaded = CalibrationTable.load(path)
        assert loaded.coeffs == pytest.approx(table_1ms.coeffs)
        assert loaded.valid_range == pytest.approx(table_1ms.valid_range)
        assert loaded.fit_residual_rms == pytest.approx(table_1ms.fit_residual_rms)

    @pytest.mark.parametrize("text, n", [("1.0 2.0 3.0\n0.0 1.0\n", 2), ("1 2 3\n0 1\n0\n0\n", 4)])
    def test_calibration_table_refuses_a_wrong_line_count(self, tmp_path, text, n):
        path = tmp_path / "cal.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: expected 3 lines, got {n}")):
            CalibrationTable.load(path)

    def test_calibration_table_refuses_a_non_numeric_field(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("1.0 2.0 3.0\n0.0 x\n0.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: could not convert")):
            CalibrationTable.load(path)

    def test_calibration_table_refuses_a_lookup_that_is_not_monotone(self, tmp_path):
        # slope -2e19 Hz/s at 0.1 s: once loaded, mapping 0.08 s to -6.4e17 Hz
        path = tmp_path / "cal.txt"
        path.write_text("-1e20 1e10 1.5e10\n0 0.1\n0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: lookup is not monotone")):
            CalibrationTable.load(path)

    def test_trace_csv_round_trip(self, tmp_path):
        # a noisy scan: the reload carries the same hint and detects the same
        # events, here the pulse and a noise event 0.104 ms into the ramp
        models = LinkModels(pd=PdModel(noise_sigma=0.03))
        drive = SawtoothDrive(period=0.02)
        grid = make_grid(1e6, drive)
        seed = derive_seed(14, STAGE_CAL, 0)
        trace = simulate_scan(tone_scenario(10e9), models, drive, grid, seed)
        path = tmp_path / "trace.csv"
        scan_trace_to_csv(trace, path)
        loaded = scan_trace_from_csv(path, models, drive)
        assert loaded.grid.n_samples == grid.n_samples
        np.testing.assert_allclose(loaded.power, trace.power, rtol=1e-9)
        np.testing.assert_allclose(loaded.grid.sample_rate, grid.sample_rate, rtol=1e-6)
        assert loaded.pulse_width_hint == trace.pulse_width_hint
        events = detect_pulses(trace)
        assert len(events) == 2
        reloaded = detect_pulses(loaded)
        assert [ev.peak_time for ev in reloaded] == pytest.approx(
            [ev.peak_time for ev in events], rel=1e-9
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_trace_csv_refuses_non_finite_power(self, noiseless_models, drive, tmp_path, bad):
        grid = TimeGrid(sample_rate=1e6, n_samples=100)
        power = np.ones(grid.n_samples)
        power[50] = bad
        path = tmp_path / "trace.csv"
        scan_trace_to_csv(ScanTrace(grid=grid, power=power), path)
        error = re.escape(f"{path}: power samples must be finite")
        with pytest.raises(ValueError, match=error):
            scan_trace_from_csv(path, noiseless_models, drive)

    def test_trace_csv_refuses_negative_power(self, noiseless_models, drive, tmp_path):
        # a -5 W pulse on a -10 W floor has a level, and half of its negative
        # peak lies above every sample, which pulse detection cannot take
        grid = TimeGrid(sample_rate=1e6, n_samples=5000)
        power = -10.0 + 5.0 * np.exp(-(((grid.times() - 2e-3) / 20e-6) ** 2))
        path = tmp_path / "trace.csv"
        scan_trace_to_csv(ScanTrace(grid=grid, power=power), path)
        error = re.escape(f"{path}: power samples must be finite and >= 0")
        with pytest.raises(ValueError, match=error):
            scan_trace_from_csv(path, noiseless_models, drive)

    def test_trace_csv_refuses_a_single_row(self, noiseless_models, drive, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time_s,power\n0.0,1.0\n")
        error = re.escape(f"{path}: need at least 2 samples, got 1")
        with pytest.raises(ValueError, match=error):
            scan_trace_from_csv(path, noiseless_models, drive)

    def test_trace_csv_refuses_repeated_time_stamps(self, noiseless_models, drive, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time_s,power\n0.0,1.0\n0.0,1.0\n0.0,1.0\n")
        error = re.escape(f"{path}: time stamps must increase")
        with pytest.raises(ValueError, match=error):
            scan_trace_from_csv(path, noiseless_models, drive)

    # one 5 ms ramp at 1 MS/s as scan_trace_to_csv writes it, header first
    RAMP = ["time_s,power\n"] + [f"{k / 1e6:.10e},1.0000000000e+00\n" for k in range(5000)]

    @pytest.mark.parametrize(
        "text, error",
        [
            ("time_s,power\n0.0,1.0\n1e-6,abc\n", "could not convert string 'abc'"),
            ("time_s,power\n0.0,1.0,2.0\n1e-6,1.0\n", "the number of columns changed"),
            # two 5 ms ramps at 1 MS/s, which a fold by the period once read as one
            ("time_s,power\n" + "".join(f"{k / 1e6!r},1.0\n" for k in range(10_000)),
             "rows span 1.000000e-02 s"),
            # the first row once went as the header, and the ramp started a sample late
            ("".join(RAMP[1:]), "first line is '0.0000000000e+00,1.0000000000e+00', not the "
                                "header 'time_s,power'"),
            ("freq_hz,value\n" + "".join(RAMP[1:]), "first line is 'freq_hz,value'"),
            ("time_s,power\n" + "".join(r.replace("\n", ",0.0\n") for r in RAMP[1:]),
             "rows must have 2 fields, not 3"),
            ("time_s,power\n" + "".join(r.split(",")[0] + "\n" for r in RAMP[1:]),
             "rows must have 2 fields, not 1"),
            # every sample after the gap was once re-timed one sample early
            ("".join(RAMP[:2500] + RAMP[2501:]),
             "time step 2.000000e-06 s after row 2499 is over half a sample off the median "
             "step 1.000000e-06 s"),
        ],
        ids=["non-numeric", "ragged", "two ramps", "no header", "wrong header", "three columns",
             "one column", "dropped row"],
    )
    def test_trace_csv_names_its_path(self, noiseless_models, tmp_path, text, error):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {error}")):
            scan_trace_from_csv(path, noiseless_models, SawtoothDrive(period=5e-3))

    # a 1,000-row trace at 1 MS/s spans a 1 ms drive period
    TRACE = "time_s,power\n" + "".join(f"{k / 1e6!r},1.0\n" for k in range(999))
    LUT = "# mode=single_port port=1 f_lo_hz={} f_hi_hz=2e10 full_scale_w=1.0\n1e10,0.9\n{},0.1\n"

    @pytest.mark.parametrize(
        "loader, text, error",
        [
            ("calibration", "nan 1 2\n0 1\n0\n", "every number must be finite"),
            ("calibration", "1 2 3\n0 1\ninf\n", "every number must be finite"),
            ("calibration", "1 2 3\n5 1\n0\n", "valid range 5.0..1.0 is reversed"),
            ("lut", LUT.format("nan", "2e10"), "band edges and knots must be finite"),
            ("lut", LUT.format("1e10", "nan"), "band edges and knots must be finite"),
            ("lut", LUT.format("1e10", "inf"), "band edges and knots must be finite"),
            ("trace", TRACE + "inf,1.0\n", "time stamps must be finite"),
        ],
        ids=["nan coeff", "inf residual", "reversed range", "nan band edge", "nan knot",
             "inf knot", "inf time stamp"],
    )
    def test_loaders_refuse_non_finite_numbers(self, noiseless_models, tmp_path, loader, text,
                                               error):
        load = {
            "calibration": CalibrationTable.load,
            "lut": lut_from_csv,
            "trace": lambda path: scan_trace_from_csv(
                path, noiseless_models, SawtoothDrive(period=1e-3)
            ),
        }[loader]
        path = tmp_path / "saved"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {error}")):
            load(path)
