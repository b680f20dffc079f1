import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mwfi.classifier import EnvelopeFeatures, compute_features
from mwfi.photonic_link import LinkModels, MrrModel, PdModel, pd_detect, thermal_lag
from mwfi.rf_signals import ChirpSpec, HopSpec, RfScenario, TimeGrid, ToneSpec
from mwfi.scan_engine import (
    THRESHOLD_FRAC,
    _above_threshold_runs,
    _merge_runs,
    _scan_axis,
    CalibrationError,
    CalibrationTable,
    SawtoothDrive,
    ScanTrace,
    TraceLevel,
    calibrate,
    detect_pulses,
    estimate_frequencies,
    estimate_hop_set,
    measure_span,
    scan_frequency,
    scan_trace_from_csv,
    scan_trace_to_csv,
    simulate_scan,
)
from mwfi.seeding import STAGE_CAL, derive_seed

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

    def test_period_invariance(self, noiseless_models):
        drive2 = SawtoothDrive(n_periods=2)
        grid2 = make_grid(1e6, drive2)
        trace = simulate_scan(tone_scenario(15e9), noiseless_models, drive2, grid2)
        events = detect_pulses(trace)
        assert len(events) == 2
        assert events[0].peak_time == pytest.approx(events[1].peak_time, abs=grid2.dt)

    def test_grid_must_span_drive(self, noiseless_models, drive):
        short = TimeGrid(sample_rate=1e6, n_samples=1000)
        with pytest.raises(ValueError, match="drive"):
            simulate_scan(RfScenario(), noiseless_models, drive, short)

    def test_same_seed_reproducible(self, drive, grid_1ms):
        models = LinkModels(pd=PdModel(noise_sigma=0.01, seed=9))
        a = simulate_scan(tone_scenario(12e9), models, drive, grid_1ms)
        b = simulate_scan(tone_scenario(12e9), models, drive, grid_1ms)
        assert np.array_equal(a.power, b.power)

    def test_chirp_envelope_is_filled(self, drive, grid_fast):
        models = LinkModels(pd=PdModel(noise_sigma=0.01, seed=2))
        trace = simulate_scan(RfScenario(chirps=(CHIRP_4G,)), models, drive, grid_fast)
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

    def test_flat_trace_no_events(self, drive, grid_1ms):
        from mwfi.scan_engine import ScanTrace

        flat = ScanTrace(grid=grid_1ms, power=np.zeros(grid_1ms.n_samples), drive=drive)
        assert detect_pulses(flat) == []

    def test_pure_noise_no_events(self, drive):
        from mwfi.scan_engine import ScanTrace

        grid = TimeGrid(sample_rate=1e6, n_samples=250000)
        rng = np.random.default_rng(3)
        noise = np.maximum(rng.normal(0.5, 0.01, grid.n_samples), 0)
        trace = ScanTrace(grid=grid, power=noise, drive=SawtoothDrive(), pulse_width_hint=6.8e-3)
        assert detect_pulses(trace) == []

    def test_static_pulse_fill_near_zero(self, noiseless_models, drive, grid_1ms):
        trace = simulate_scan(tone_scenario(15e9), noiseless_models, drive, grid_1ms)
        assert detect_pulses(trace)[0].fill_randomness < 0.1

    def test_one_sample_noise_spike_is_not_a_pulse(self, drive, grid_fast):
        # with this noise stream one sample on the slow rising tail of the
        # 10 GHz pulse crosses the threshold 38 ms before the real peak
        models = LinkModels(pd=PdModel(seed=derive_seed(311, STAGE_CAL, 0)))
        trace = simulate_scan(tone_scenario(10e9), models, drive, grid_fast)
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
    pd = PdModel(noise_sigma=noise_sigma, seed=seed)
    power = pd_detect(np.full(grid.n_samples, 0.5), pd, grid)
    trace = ScanTrace(grid=grid, power=power, drive=SawtoothDrive(period=5e-3))
    assert trace.level is None
    events = detect_pulses(trace)
    assert events == []
    with pytest.raises(ValueError, match="no envelope"):
        measure_span(trace, CalibrationTable((0.0, 2e12, 1e10), (0.0, 5e-3), 0.0))
    assert compute_features(events, trace) == EnvelopeFeatures(0, False, None)


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
    trace = ScanTrace(grid=grid, power=power, drive=SawtoothDrive(period=grid.duration))
    assert trace.level == level_oracle(power)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample(bad):
    # a 5 ms scan holding one clean pulse at 2 ms, and one non-finite sample
    grid = TimeGrid(sample_rate=1e6, n_samples=5000)
    power = np.exp(-(((grid.times() - 2e-3) / 20e-6) ** 2))
    power[100] = bad
    trace = ScanTrace(grid=grid, power=power, drive=SawtoothDrive(period=5e-3))
    if bad < 0:
        # -inf sorts first: the floor and the pulse stand
        assert trace.level == level_oracle(power)
        events = detect_pulses(trace)
        assert len(events) == 1
        assert events[0].peak_time == pytest.approx(2e-3, abs=grid.dt)
        # -inf on half the samples is the floor: no level either
        power[: grid.n_samples // 2] = bad
        assert ScanTrace(grid=grid, power=power, drive=trace.drive).level is None
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
    trace = ScanTrace(grid=grid, power=power, drive=SawtoothDrive(period=grid.duration))
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
        models = LinkModels(pd=PdModel(seed=7))
        scenario = tone_scenario(12e9, 17e9)
        _scan_axis.cache_clear()
        cold = simulate_scan(scenario, models, drive, grid_1ms).power
        assert _scan_axis.cache_info().currsize == 1
        warm = simulate_scan(scenario, models, drive, grid_1ms).power
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

    def test_failure_names_offending_tone(self, noiseless_models):
        # a two-period grid doubles every pulse, so calibration must refuse
        drive2 = SawtoothDrive(n_periods=2)
        grid2 = make_grid(1e6, drive2)
        with pytest.raises(CalibrationError, match="10.000 GHz produced 2 pulses"):
            calibrate(noiseless_models, drive2, [10e9, 15e9, 20e9], grid2)

    def test_out_of_band_tone_aliases_through_image(self, noiseless_models, drive, grid_1ms):
        # a 50 GHz tone's image sideband wraps into the scan at 30 GHz, so
        # calibration sees a pulse at the wrong delay and the fit degenerates
        with pytest.raises(CalibrationError):
            calibrate(noiseless_models, drive, [10e9, 15e9, 50e9], grid_1ms)

    def test_repeatable_with_seed(self, drive, grid_1ms):
        models = LinkModels(pd=PdModel(noise_sigma=0.01, seed=17))
        t1 = calibrate(models, drive, CAL_TONES, grid_1ms)
        t2 = calibrate(models, drive, CAL_TONES, grid_1ms)
        assert t1.coeffs == t2.coeffs


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
            models = LinkModels(pd=PdModel(noise_sigma=0.01, seed=seed))
            trace = simulate_scan(RfScenario(chirps=(chirp,)), models, drive, grid_fast)
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
        models = LinkModels(pd=PdModel(noise_sigma=0.01, seed=0))
        trace = simulate_scan(RfScenario(chirps=(CHIRP_4G,)), models, drive, grid_fast)
        floor, fullscale, _ = trace.level
        hit = np.flatnonzero(trace.power > floor + THRESHOLD_FRAC * fullscale)
        times = (trace.grid.t0 + hit[[0, -1]] * trace.grid.dt) % drive.period
        raw = float(table_fast.freq_at(times[1]) - table_fast.freq_at(times[0]))
        assert raw - 4e9 > 1e9

    def test_flat_trace_raises(self, drive, grid_1ms, table_1ms):
        from mwfi.scan_engine import ScanTrace

        flat = ScanTrace(grid=grid_1ms, power=np.zeros(grid_1ms.n_samples), drive=drive)
        with pytest.raises(ValueError, match="no envelope"):
            measure_span(flat, table_1ms)


class TestEstimateHopSet:
    def test_three_hop_set(self, drive, grid_fast, table_fast):
        sc = RfScenario(hops=(HopSpec(freqs=(10e9, 13e9, 18e9), dwell=80e-9),))
        models = LinkModels(pd=PdModel(noise_sigma=0.01, seed=4))
        trace = simulate_scan(sc, models, drive, grid_fast)
        est = estimate_hop_set(detect_pulses(trace), table_fast)
        assert len(est) == 3
        for got, want in zip(est, (10e9, 13e9, 18e9)):
            assert abs(got - want) < 200e6

    def test_four_hop_set_sorted(self, drive, grid_fast, table_fast):
        sc = RfScenario(hops=(HopSpec(freqs=(17e9, 10e9, 15e9, 13e9), dwell=80e-9),))
        models = LinkModels(pd=PdModel(noise_sigma=0.01, seed=5))
        trace = simulate_scan(sc, models, drive, grid_fast)
        est = estimate_hop_set(detect_pulses(trace), table_fast)
        assert len(est) == 4
        assert est == sorted(est)  # chronological order is not recoverable

    def test_single_tone_degenerates_to_one(self, noiseless_models, drive, grid_1ms, table_1ms):
        trace = simulate_scan(tone_scenario(14e9), noiseless_models, drive, grid_1ms)
        est = estimate_hop_set(detect_pulses(trace), table_1ms)
        assert len(est) == 1
        assert est[0] == pytest.approx(14e9, abs=50e6)

    def test_empty_trace_raises(self, drive, grid_1ms, table_1ms):
        from mwfi.scan_engine import ScanTrace

        flat = ScanTrace(grid=grid_1ms, power=np.zeros(grid_1ms.n_samples), drive=drive)
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

    def test_calibration_table_refuses_a_non_numeric_field(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("1.0 2.0 3.0\n0.0 x\n0.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: could not convert")):
            CalibrationTable.load(path)

    def test_trace_csv_round_trip(self, noiseless_models, tmp_path):
        # two periods: the reload must keep the settle window, or the
        # post-reset flyback crossing reads as a third pulse
        drive = SawtoothDrive(n_periods=2)
        grid = make_grid(5e5, drive)
        trace = simulate_scan(tone_scenario(15e9), noiseless_models, drive, grid)
        path = tmp_path / "trace.csv"
        scan_trace_to_csv(trace, path)
        loaded = scan_trace_from_csv(path, noiseless_models, drive)
        assert loaded.grid.n_samples == grid.n_samples
        np.testing.assert_allclose(loaded.power, trace.power, rtol=1e-9)
        np.testing.assert_allclose(loaded.grid.sample_rate, grid.sample_rate, rtol=1e-6)
        assert (loaded.pulse_width_hint, loaded.settle_time) == (
            trace.pulse_width_hint,
            trace.settle_time,
        )
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
        scan_trace_to_csv(ScanTrace(grid=grid, power=power, drive=drive), path)
        error = re.escape(f"{path}: power samples must be finite")
        with pytest.raises(ValueError, match=error):
            scan_trace_from_csv(path, noiseless_models, drive)

    def test_trace_csv_refuses_negative_power(self, noiseless_models, drive, tmp_path):
        # a -5 W pulse on a -10 W floor has a level, and half of its negative
        # peak lies above every sample, which pulse detection cannot take
        grid = TimeGrid(sample_rate=1e6, n_samples=5000)
        power = -10.0 + 5.0 * np.exp(-(((grid.times() - 2e-3) / 20e-6) ** 2))
        path = tmp_path / "trace.csv"
        scan_trace_to_csv(ScanTrace(grid=grid, power=power, drive=drive), path)
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
