import numpy as np
import pytest

from mwfi.photonic_link import LinkModels, MrrModel, PdModel, thermal_lag
from mwfi.rf_signals import ChirpSpec, HopSpec, RfScenario, TimeGrid, ToneSpec
from mwfi.scan_engine import (
    _scan_axis,
    CalibrationError,
    CalibrationTable,
    SawtoothDrive,
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

        ev = PulseEvent(peak_time=0.24, peak_power=1.0, width=1e-3, fill_randomness=0.0)
        assert estimate_frequencies([ev], table_1ms) == [None]


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
        # documents why the occupancy edge detector exists
        models = LinkModels(pd=PdModel(noise_sigma=0.01, seed=0))
        trace = simulate_scan(RfScenario(chirps=(CHIRP_4G,)), models, drive, grid_fast)
        raw = measure_span(trace, table_fast, edge_method="raw")
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
        est = estimate_hop_set(trace, table_fast)
        assert len(est) == 3
        for got, want in zip(est, (10e9, 13e9, 18e9)):
            assert abs(got - want) < 200e6

    def test_four_hop_set_sorted(self, drive, grid_fast, table_fast):
        sc = RfScenario(hops=(HopSpec(freqs=(17e9, 10e9, 15e9, 13e9), dwell=80e-9),))
        models = LinkModels(pd=PdModel(noise_sigma=0.01, seed=5))
        trace = simulate_scan(sc, models, drive, grid_fast)
        est = estimate_hop_set(trace, table_fast)
        assert len(est) == 4
        assert est == sorted(est)  # chronological order is not recoverable

    def test_single_tone_degenerates_to_one(self, noiseless_models, drive, grid_1ms, table_1ms):
        trace = simulate_scan(tone_scenario(14e9), noiseless_models, drive, grid_1ms)
        est = estimate_hop_set(trace, table_1ms)
        assert len(est) == 1
        assert est[0] == pytest.approx(14e9, abs=50e6)

    def test_empty_trace_raises(self, drive, grid_1ms, table_1ms):
        from mwfi.scan_engine import ScanTrace

        flat = ScanTrace(grid=grid_1ms, power=np.zeros(grid_1ms.n_samples), drive=drive)
        with pytest.raises(ValueError):
            estimate_hop_set(flat, table_1ms)


class TestPersistence:
    def test_calibration_table_round_trip(self, table_1ms, tmp_path):
        path = tmp_path / "cal.txt"
        table_1ms.save(path)
        loaded = CalibrationTable.load(path)
        assert loaded.coeffs == pytest.approx(table_1ms.coeffs)
        assert loaded.valid_range == pytest.approx(table_1ms.valid_range)
        assert loaded.fit_residual_rms == pytest.approx(table_1ms.fit_residual_rms)

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
