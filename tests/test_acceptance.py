"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured figure (run with -s to see them inline).
"""

import time
import numpy as np
import pytest

from mwfi.classifier import ClassLabel, classify, compute_features
from mwfi.config import RunConfig
from mwfi.harness import run
from mwfi.ifm_engine import build_lut, extract_inst_freq, simulate_ifm
from mwfi.photonic_link import (
    LinkModels,
    MrrModel,
    MziModel,
    NotchFilterModel,
    PdModel,
    acf,
    mrr_drop_response,
    mzi_port_response,
    thermal_lag,
)
from mwfi.presets import preset_path
from mwfi.rf_signals import ChirpSpec, HopSpec, RfScenario, TimeGrid, ToneSpec
from mwfi.scan_engine import (
    SawtoothDrive,
    calibrated_scans,
    detect_pulses,
    estimate_frequencies,
    estimate_hop_set,
    measure_span,
    simulate_scan,
)
from mwfi.seeding import derive_seed

from conftest import CAL_TONES, INCOMMENSURATE_RATE, make_grid

TEST_TONES = np.arange(10e9, 20.1e9, 0.5e9)


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def run_fttm_pipeline(seed, noise_sigma, drive, grid):
    """Calibrate and estimate the 21-tone sweep in one pass of scans, which
    the 11 calibration tones share with the sweep; returns per-tone errors
    and quantization bounds."""
    models = LinkModels(pd=PdModel(noise_sigma=noise_sigma))
    table, scans = calibrated_scans(models, drive, grid, CAL_TONES, TEST_TONES, seed)
    errors, bounds = [], []
    for f, events in zip(TEST_TONES, scans):
        assert len(events) == 1
        est = estimate_frequencies(events, table)[0]
        errors.append(est - f)
        bounds.append(float(table.slope_at(events[0].peak_time)) * grid.dt)
    return np.asarray(errors), np.asarray(bounds)


def test_criterion_01_fttm_round_trip_noiseless(drive, grid_1ms):
    started = time.perf_counter()
    errors, bounds = run_fttm_pipeline(seed=0, noise_sigma=0.0, drive=drive, grid=grid_1ms)
    elapsed = time.perf_counter() - started
    rms = float(np.sqrt(np.mean(errors**2)))
    bound = float(np.sqrt(np.mean(bounds**2)))
    ok = rms <= bound and elapsed < 10.0
    report(1, ok, f"noiseless 21-tone rms {rms / 1e3:.1f} kHz <= quantization bound "
                  f"{bound / 1e3:.1f} kHz, runtime {elapsed:.1f} s < 10 s")


def test_criterion_02_fttm_noisy_rms(drive, grid_1ms):
    all_errors = []
    for seed in range(20):
        errors, _ = run_fttm_pipeline(seed=seed, noise_sigma=0.01, drive=drive, grid=grid_1ms)
        all_errors.append(errors)
    rms = float(np.sqrt(np.mean(np.concatenate(all_errors) ** 2)))
    report(2, rms <= 0.9e9, f"noisy FTTM rms over 20 seeds = {rms / 1e6:.1f} MHz <= 900 MHz "
                            f"(reference hardware figure: 409.4 MHz)")


def test_criterion_03_two_tone_resolution(noiseless_models, drive, grid_1ms):
    resolved = simulate_scan(
        RfScenario(tones=(ToneSpec(freq=10e9), ToneSpec(freq=11e9))),
        noiseless_models, drive, grid_1ms,
    )
    merged = simulate_scan(
        RfScenario(tones=(ToneSpec(freq=10e9), ToneSpec(freq=10.4e9))),
        noiseless_models, drive, grid_1ms,
    )
    n_res = len(detect_pulses(resolved))
    n_mrg = len(detect_pulses(merged))
    report(3, n_res == 2 and n_mrg == 1,
           f"(10, 11) GHz -> {n_res} pulses (want 2); (10, 10.4) GHz -> {n_mrg} (want 1)")


def test_criterion_04_chirp_span(drive, grid_fast, table_fast):
    worst = 0.0
    for span in (4e9, 6e9):
        chirp = ChirpSpec(center=15e9, span=span, pulse_width=1.6e-6, repeat_interval=4e-6)
        for seed in range(10):
            models = LinkModels(pd=PdModel(noise_sigma=0.01))
            trace = simulate_scan(
                RfScenario(chirps=(chirp,)), models, drive, grid_fast, derive_seed(seed, 40)
            )
            err = abs(measure_span(trace, table_fast) - span) / span
            worst = max(worst, err)
    report(4, worst < 0.03, f"chirp spans 4/6 GHz, 10 seeds: worst error {worst * 100:.2f}% < 3% "
                            f"(reference hardware figure: 2.12%)")


def test_criterion_05_hop_set_estimation(drive, grid_fast, table_fast):
    worst = 0.0
    for hop_set in ((10e9, 13e9, 18e9), (10e9, 13e9, 15e9, 17e9)):
        sc = RfScenario(hops=(HopSpec(freqs=hop_set, dwell=80e-9),))
        for seed in range(10):
            models = LinkModels(pd=PdModel(noise_sigma=0.01))
            trace = simulate_scan(sc, models, drive, grid_fast, derive_seed(seed, 50))
            est = estimate_hop_set(detect_pulses(trace), table_fast)
            assert len(est) == len(hop_set)
            worst = max(worst, float(np.max(np.abs(np.array(est) - np.array(sorted(hop_set))))))
    report(5, worst < 250e6, f"hop sets, 10 seeds: worst estimate error {worst / 1e6:.1f} MHz "
                             f"< 250 MHz (reference hardware figure: ~166.9 MHz)")


def test_criterion_06_dynamic_chirp_reconstruction():
    lut = build_lut(MziModel())
    grid = TimeGrid(sample_rate=1e9, n_samples=400)
    chirp = ChirpSpec(center=15e9, span=6e9, pulse_width=160e-9, repeat_interval=200e-9)
    sc = RfScenario(chirps=(chirp,))

    def errors(noise_sigma, seed):
        models = LinkModels(pd=PdModel(noise_sigma=noise_sigma))
        trace = simulate_ifm(sc, models, grid, seed=seed)
        est = extract_inst_freq([trace], lut)
        on = ~est.is_noise
        phase = grid.times()[on] % chirp.repeat_interval
        truth = 12e9 + 6e9 * phase / chirp.pulse_width
        return est.freq[on] - truth

    e0 = errors(0.0, 0)
    max_clean = float(np.max(np.abs(e0)))
    noisy_rms = float(
        np.sqrt(np.mean(np.concatenate([errors(0.01, s) ** 2 for s in range(10)])))
    )
    ok = max_clean <= lut.step and noisy_rms <= 0.5e9
    report(6, ok, f"12-18 GHz chirp: noiseless max error {max_clean:.1f} Hz <= LUT step "
                  f"{lut.step / 1e6:.2f} MHz; noisy rms {noisy_rms / 1e6:.1f} MHz <= 500 MHz "
                  f"(reference hardware figure: ~483.8 MHz)")


def test_criterion_07_dynamic_hop_jam_filtering():
    lut = build_lut(MziModel())
    notch = NotchFilterModel(centers=(9.75e9, 10e9, 10.25e9), fwhm_each=300e6, rejection=20.0)
    models = LinkModels(pd=PdModel(noise_sigma=0.01), notch=notch)
    grid = TimeGrid(sample_rate=1e9, n_samples=640)
    sc = RfScenario(hops=(HopSpec(freqs=(10e9, 13e9, 15e9, 17e9), dwell=80e-9),))
    trace = simulate_ifm(sc, models, grid, seed=77)
    est = extract_inst_freq([trace], lut)

    jam_flagged = all(est.is_noise[c * 320 : c * 320 + 80].all() for c in range(2))
    worst = 0.0
    order_ok = True
    for cycle in range(2):
        recovered = []
        for d, truth in enumerate((13e9, 15e9, 17e9)):
            seg = est.freq[cycle * 320 + 80 * (d + 1) : cycle * 320 + 80 * (d + 2)]
            if np.isnan(seg).any():
                order_ok = False
                continue
            med = float(np.median(seg))
            recovered.append(med)
            worst = max(worst, abs(med - truth))
        order_ok = order_ok and recovered == sorted(recovered)
    ok = jam_flagged and order_ok and worst <= 0.3e9
    report(7, ok, f"10 GHz dwells all NOISE: {jam_flagged}; 13/15/17 recovered in order, "
                  f"worst error {worst / 1e6:.1f} MHz <= 300 MHz")


def test_criterion_08_classifier_accuracy(drive, grid_fast):
    scenarios = {
        ClassLabel.SINGLE_FREQUENCY: RfScenario(tones=(ToneSpec(freq=15e9),)),
        ClassLabel.MULTIPLE_FREQUENCY: RfScenario(
            tones=(ToneSpec(freq=10e9), ToneSpec(freq=15e9))
        ),
        ClassLabel.CHIRPED: RfScenario(
            chirps=(ChirpSpec(center=15e9, span=4e9, pulse_width=1.6e-6, repeat_interval=4e-6),)
        ),
        ClassLabel.FREQUENCY_HOPPING: RfScenario(
            hops=(HopSpec(freqs=(10e9, 13e9, 18e9), dwell=80e-9),)
        ),
    }
    total = correct = 0
    for want, scenario in scenarios.items():
        for seed in range(20):
            models = LinkModels(pd=PdModel(noise_sigma=0.01))
            trace = simulate_scan(scenario, models, drive, grid_fast, derive_seed(seed, 80))
            got = classify(compute_features(detect_pulses(trace), trace))
            total += 1
            correct += got is want
    report(8, correct == total,
           f"classifier: {correct}/{total} correct over 4 canonical scenarios x 20 seeds")


def test_criterion_09_model_identities():
    mzi = MziModel()
    f = np.random.default_rng(0).uniform(-300e9, 300e9, 10000)
    comp_err = float(
        np.max(np.abs(mzi_port_response(mzi, f, 1) + mzi_port_response(mzi, f, 2) - 1.0))
    )

    mrr = MrrModel()
    lor_err = max(
        abs(float(mrr_drop_response(mrr, 437.5e6)) - 0.5),
        abs(float(mrr_drop_response(mrr, -437.5e6)) - 0.5),
    )

    acf_err = abs(float(acf(mzi, 0.0)) - 18.0)

    tau = 37.3e-6
    grid = TimeGrid(sample_rate=200 / tau, n_samples=1000)
    x = np.ones(1000)
    x[0] = 0.0
    y = thermal_lag(x, tau, grid)
    step_val = y[1 + 200]
    step_err = abs(step_val - (1 - np.exp(-1))) / (1 - np.exp(-1))

    ok = comp_err < 1e-12 and lor_err < 1e-9 and acf_err < 0.01 and step_err < 0.01
    report(9, ok, f"complementarity {comp_err:.1e} < 1e-12; Lorentzian half-max error "
                  f"{lor_err:.1e} < 1e-9; ACF(f_ref) error {acf_err:.4f} dB < 0.01; "
                  f"thermal step {step_val:.4f} vs 0.6321 ({step_err * 100:.2f}% < 1%)")


def test_criterion_10_determinism(tmp_path):
    pairs = []
    for name, artifact in (("fig5e", "scan_trace.csv"), ("fig6f", "inst_freq.csv")):
        cfg = RunConfig.from_file(preset_path(name))
        run(cfg, seed=5, out_dir=tmp_path / f"{name}_a")
        run(cfg, seed=5, out_dir=tmp_path / f"{name}_b")
        a = (tmp_path / f"{name}_a" / artifact).read_bytes()
        b = (tmp_path / f"{name}_b" / artifact).read_bytes()
        pairs.append(a == b)
    report(10, all(pairs), f"byte-identical CSVs for fig5e and fig6f repeats: {pairs}")
