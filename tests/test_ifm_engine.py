import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mwfi.photonic_link import (
    LinkModels,
    ModulatorModel,
    MziModel,
    NotchFilterModel,
    PdModel,
    modulator_sideband_weight,
    mzi_port_response,
)
from mwfi.rf_signals import ChirpSpec, HopSpec, RfScenario, TimeGrid, ToneSpec
from mwfi.ifm_engine import (
    build_lut,
    estimate_static_frequency,
    extract_inst_freq,
    ifm_trace_to_csv,
    inst_freq_to_csv,
    lut_from_csv,
    lut_to_csv,
    simulate_ifm,
)

NOISELESS = LinkModels(pd=PdModel(noise_sigma=0.0))

JAM_NOTCH = NotchFilterModel(centers=(9.75e9, 10e9, 10.25e9), fwhm_each=300e6, rejection=20.0)

HOP_SET = (10e9, 13e9, 15e9, 17e9)


def unit_tone_power_oracle(f, port=2):
    """Recompute the single-tone link response from the element models."""
    mod = ModulatorModel()
    mzi = MziModel()
    cs = 10 ** (-mod.carrier_suppression / 10)
    imgs = 10 ** (-mod.image_sideband_suppression / 10)
    w = modulator_sideband_weight(mod, f)
    return (
        w * mzi_port_response(mzi, f, port)
        + imgs * w * mzi_port_response(mzi, -f, port)
        + cs * mzi_port_response(mzi, 0.0, port)
    )


class TestBuildLut:
    def test_single_port_rising_on_default_band(self):
        lut = build_lut(MziModel())
        assert lut.rising
        assert np.all(np.diff(lut.values) > 0)
        assert lut.values[-1] == pytest.approx(1.0)

    def test_ratio_mode_decreasing(self):
        lut = build_lut(MziModel(), mode="ratio")
        assert not lut.rising
        assert np.all(np.diff(lut.values) < 0)

    def test_band_wider_than_half_fsr_rejected(self):
        with pytest.raises(ValueError, match="FSR"):
            build_lut(MziModel(), band=(5e9, 90e9))

    def test_non_monotone_band_rejected(self):
        # the roll-off-weighted port response peaks near 37 GHz; a band
        # straddling that peak cannot invert
        with pytest.raises(ValueError, match="monotone"):
            build_lut(MziModel(), band=(30e9, 45e9))

    def test_round_trip_within_knot_spacing(self):
        lut = build_lut(MziModel())
        f = np.random.default_rng(1).uniform(*lut.band, 1000)
        back = lut.invert(lut.evaluate(f))
        assert np.max(np.abs(back - f)) <= lut.step

    @settings(max_examples=40, deadline=None)
    @given(
        lo=st.floats(1e9, 35e9),
        width=st.floats(0.1e9, 35e9),
        n_knots=st.integers(2, 4096),
        table=st.sampled_from([("single_port", 1), ("single_port", 2), ("ratio", 2)]),
        at=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50),
    )
    def test_round_trip_across_tables(self, lo, width, n_knots, table, at):
        # every band below the port-2 roll-off peak (~37 GHz) is monotone
        band = (lo, min(lo + width, 36e9))
        mode, port = table
        lut = build_lut(MziModel(), band=band, mode=mode, port=port, n_knots=n_knots)
        f = band[0] + np.array(at) * (band[1] - band[0])
        back = lut.invert(lut.evaluate(f))
        assert np.max(np.abs(back - f)) <= lut.step

    def test_csv_round_trip(self, tmp_path):
        lut = build_lut(MziModel(), n_knots=512)
        path = tmp_path / "lut.csv"
        lut_to_csv(lut, path)
        loaded = lut_from_csv(path)
        assert loaded.mode == lut.mode and loaded.port == lut.port
        assert loaded.band == pytest.approx(lut.band)
        np.testing.assert_allclose(loaded.values, lut.values, rtol=1e-9)

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda head, rows: head + rows[:1], "need at least 2 knots, got 1"),
            (lambda head, rows: [head[0].replace(" port=2", "")] + rows, "header has no port"),
            (lambda head, rows: [head[0].replace("single_port", "bogus")] + rows, "LUT mode"),
            (lambda head, rows: [head[0].replace("port=2", "port=3")] + rows, "port must be 1 or 2"),
            (lambda head, rows: head + ["1e10,x\n"] + rows, "could not convert"),
        ],
        ids=["one knot", "no port", "unknown mode", "port 3", "not a number"],
    )
    def test_csv_refuses_a_malformed_file(self, tmp_path, edit, error):
        path = tmp_path / "lut.csv"
        lut_to_csv(build_lut(MziModel(), n_knots=4), path)
        head, *rows = path.read_text().splitlines(keepends=True)
        path.write_text("".join(edit([head], rows)))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + error):
            lut_from_csv(path)


class TestSimulateIfm:
    def test_static_tone_constant_power(self):
        grid = TimeGrid(sample_rate=1e9, n_samples=200)
        trace = simulate_ifm(RfScenario(tones=(ToneSpec(freq=15e9),)), NOISELESS, grid)
        expected = unit_tone_power_oracle(15e9)
        np.testing.assert_allclose(trace.power, expected, rtol=1e-12)

    def test_normalization_is_band_maximum(self):
        grid = TimeGrid(sample_rate=1e9, n_samples=10)
        trace = simulate_ifm(RfScenario(), NOISELESS, grid)
        assert trace.normalization == pytest.approx(unit_tone_power_oracle(20e9), rel=1e-6)

    def test_undersampled_hop_dwell_rejected(self):
        grid = TimeGrid(sample_rate=1e7, n_samples=100)  # 0.8 samples per dwell
        sc = RfScenario(hops=(HopSpec(freqs=HOP_SET, dwell=80e-9),))
        with pytest.raises(ValueError, match="dwell"):
            simulate_ifm(sc, NOISELESS, grid)

    def test_notch_suppresses_jammed_dwells(self):
        models = LinkModels(pd=PdModel(noise_sigma=0.0), notch=JAM_NOTCH)
        grid = TimeGrid(sample_rate=1e9, n_samples=320)
        sc = RfScenario(hops=(HopSpec(freqs=HOP_SET, dwell=80e-9),))
        trace = simulate_ifm(sc, models, grid)
        jam = trace.power[:80] / trace.normalization
        assert np.all(jam < 0.05)


class TestExtractInstFreq:
    def test_constant_tone_flat_track(self):
        lut = build_lut(MziModel())
        grid = TimeGrid(sample_rate=1e9, n_samples=100)
        trace = simulate_ifm(RfScenario(tones=(ToneSpec(freq=15e9),)), NOISELESS, grid)
        est = extract_inst_freq(trace, lut)
        assert not est.is_noise.any()
        np.testing.assert_allclose(est.freq, 15e9, atol=lut.step)

    def test_chirp_reconstruction_noiseless(self):
        lut = build_lut(MziModel())
        grid = TimeGrid(sample_rate=1e9, n_samples=400)
        chirp = ChirpSpec(center=15e9, span=6e9, pulse_width=160e-9, repeat_interval=200e-9)
        sc = RfScenario(chirps=(chirp,))
        trace = simulate_ifm(sc, NOISELESS, grid)
        est = extract_inst_freq(trace, lut)
        t = grid.times()
        on = ~est.is_noise
        assert on.sum() == 320  # 160 of each 200 ns cycle
        phase = t[on] % 200e-9
        truth = 12e9 + 6e9 * phase / 160e-9
        assert np.max(np.abs(est.freq[on] - truth)) <= lut.step
        # ramp covers the full 12-18 GHz span monotonically within a pulse
        first_pulse = est.freq[:160]
        assert np.all(np.diff(first_pulse) > 0)
        assert first_pulse[0] == pytest.approx(12e9, abs=2 * lut.step)

    def test_hop_chronology_preserved(self):
        lut = build_lut(MziModel())
        grid = TimeGrid(sample_rate=1e9, n_samples=320)
        sc = RfScenario(hops=(HopSpec(freqs=(13e9, 17e9, 15e9, 11e9), dwell=80e-9),))
        trace = simulate_ifm(sc, NOISELESS, grid)
        est = extract_inst_freq(trace, lut)
        recovered = [float(np.median(est.freq[k : k + 80])) for k in range(0, 320, 80)]
        assert recovered == pytest.approx([13e9, 17e9, 15e9, 11e9], abs=lut.step)

    def test_jammed_dwells_flag_noise_others_in_order(self):
        models = LinkModels(pd=PdModel(noise_sigma=0.01, seed=6), notch=JAM_NOTCH)
        lut = build_lut(MziModel())
        grid = TimeGrid(sample_rate=1e9, n_samples=640)
        sc = RfScenario(hops=(HopSpec(freqs=HOP_SET, dwell=80e-9),))
        trace = simulate_ifm(sc, models, grid)
        est = extract_inst_freq(trace, lut)
        for cycle in range(2):
            base = cycle * 320
            assert est.is_noise[base : base + 80].all()  # 10 GHz jam removed
            for d, truth in enumerate((13e9, 15e9, 17e9)):
                seg = est.freq[base + 80 * (d + 1) : base + 80 * (d + 2)]
                assert not np.isnan(seg).any()
                assert np.median(seg) == pytest.approx(truth, abs=0.3e9)

    def test_above_upper_limit_is_noise(self):
        lut = build_lut(MziModel())
        grid = TimeGrid(sample_rate=1e9, n_samples=50)
        trace = simulate_ifm(RfScenario(tones=(ToneSpec(freq=21e9),)), NOISELESS, grid)
        est = extract_inst_freq(trace, lut, upper_limit=20e9)
        assert est.is_noise.all()

    def test_silence_is_noise(self):
        lut = build_lut(MziModel())
        grid = TimeGrid(sample_rate=1e9, n_samples=50)
        trace = simulate_ifm(RfScenario(), NOISELESS, grid)
        est = extract_inst_freq(trace, lut)
        assert est.is_noise.all()

    def test_two_simultaneous_tones_power_sums(self):
        # documented failure mode: the inverted value follows the summed
        # power, which exceeds each single-tone level
        lut = build_lut(MziModel())
        grid = TimeGrid(sample_rate=1e9, n_samples=64)
        pair = RfScenario(tones=(ToneSpec(freq=12e9), ToneSpec(freq=14e9)))
        trace = simulate_ifm(pair, NOISELESS, grid)
        single12 = simulate_ifm(RfScenario(tones=(ToneSpec(freq=12e9),)), NOISELESS, grid)
        single14 = simulate_ifm(RfScenario(tones=(ToneSpec(freq=14e9),)), NOISELESS, grid)
        assert trace.power[0] > single12.power[0]
        assert trace.power[0] > single14.power[0]
        est = extract_inst_freq(trace, lut)
        assert est.is_noise[0] or est.freq[0] > 14e9

    def test_ratio_mode_round_trip(self):
        lut = build_lut(MziModel(), mode="ratio")
        grid = TimeGrid(sample_rate=1e9, n_samples=64)
        sc = RfScenario(tones=(ToneSpec(freq=13.5e9),))
        tr1 = simulate_ifm(sc, NOISELESS, grid, port=1)
        tr2 = simulate_ifm(sc, NOISELESS, grid, port=2)
        est = extract_inst_freq(tr1, lut, reference_trace=tr2)
        assert not est.is_noise.any()
        np.testing.assert_allclose(est.freq, 13.5e9, atol=lut.step)

    def test_ratio_mode_needs_reference(self):
        lut = build_lut(MziModel(), mode="ratio")
        grid = TimeGrid(sample_rate=1e9, n_samples=8)
        trace = simulate_ifm(RfScenario(tones=(ToneSpec(freq=13e9),)), NOISELESS, grid)
        with pytest.raises(ValueError, match="complementary"):
            extract_inst_freq(trace, lut)

    def test_upper_limit_outside_band_rejected(self):
        lut = build_lut(MziModel())
        grid = TimeGrid(sample_rate=1e9, n_samples=8)
        trace = simulate_ifm(RfScenario(), NOISELESS, grid)
        with pytest.raises(ValueError, match="band"):
            extract_inst_freq(trace, lut, upper_limit=25e9)


class TestEstimateStaticFrequency:
    def test_noiseless_exact(self):
        lut = build_lut(MziModel())
        grid = TimeGrid(sample_rate=1e9, n_samples=500)
        trace = simulate_ifm(RfScenario(tones=(ToneSpec(freq=14e9),)), NOISELESS, grid)
        assert estimate_static_frequency(trace, lut) == pytest.approx(14e9, abs=lut.step)

    def test_noisy_within_one_gigahertz(self):
        lut = build_lut(MziModel())
        grid = TimeGrid(sample_rate=1e9, n_samples=2000)
        models = LinkModels(pd=PdModel(noise_sigma=0.01, seed=8))
        trace = simulate_ifm(RfScenario(tones=(ToneSpec(freq=14e9),)), models, grid)
        assert estimate_static_frequency(trace, lut) == pytest.approx(14e9, abs=1e9)

    def test_no_signal_raises(self):
        lut = build_lut(MziModel())
        grid = TimeGrid(sample_rate=1e9, n_samples=100)
        trace = simulate_ifm(RfScenario(), NOISELESS, grid)
        with pytest.raises(ValueError, match="no signal"):
            estimate_static_frequency(trace, lut)


def test_inst_freq_csv_writes_noise_literal(tmp_path):
    lut = build_lut(MziModel())
    grid = TimeGrid(sample_rate=1e9, n_samples=160)
    models = LinkModels(pd=PdModel(noise_sigma=0.0), notch=JAM_NOTCH)
    sc = RfScenario(hops=(HopSpec(freqs=(10e9, 15e9), dwell=80e-9),))
    trace = simulate_ifm(sc, models, grid)
    est = extract_inst_freq(trace, lut)
    path = tmp_path / "inst.csv"
    inst_freq_to_csv(est, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "time_s,freq_hz_or_NOISE"
    assert lines[1].endswith(",NOISE")
    assert "NOISE" not in lines[90]

    trace_path = tmp_path / "trace.csv"
    ifm_trace_to_csv(trace, trace_path)
    assert trace_path.read_text().splitlines()[0] == "time_s,power"
