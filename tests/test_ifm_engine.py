import math
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
    AcfLut,
    IfmTrace,
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


def with_full_scale(value):
    """A lookup-table file edit that writes value as the header's full_scale_w."""

    def edit(head, rows):
        return [re.sub(r"full_scale_w=\S+", f"full_scale_w={value}", head[0])] + rows

    return edit


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

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            (dict(band=(15e9, 15e9)), "f_lo < f_hi"),
            (dict(band=(16e9, 12e9)), "f_lo < f_hi"),
            (dict(n_knots=1), "at least 2 knots"),
        ],
        ids=["empty band", "reversed band", "one knot"],
    )
    def test_bad_table_settings_rejected(self, kwargs, error):
        with pytest.raises(ValueError, match=error):
            build_lut(MziModel(), **kwargs)

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

    @settings(max_examples=60, deadline=None)
    @given(
        knots=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40, unique=True),
        rising=st.booleans(),
        data=st.data(),
    )
    def test_invert_equals_interp_bit_for_bit(self, knots, rising, data):
        xp = np.sort(knots)
        freqs = np.linspace(10e9, 20e9, xp.size)
        values = xp if rising else xp[::-1]
        lut = AcfLut(mode="single_port", port=2, band=(10e9, 20e9), freqs=freqs, values=values,
                     full_scale=1.0)
        fp = freqs if rising else freqs[::-1]  # the table read with its values ascending
        # exact knots, values past both ends and NaN, repeated and in any order
        query = st.one_of(
            st.sampled_from([*xp, xp[0] - 1.0, xp[-1] + 1.0, -np.inf, np.inf, np.nan]),
            st.floats(-2e3, 2e3),
        )
        v = np.array(data.draw(st.lists(query, max_size=60)), dtype=float)
        v = np.concatenate([v, v[::-1]])
        for q in (v, v[:0], v[:1], v[:2]):
            assert lut.invert(q).tobytes() == np.interp(q, xp, fp).tobytes()
        for x in v[:3]:  # a 0-d input, as the static estimate passes one
            assert lut.invert(np.float64(x)).tobytes() == np.interp(x, xp, fp).tobytes()

    def test_csv_round_trip(self, tmp_path):
        lut = build_lut(MziModel(), n_knots=512)
        path = tmp_path / "lut.csv"
        lut_to_csv(lut, path)
        loaded = lut_from_csv(path)
        assert loaded.mode == lut.mode and loaded.port == lut.port
        assert loaded.band == pytest.approx(lut.band)
        np.testing.assert_allclose(loaded.values, lut.values, rtol=1e-9)

    @pytest.mark.parametrize(
        "mode, port, band",
        # port 1 peaks inside the ratio band, near 128 GHz
        [("single_port", 1, (3e9, 13e9)), ("single_port", 2, (10e9, 20e9)),
         ("ratio", 2, (75e9, 140e9))],
    )
    def test_full_scale_round_trips_bit_for_bit(self, tmp_path, mode, port, band):
        lut = build_lut(MziModel(), band=band, mode=mode, port=port, n_knots=512)
        lut_to_csv(lut, tmp_path / "lut.csv")
        assert lut_from_csv(tmp_path / "lut.csv").full_scale.hex() == lut.full_scale.hex()

    def test_full_scale_is_band_maximum(self):
        # a unit tone's largest power at the knots, through the first port
        # read: on the default band port 2 peaks at 20 GHz, port 1 at 10 GHz
        assert build_lut(MziModel()).full_scale == pytest.approx(
            unit_tone_power_oracle(20e9), rel=1e-12
        )
        assert build_lut(MziModel(), mode="ratio").full_scale == pytest.approx(
            unit_tone_power_oracle(10e9, port=1), rel=1e-12
        )
        # where the tone peaks inside the band, the largest power at a knot
        lut = build_lut(MziModel(), band=(75e9, 140e9), mode="ratio", n_knots=512)
        powers = [unit_tone_power_oracle(f, port=1) for f in lut.freqs]
        assert lut.full_scale == pytest.approx(max(powers), rel=1e-12)
        assert lut.full_scale > max(powers[0], powers[-1])

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda head, rows: head + rows[:1], "need at least 2 knots, got 1"),
            (lambda head, rows: [head[0].replace(" port=2", "")] + rows, "header has no port"),
            (lambda head, rows: [head[0].replace("single_port", "bogus")] + rows, "LUT mode"),
            (lambda head, rows: [head[0].replace("port=2", "port=3")] + rows,
             "port must be 1 or 2"),
            (lambda head, rows: head + ["1e10,x\n"] + rows, "could not convert"),
            (lambda head, rows: rows, "missing LUT header line"),
            # a third field was once dropped unread, alone or on every row
            (lambda head, rows: head + [rows[0].replace("\n", ",0.5\n")] + rows[1:],
             "the number of columns changed"),
            (lambda head, rows: head + [r.replace("\n", ",0.5\n") for r in rows],
             "rows must have 2 fields, not 3"),
            # knots that fall, or that end off the band, once loaded and inverted
            (lambda head, rows: head + rows[::-1], "knots must strictly increase"),
            (lambda head, rows: [head[0].replace("f_hi_hz=2.0", "f_hi_hz=3.0")] + rows,
             "end knots must be the band edges"),
            # the read-out's scale: absent, or no finite power above zero
            (lambda head, rows: [re.sub(r" full_scale_w=\S+", "", head[0])] + rows,
             "header has no full_scale_w"),
            (with_full_scale("nan"), "full scale must be finite and > 0 W, got nan"),
            (with_full_scale("inf"), "full scale must be finite and > 0 W, got inf"),
            (with_full_scale("0"), "full scale must be finite and > 0 W, got 0.0"),
        ],
        ids=["one knot", "no port", "unknown mode", "port 3", "not a number", "no header",
             "extra field", "three fields", "falling knots", "knots off the band",
             "no full scale", "nan full scale", "inf full scale", "zero full scale"],
    )
    def test_csv_refuses_a_malformed_file(self, tmp_path, edit, error):
        path = tmp_path / "lut.csv"
        lut_to_csv(build_lut(MziModel(), n_knots=4), path)
        head, *rows = path.read_text().splitlines(keepends=True)
        path.write_text("".join(edit([head], rows)))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + error):
            lut_from_csv(path)

    def test_refuses_a_knot_count_other_than_the_value_count(self):
        # once built, then failed inside np.interp naming nothing
        with pytest.raises(ValueError, match="3 knots but 2 values"):
            AcfLut(mode="single_port", port=2, band=(10e9, 20e9),
                   freqs=[10e9, 15e9, 20e9], values=[0.1, 0.9], full_scale=1.0)

    @pytest.mark.parametrize("full_scale", [0.0, -1.0, math.nan, math.inf])
    def test_refuses_a_full_scale_that_is_not_a_power(self, full_scale):
        # the read-out divides by it: 0 reads every sample as signal, nan as noise
        with pytest.raises(ValueError, match=re.escape(f"got {full_scale!r}")):
            AcfLut(mode="single_port", port=2, band=(10e9, 20e9),
                   freqs=[10e9, 20e9], values=[0.1, 0.9], full_scale=full_scale)


class TestSimulateIfm:
    def test_static_tone_constant_power(self):
        grid = TimeGrid(sample_rate=1e9, n_samples=200)
        trace = simulate_ifm(RfScenario(tones=(ToneSpec(freq=15e9),)), NOISELESS, grid)
        expected = unit_tone_power_oracle(15e9)
        np.testing.assert_allclose(trace.power, expected, rtol=1e-12)

    @pytest.mark.parametrize("n", [7, 9])
    def test_trace_power_must_match_its_grid(self, n):
        with pytest.raises(ValueError, match="power length must equal grid.n_samples"):
            IfmTrace(TimeGrid(sample_rate=1e9, n_samples=8), np.zeros(n), port=2)

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
        jam = trace.power[:80] / build_lut(MziModel()).full_scale
        assert np.all(jam < 0.05)


class TestExtractInstFreq:
    def test_constant_tone_flat_track(self):
        lut = build_lut(MziModel())
        grid = TimeGrid(sample_rate=1e9, n_samples=100)
        trace = simulate_ifm(RfScenario(tones=(ToneSpec(freq=15e9),)), NOISELESS, grid)
        est = extract_inst_freq([trace], lut)
        assert not est.is_noise.any()
        np.testing.assert_allclose(est.freq, 15e9, atol=lut.step)

    def test_chirp_reconstruction_noiseless(self):
        lut = build_lut(MziModel())
        grid = TimeGrid(sample_rate=1e9, n_samples=400)
        chirp = ChirpSpec(center=15e9, span=6e9, pulse_width=160e-9, repeat_interval=200e-9)
        sc = RfScenario(chirps=(chirp,))
        trace = simulate_ifm(sc, NOISELESS, grid)
        est = extract_inst_freq([trace], lut)
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
        est = extract_inst_freq([trace], lut)
        recovered = [float(np.median(est.freq[k : k + 80])) for k in range(0, 320, 80)]
        assert recovered == pytest.approx([13e9, 17e9, 15e9, 11e9], abs=lut.step)

    def test_jammed_dwells_flag_noise_others_in_order(self):
        models = LinkModels(pd=PdModel(noise_sigma=0.01), notch=JAM_NOTCH)
        lut = build_lut(MziModel())
        grid = TimeGrid(sample_rate=1e9, n_samples=640)
        sc = RfScenario(hops=(HopSpec(freqs=HOP_SET, dwell=80e-9),))
        trace = simulate_ifm(sc, models, grid, seed=6)
        est = extract_inst_freq([trace], lut)
        for cycle in range(2):
            base = cycle * 320
            assert est.is_noise[base : base + 80].all()  # 10 GHz jam removed
            for d, truth in enumerate((13e9, 15e9, 17e9)):
                seg = est.freq[base + 80 * (d + 1) : base + 80 * (d + 2)]
                assert not np.isnan(seg).any()
                assert np.median(seg) == pytest.approx(truth, abs=0.3e9)

    def test_tone_above_the_band_is_noise(self):
        lut = build_lut(MziModel())
        grid = TimeGrid(sample_rate=1e9, n_samples=50)
        trace = simulate_ifm(RfScenario(tones=(ToneSpec(freq=21e9),)), NOISELESS, grid)
        est = extract_inst_freq([trace], lut)
        assert est.is_noise.all()

    def test_silence_is_noise(self):
        lut = build_lut(MziModel())
        grid = TimeGrid(sample_rate=1e9, n_samples=50)
        trace = simulate_ifm(RfScenario(), NOISELESS, grid)
        est = extract_inst_freq([trace], lut)
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
        est = extract_inst_freq([trace], lut)
        assert est.is_noise[0] or est.freq[0] > 14e9

    def test_ratio_mode_round_trip(self):
        lut = build_lut(MziModel(), mode="ratio")
        grid = TimeGrid(sample_rate=1e9, n_samples=64)
        sc = RfScenario(tones=(ToneSpec(freq=13.5e9),))
        tr1 = simulate_ifm(sc, NOISELESS, grid, port=1)
        tr2 = simulate_ifm(sc, NOISELESS, grid, port=2)
        est = extract_inst_freq([tr1, tr2], lut)
        assert not est.is_noise.any()
        np.testing.assert_allclose(est.freq, 13.5e9, atol=lut.step)

    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(["tones", "hops", "chirps"]),
        freq=st.floats(10.5e9, 19.5e9),
        amplitude=st.floats(0.5, 1e3),
        sigma=st.sampled_from([0.0, 0.01]),
    )
    def test_ratio_read_out_does_not_depend_on_amplitude(self, kind, freq, amplitude, sigma):
        # the ratio divides the ports' powers, and each port's noise std is a
        # fraction of its own peak, so the amplitude cancels but for rounding;
        # a brighter emitter may only clear the noise floor more often
        lut = build_lut(MziModel(), mode="ratio")
        grid = TimeGrid(sample_rate=1e9, n_samples=2000)
        models = LinkModels(pd=PdModel(noise_sigma=sigma))
        emitter = {
            "tones": lambda amp: ToneSpec(freq=freq, amplitude=amp),
            "hops": lambda amp: HopSpec((freq, 29e9 - freq, 15e9), dwell=80e-9, amplitude=amp),
            "chirps": lambda amp: ChirpSpec(freq, 1e9, 160e-9, 200e-9, amplitude=amp),
        }[kind]

        def read(amp):
            scenario = RfScenario(**{kind: (emitter(amp),)})
            port1 = simulate_ifm(scenario, models, grid, port=1, seed=5)
            port2 = simulate_ifm(scenario, models, grid, port=2, seed=6)
            track = extract_inst_freq([port1, port2], lut).freq
            # a tone's static estimate reads the same ratio, of the mean powers
            static = estimate_static_frequency([port1, port2], lut) if kind == "tones" else 0.0
            return track, static

        (unit, unit_static), (scaled, scaled_static) = read(1.0), read(amplitude)
        both = ~np.isnan(unit) & ~np.isnan(scaled)
        assert both.any()
        np.testing.assert_allclose(scaled[both], unit[both], rtol=0, atol=1e-3)
        assert scaled_static == pytest.approx(unit_static, rel=0, abs=1e-3)

    def test_ratio_mode_needs_reference(self):
        # a table reads exactly its ports: a ratio table refuses one trace or
        # three, and a single_port table a second, once ignored without a word
        grid = TimeGrid(sample_rate=1e9, n_samples=8)
        trace = simulate_ifm(RfScenario(tones=(ToneSpec(freq=13e9),)), NOISELESS, grid)
        for mode, n_traces in [("ratio", 1), ("ratio", 3), ("single_port", 2)]:
            lut = build_lut(MziModel(), mode=mode)
            error = f"a {mode} table reads ports {lut.ports}, got traces of {(2,) * n_traces}"
            with pytest.raises(ValueError, match=re.escape(error)):
                extract_inst_freq([trace] * n_traces, lut)

    def test_ratio_pair_in_the_wrong_port_order_is_refused(self):
        # a trace carries its port: [port 2, port 1] flagged all 50 samples
        # of a 13 GHz tone NOISE without a word
        lut = build_lut(MziModel(), mode="ratio")
        grid = TimeGrid(sample_rate=1e9, n_samples=50)
        tone = RfScenario(tones=(ToneSpec(freq=13e9),))
        p1, p2 = (simulate_ifm(tone, NOISELESS, grid, port=k) for k in (1, 2))
        assert not extract_inst_freq([p1, p2], lut).is_noise.any()
        error = "a ratio table reads ports (1, 2), got traces of (2, 1)"
        with pytest.raises(ValueError, match=re.escape(error)):
            extract_inst_freq([p2, p1], lut)


class TestEstimateStaticFrequency:
    def test_noiseless_exact(self):
        lut = build_lut(MziModel())
        grid = TimeGrid(sample_rate=1e9, n_samples=500)
        trace = simulate_ifm(RfScenario(tones=(ToneSpec(freq=14e9),)), NOISELESS, grid)
        assert estimate_static_frequency([trace], lut) == pytest.approx(14e9, abs=lut.step)

    @settings(max_examples=20, deadline=None)
    @given(at=st.floats(0.0, 1.0), n_knots=st.sampled_from([64, 512, 4096]))
    def test_noiseless_within_one_step_on_drawn_tones(self, at, n_knots):
        lut = build_lut(MziModel(), n_knots=n_knots)
        f = lut.band[0] + at * (lut.band[1] - lut.band[0])
        grid = TimeGrid(sample_rate=1e9, n_samples=64)
        trace = simulate_ifm(RfScenario(tones=(ToneSpec(freq=f, amplitude=1.0),)), NOISELESS, grid)
        assert abs(estimate_static_frequency([trace], lut) - f) <= lut.step

    def test_noisy_within_one_gigahertz(self):
        lut = build_lut(MziModel())
        grid = TimeGrid(sample_rate=1e9, n_samples=2000)
        models = LinkModels(pd=PdModel(noise_sigma=0.01))
        trace = simulate_ifm(RfScenario(tones=(ToneSpec(freq=14e9),)), models, grid, seed=8)
        assert estimate_static_frequency([trace], lut) == pytest.approx(14e9, abs=1e9)

    def test_no_signal_raises(self):
        lut = build_lut(MziModel())
        grid = TimeGrid(sample_rate=1e9, n_samples=100)
        trace = simulate_ifm(RfScenario(), NOISELESS, grid)
        with pytest.raises(ValueError, match="no signal"):
            estimate_static_frequency([trace], lut)

    def test_ratio_no_signal_raises(self):
        # the ratio of the dark ports' zero means is NaN, without a warning
        lut = build_lut(MziModel(), mode="ratio")
        grid = TimeGrid(sample_rate=1e9, n_samples=100)
        port1, port2 = (simulate_ifm(RfScenario(), NOISELESS, grid, port=k) for k in (1, 2))
        with pytest.raises(ValueError, match="no signal"):
            estimate_static_frequency([port1, port2], lut)

    def test_ratio_needs_reference(self):
        # as extract_inst_freq: only a list of len(lut.ports) traces is read
        grid = TimeGrid(sample_rate=1e9, n_samples=8)
        trace = simulate_ifm(RfScenario(tones=(ToneSpec(freq=13e9),)), NOISELESS, grid, port=1)
        for mode, n_traces in [("ratio", 1), ("ratio", 3), ("single_port", 2)]:
            lut = build_lut(MziModel(), mode=mode)
            error = f"a {mode} table reads ports {lut.ports}, got traces of {(1,) * n_traces}"
            with pytest.raises(ValueError, match=re.escape(error)):
                estimate_static_frequency([trace] * n_traces, lut)

    def test_ratio_pair_in_the_wrong_port_order_is_refused(self):
        # [port 2, port 1] of a 13 GHz tone read 20 GHz, the band edge, without a word
        lut = build_lut(MziModel(), mode="ratio")
        grid = TimeGrid(sample_rate=1e9, n_samples=50)
        tone = RfScenario(tones=(ToneSpec(freq=13e9),))
        p1, p2 = (simulate_ifm(tone, NOISELESS, grid, port=k) for k in (1, 2))
        assert estimate_static_frequency([p1, p2], lut) == pytest.approx(13e9, abs=lut.step)
        error = "a ratio table reads ports (1, 2), got traces of (2, 1)"
        with pytest.raises(ValueError, match=re.escape(error)):
            estimate_static_frequency([p2, p1], lut)


def test_inst_freq_csv_writes_noise_literal(tmp_path):
    lut = build_lut(MziModel())
    grid = TimeGrid(sample_rate=1e9, n_samples=160)
    models = LinkModels(pd=PdModel(noise_sigma=0.0), notch=JAM_NOTCH)
    sc = RfScenario(hops=(HopSpec(freqs=(10e9, 15e9), dwell=80e-9),))
    trace = simulate_ifm(sc, models, grid)
    est = extract_inst_freq([trace], lut)
    path = tmp_path / "inst.csv"
    inst_freq_to_csv(est, path, [trace])
    lines = path.read_text().splitlines()
    assert lines[0] == "time_s,power,freq_hz_or_NOISE"
    assert lines[1].endswith(",NOISE")
    assert "NOISE" not in lines[90]

    trace_path = tmp_path / "trace.csv"
    ifm_trace_to_csv(trace, trace_path)
    assert trace_path.read_text().splitlines()[0] == "time_s,power"
